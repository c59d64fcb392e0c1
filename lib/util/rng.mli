(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [Rng.t] so that experiments are replayable bit-for-bit from a seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of the splitmix64 stream. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
