(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [Rng.t] so that experiments are replayable bit-for-bit from a seed.

    The state is kept unboxed (8 bytes, read and written in place), so
    {!int}, {!int_in_range}, {!bits53} and {!shuffle} allocate nothing.
    A [float] or [int64] returned to another module is boxed, since the
    default build compiles with [-opaque] and inlines nothing across
    modules: {!float} and {!next_int64} allocate their result. Hot
    callers that need a uniform float (as {!Zipf} does) scale
    {!bits53} themselves. *)

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

val bits53 : t -> int
(** The top 53 bits of the next raw output, uniform in
    [\[0, 2{^53})]. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [float_of_int (bits53 t) *. 0x1p-53]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
