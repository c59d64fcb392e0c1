(** LRU set over integer keys, for buffer-pool residency tracking.

    Array-backed: the list and its index live in int arrays sized at
    [create], so {!access} (hit or steady-state miss) allocates
    nothing. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val size : t -> int
val mem : t -> int -> bool

val touch : t -> int -> [ `Hit | `Miss of int option ]
(** Access a key: [`Hit] if resident (moves it to most-recent);
    [`Miss evicted] inserts it, reporting the evicted key if the set
    was full. *)

val access : t -> int -> bool
(** [touch] without the result box: [true] on a hit. *)

val remove : t -> int -> unit
val clear : t -> unit
