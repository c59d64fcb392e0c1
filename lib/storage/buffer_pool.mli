(** Buffer pool: LRU residency over block ids with hit/miss accounting.

    One pool instance per storage area (heap, undo space, version
    store). A miss costs the caller one [io_latency] in the simulation;
    the pool only decides hit vs miss. *)

type t

val create : capacity_blocks:int -> t

val access : t -> block:int -> [ `Hit | `Miss ]
(** Touch a block; loads it on miss (evicting LRU if full). *)

val evict : t -> block:int -> unit
(** Drop a block (e.g. its segment was cut). *)

val clear : t -> unit
val hits : t -> int
val misses : t -> int
val resident : t -> int
