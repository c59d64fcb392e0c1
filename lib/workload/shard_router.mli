(** Keyspace router for sharded deployments: which shard a transaction
    touches, and which record within it.

    The physical mapping (global rid [r] → shard [r mod n], local rid
    [r / n]) belongs to {!Shard_group}; this module decides the
    {e traffic} shape across shards — uniform, Zipfian-across-shards,
    or an explicit hot shard — with an independent within-shard row
    distribution. *)

type scenario =
  | Uniform_shards
  | Zipfian_shards of float  (** Zipf exponent over shard ids *)
  | Hot_shard of { shard : int; pct : int }
      (** [pct]% of traffic lands on [shard]; the rest uniform over the
          others *)

val scenario_to_string : scenario -> string
val scenario_of_string : string -> scenario option
(** ["uniform"], ["zipf"] (exponent 1.2), ["hot"] (shard 0, 80%). *)

type t

val create : ?row:Access.pattern -> shards:int -> Schema.t -> scenario -> t
(** [row] (default uniform) is the within-shard row distribution;
    Zipfian tables are precomputed per shard. Raises
    [Invalid_argument] on [shards < 1], a hot shard out of range, or a
    percentage outside [0, 100]. *)

val sample : t -> Rng.t -> int
(** Draw a global rid: shard by the scenario, row by [row]. *)

val sample_on : t -> Rng.t -> sid:int -> int
(** Draw a global rid on a {e given} shard — how the workload forces a
    transaction to be cross-shard. *)
