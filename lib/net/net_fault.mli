(** Seeded message-fault model for the simulated shard fabric.

    A config is a pure description of how the network misbehaves:
    per-message loss and duplication probabilities, a delay window
    (fixed floor plus drawn jitter — jitter is what reorders), and
    named bidirectional partitions with scheduled heal times. All
    randomness is drawn by the {!Bus} from per-channel splitmix
    streams derived from [seed], following the {!Fault_plan} stream
    discipline: equal seeds give equal fault sequences, and a fault
    config never touches the workload's RNG.

    {!none} is the contract the whole layer hangs off: with it, the
    bus is a provably transparent pass-through — no draws, no queues,
    every message delivered inline at the send site — so a run with
    the net layer installed but no net faults is byte-identical to a
    run without the layer at all (pinned by test). *)

type partition = {
  p_name : string;
  isolated : int list;
      (** endpoint ids cut off from everyone outside the set
          (bidirectional; endpoints inside the set still reach each
          other) *)
  from_t : Clock.time;
  heal_t : Clock.time;  (** healed from this instant on (exclusive window) *)
}

type config = {
  seed : int;
  loss : float;  (** per-message drop probability, [0..1) *)
  dup : float;  (** per-message duplication probability, [0..1) *)
  min_delay : Clock.time;  (** fixed propagation floor (ns) *)
  max_delay : Clock.time;  (** additional uniform jitter bound (ns) — reordering *)
  partitions : partition list;
}

val none : config
(** The transparent pass-through: zero rates, zero delays, no
    partitions. *)

val is_none : config -> bool

val make :
  ?loss:float ->
  ?dup:float ->
  ?min_delay:Clock.time ->
  ?max_delay:Clock.time ->
  ?partitions:partition list ->
  seed:int ->
  unit ->
  config
(** Raises [Invalid_argument] on rates outside [0..1) or negative
    delays/windows. *)

val severed : config -> src:int -> dst:int -> now:Clock.time -> string option
(** The name of the partition separating [src] from [dst] at [now], if
    any. *)

val last_heal : config -> Clock.time
(** Latest scheduled heal instant (0 with no partitions) — after it the
    fabric is whole again and the bounded-lag clocks start. *)

val active_at : config -> now:Clock.time -> bool
(** Some partition window covers [now]. *)
