(** Seeded, deterministic simulated message bus.

    Endpoints are small integers (the shard group uses [0..n-1] for
    shards and [n] for the epoch/control service). Each endpoint
    installs one handler; {!send} routes a message through the fault
    model of the attached {!Net_fault.config}:

    - a message whose channel is cut by an active partition is dropped
      (no randomness consumed, so heal timing never shifts the streams);
    - otherwise a loss draw, a duplication draw, and one delay draw per
      surviving copy come from the {e per-channel} splitmix stream
      [(seed, src, dst)] — channels never perturb each other, and the
      whole fault sequence replays bit-for-bit from the seed;
    - a copy whose total delay is zero is delivered inline at the send
      site; a delayed copy queues until {!pump} reaches its due time.
      Jitter windows overlap across sends, so delivery order genuinely
      reorders.

    With [Net_fault.none] (the default) there are no draws and no
    queues at all: every send is an inline synchronous handler call —
    the transparent pass-through the byte-identity pin relies on.
    Self-sends ([src = dst]) are always inline and fault-free. *)

type 'a t

type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_partition : int;
  duplicated : int;
  retried : int;  (** counted by the protocol layer via {!count_retry} *)
}

val create : ?faults:Net_fault.config -> endpoints:int -> unit -> 'a t
(** Raises [Invalid_argument] if [endpoints < 1]. *)

val set_handler : 'a t -> ep:int -> (now:Clock.time -> src:int -> 'a -> unit) -> unit

val send : 'a t -> src:int -> dst:int -> now:Clock.time -> 'a -> unit
(** Route one message. Handlers invoked inline may themselves send. *)

val pump : 'a t -> now:Clock.time -> int
(** Deliver every queued copy due at or before [now], in (due time,
    sequence) order, until quiescent (handlers may enqueue more work).
    Returns the number of deliveries made. *)

val pending : 'a t -> int
(** Copies still queued (in flight). *)

val clear : 'a t -> unit
(** Crash: drop everything in flight. Stats survive. *)

val reachable : 'a t -> src:int -> dst:int -> now:Clock.time -> bool
(** No active partition separates the pair at [now]. *)

val count_retry : 'a t -> unit
val stats : 'a t -> stats
