(** Deterministic event tracer for the vDriver pipeline.

    A fixed-capacity ring buffer of typed events stamped with the
    simulator clock (integer nanoseconds — the tracer never reads wall
    time, so a seeded run traces to the same bytes everywhere). When the
    ring is full the {e oldest} events are overwritten and counted in
    {!dropped}: a bounded trace always keeps the end of the run, which
    is where overload and fault episodes live.

    Like {!Metrics}, recording goes through a scoped current tracer:
    {!with_tracer} installs one, and without one every recording helper
    is a no-op that performs no allocation and touches no simulator
    state — untraced runs stay bit-identical to a build without this
    library. Hot paths guard argument-list construction behind {!on}.

    {!to_chrome_json} renders the Chrome [trace_event] JSON array form
    loadable in [chrome://tracing] and Perfetto, with one "thread" per
    subsystem track. *)

type track =
  | Scheduler  (** discrete-event dispatch *)
  | Txn  (** per-transaction lifecycle (begin/commit/abort/shed/retry) *)
  | Vsorter  (** sweeps, prunes and segment flushes *)
  | Vcutter  (** cut-and-fix rounds *)
  | Governor  (** maintenance passes, ladder transitions, space curve *)
  | Wal  (** redo appends *)
  | Engine  (** engine-level events (relocations, assists) *)
  | Fault  (** injected faults *)
  | Watchdog  (** liveness ladder transitions, sheds, lag readings *)

type arg = I of int | F of float | S of string

type kind =
  | Span of int  (** duration in ns; rendered as a complete ["X"] event *)
  | Instant  (** rendered as an ["i"] event *)
  | Count of int  (** rendered as a ["C"] counter event (value graphs) *)

type event = { track : track; name : string; at : int; kind : kind; args : (string * arg) list }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 262144 events. Raises on non-positive capacity. *)

val with_tracer : t -> (unit -> 'a) -> 'a
(** Install [t] as the tracer in scope for the thunk (restoring the
    previous one on exit, even by exception). *)

val on : unit -> bool
(** Is a tracer in scope? Sites use this to skip argument building. *)

val span : track -> string -> start:int -> dur:int -> (string * arg) list -> unit
(** Record a complete span; no-op without a tracer in scope. Negative
    durations are clamped to 0. *)

val instant : track -> string -> at:int -> (string * arg) list -> unit
val count : track -> string -> at:int -> int -> unit

val events : t -> event list
(** Oldest first (insertion order; survivors only once the ring wraps). *)

val length : t -> int
val emitted : t -> int
(** Total events recorded, including overwritten ones. *)

val dropped : t -> int
val to_chrome_json : t -> Jsonx.t
