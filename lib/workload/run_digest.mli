(** A run's counter table: the one declaration from which its report
    counters, its digest JSON, its printed summary and its Sim-vs-Domains
    comparison are all derived.

    A row is one name, one value and one rule saying how two runs of
    the same experiment — one on the deterministic Sim scheduler, one on
    real domains — must agree on it. Safety facts are exact (invariant
    violations, the SIRO 0/1-hole chain shape, prune-stats
    conservation); statistical aggregates (commits, space peak, latency
    and chain percentiles) are compared under per-row tolerances —
    Domains mode interleaves for real, so counts shifted by scheduling
    noise are expected; counts shifted by a lost update are not.

    A dotted name such as [net.sent] is key [sent] of block [net]. A
    block with a compared row is a configured layer: one run carrying it
    and the other not is a mismatch. An undotted row one run lacks (the
    reclamation-lag rows, present where the monitor was armed) is
    compared only when both carry it.

    What agreement does and does not prove (DESIGN §4f): matching
    digests say the two modes computed statistically indistinguishable
    histories and neither violated a safety invariant; they do not say
    the histories are identical, and they cannot certify the absence of
    races the workload never provoked. *)

type value = Fault_report.value = Int of int | Float of float | Str of string

type rule =
  | Exact  (** equal in both runs *)
  | Zero  (** 0 in each run *)
  | At_most of int  (** at most [n] in each run *)
  | At_least of int  (** at least [n] in each run *)
  | Within of float * float
      (** [(rel, abs)]: [|a - b| <= max abs (rel * max |a| |b|)] *)
  | Presence  (** nonzero in both runs or in neither *)
  | Report  (** shown, never compared *)

type row = { name : string; value : value; rule : rule }

type t = row list
(** In display order; JSON keeps it, blocks nest at their first row. *)

val int : ?rule:rule -> string -> int -> row
(** Rows default to [Report]. *)

val float : ?rule:rule -> string -> float -> row
val str : ?rule:rule -> string -> string -> row
val find : t -> string -> value option

val get_int : t -> string -> int
(** The named [Int] row, 0 when absent. *)

val recovery : crashes:int -> Engine.restart_info list -> t
(** The [recovery] block — crash-restarts and the summed replay,
    truncation and rollback counts — empty when [crashes = 0]. *)

val to_json : t -> Jsonx.t
val pp : Format.formatter -> t -> unit

val publish : Fault_report.t -> t -> unit
(** Write every row into the report under its own name. *)

val diff : t -> t -> string list
(** Human-readable mismatches, empty when the tables agree. Each starts
    with the offending row or block name and a colon. The [mode] row
    labels the two runs. *)
