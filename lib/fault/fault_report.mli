(** Per-run chaos report: injected faults, invariant checks, violations.

    The report is the campaign's verdict and must be reproducible
    byte-for-byte from the seed, so everything it prints is either
    sorted or recorded in simulation order. Violation details are kept
    only up to a cap (a genuinely broken invariant can fire on every
    pruned version); the total count is always exact. *)

type violation = { at : Clock.time; invariant : string; detail : string }

type value = Int of int | Float of float | Str of string
(** An end-of-run counter: a count, a ratio or rate, or a label. *)

type t

val create : ?max_details:int -> unit -> t
(** [max_details] bounds stored violation records (default 64). *)

val record : t -> at:Clock.time -> invariant:string -> detail:string -> unit
val note_check : t -> unit
(** Count one invariant sweep. *)

val note_fault : t -> string -> unit
(** Count one injected fault by action name. *)

val set_gauge : t -> string -> value -> unit
(** Record an end-of-run counter under a stable name; overwrites any
    previous value. {!Run_digest.publish} is the one writer. *)

val gauge : t -> string -> int option
(** The named counter when it holds an [Int]. *)

val gauges : t -> (string * value) list
(** Sorted by name. *)

val pp_value : Format.formatter -> value -> unit

val violations : t -> violation list
(** Stored violation records, oldest first. *)

val violation_count : t -> int
(** Exact total, including records dropped past the cap. *)

val checks_run : t -> int
val faults_injected : t -> (string * int) list
(** Sorted by action name. *)

val ok : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
