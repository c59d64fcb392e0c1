(** Aligned ASCII table printing for benchmark output. *)

val print : header:string list -> string list list -> unit
(** Print rows to stdout under a header with columns padded to the
    widest cell. *)

val fmt_f : ?decimals:int -> float -> string
(** Render a float with fixed decimals (default 1). *)

val fmt_bytes : int -> string
(** Human-readable byte count, e.g. "1.5 MiB". *)
