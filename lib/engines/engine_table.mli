(** The engines by name: the one map from a command-line or bench name
    to a factory. A factory takes the vDriver configuration (the
    vanilla engines ignore it) and a schema. *)

type factory = State.config -> Schema.t -> Engine.t

val vdriver : (string * factory) list
(** [pg-vdriver] and [mysql-vdriver]. *)

val paper : (string * factory) list
(** The paper's four engines, vanilla first: [pg], [mysql], then
    {!vdriver}. *)

val all : (string * factory) list
(** {!paper} plus the HANA-style interval-GC baseline,
    [mysql-interval-gc]. *)
