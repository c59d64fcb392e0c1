(** Minimal JSON values with a deterministic printer and a small strict
    parser.

    The observability exporters must produce {e byte-identical} files for
    the same seed on every machine, so the printer is fully specified: no
    insignificant whitespace, object members in construction order
    (callers sort when the source is unordered), floats printed with
    [%.12g] (integral floats as [x.] with no exponent), and non-finite
    floats as [null] (JSON has no representation for them). The parser
    exists for the in-repo schema checker ([bin/obs_check]) and accepts
    standard JSON; it is not streaming and is not meant for large or
    adversarial inputs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical single-line rendering (see above for the guarantees). *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). The error
    string includes the byte offset of the failure. *)

val member : string -> t -> t option
(** [member key (Obj _)] — [None] for a missing key or a non-object. *)

val to_int : t -> int option
(** [Int n] gives [Some n]; anything else [None]. *)

val to_float : t -> float option
(** [Int] and [Float] both convert; anything else [None]. *)

val to_str : t -> string option
val to_arr : t -> t list option
