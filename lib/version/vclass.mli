(** Version classes (§3.3).

    vDriver separates versions with similar lifetimes into distinct
    clusters so that live versions pinned by LLTs never suspend the
    cleaning of dead versions in the other classes. *)

type t =
  | Hot  (** short update interval: [ve - vs < delta_hot] *)
  | Cold  (** longer update interval *)
  | Llt  (** snapshot read of at least one identified LLT *)

val all : t list
val count : int

val to_index : t -> int
(** Stable dense index in [\[0, count)], for per-class counter arrays. *)

val of_index : int -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
