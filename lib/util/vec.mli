(** Growable array (OCaml 5.1 predates stdlib [Dynarray]).

    Whatever shortens a vector ({!pop}, {!drop_front},
    {!filter_in_place}) leaves nothing it removed reachable from the
    backing array: vacated slots are overwritten with a surviving
    element, and an emptied vector drops its array. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val pop : 'a t -> 'a option
(** Remove and return the last element, if any. *)

val drop_front : 'a t -> int -> unit
(** Remove the first [k] elements, shifting the rest down. Raises
    [Invalid_argument] if [k] is negative or exceeds the length. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val sub : 'a t -> int -> int -> 'a array
(** [sub t pos len]: the [len] elements from index [pos]. Raises
    [Invalid_argument] unless they all lie within [t]. *)

val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)
