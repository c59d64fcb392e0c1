(** The canonical {!Jsonx} spelling, written and scanned in place.

    The WAL's direct codecs ({!Wal_record}, {!Checkpoint}) write frames
    byte for byte as {!Jsonx.to_string} would print their {!Jsonx} tree,
    without building the tree, and read them back in one pass. The
    writers here append what the printer appends for an int, a string or
    an array; the scanners accept only that spelling and raise
    {!Not_canonical} on anything else. The tree codecs that specify both
    formats live in [test/ref_codec.ml]. *)

(** {1 Writing} *)

type out
(** A growable byte buffer. Each writer reserves room once and then
    stores its bytes unchecked; {!crc32} reads them in place. *)

val out : int -> out
(** An empty buffer with room for about that many bytes. *)

val clear : out -> unit
(** Empties the buffer and keeps its room. *)

val contents : out -> string

val crc32 : int -> out -> int
(** [crc32 crc o] extends [crc] with the bytes written so far. *)

val add_char : out -> char -> unit
val add_string : out -> string -> unit

val add_int : out -> int -> unit
(** [string_of_int n], digit by digit. *)

val add_member : out -> string -> int -> unit
(** [add_member o key n]: [key] is the whole member prefix, e.g.
    [,"tid":], followed by [n]. *)

val add_str : out -> string -> unit
(** A JSON string exactly as [Jsonx.to_buffer buf (Jsonx.Str s)] writes
    it; only a string that needs escapes builds the [Jsonx.Str]. *)

val add_list : out -> (out -> 'a -> unit) -> 'a list -> unit
(** [[x,y,...]], each element written by the given function. *)

(** {1 Scanning} *)

exception Not_canonical

type cursor = { mutable s : string; mutable lim : int; mutable pos : int }
(** Scans [s] from [pos]; nothing at or past [lim] is read. A scanner
    may keep one cursor and point it at frame after frame, as
    {!Wal_record} does; the scanners below allocate only the values
    they return. *)

val skip : cursor -> string -> bool
(** Skip the literal if it follows [pos], and say whether it did. *)

val expect : cursor -> string -> unit
(** Skip the literal, or raise. *)

val char : cursor -> char -> unit
(** Skip the character, or raise. *)

val is_digit : char -> bool

val int : cursor -> int
(** An int as [string_of_int] prints it: no leading zero, no [-0], no
    value past [min_int] or [max_int]. *)

val member : cursor -> string -> int
(** [expect] the member prefix, then [int]. *)

val str : cursor -> string
(** A JSON string as {!Jsonx.to_string} prints it: escapes only where
    the printer writes them, and no raw control character. *)

val list : cursor -> (cursor -> 'a) -> 'a list
(** [[x,y,...]] with no whitespace, each element read by the function.
    Only the list cells and what the function returns are allocated. *)
