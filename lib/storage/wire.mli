(** The byte primitives of the WAL's binary codecs ({!Wal_record} and
    {!Checkpoint}).

    Every int is a zigzag LEB128 varint: [(n lsl 1) lxor (n asr 62)],
    read as an unsigned 63-bit value, seven bits per byte from the
    least significant, the high bit set on every byte but the last.
    The reader refuses an overlong form (a last byte of 0 after the
    first) and a tenth byte (a value past 63 bits), so each int has
    exactly one spelling. A string or a list is a varint count
    followed by its bytes or its items; a boolean is one byte, 0 or
    1. The reference codec in [test/ref_codec.ml] is written apart
    from this one. *)

(** {1 Writing} *)

type out
(** A growable byte buffer. Each writer reserves room once per value
    and then stores its bytes unchecked. *)

val out : unit -> out
val contents : out -> string
val add_byte : out -> int -> unit
val add_bool : out -> bool -> unit
val add_int : out -> int -> unit
val add_str : out -> string -> unit

val add_list : out -> (out -> 'a -> unit) -> 'a list -> unit
(** The count, then each item written by the function. *)

val sealed : (out -> 'a -> unit) -> 'a -> mask:int -> string
(** [sealed write x ~mask] writes [x] into this domain's buffer,
    reused from call to call (Domains mode logs from several domains
    at once), appends the CRC-32 of those bytes xored with [mask] as
    4 bytes little-endian, and copies the whole out. *)

(** {1 Reading} *)

exception Malformed

type cursor = { mutable s : string; mutable lim : int; mutable pos : int }
(** Reads [s] from [pos]; nothing at or past [lim] is read. A reader
    may keep one cursor and point it at frame after frame; the readers
    below allocate only the values they return, and raise {!Malformed}
    on anything but the spelling the writers write. *)

val byte : cursor -> int
val bool : cursor -> bool
val int : cursor -> int

val str : cursor -> string
(** Its count is checked against the bytes left before the string is
    built. *)

val list : cursor -> (cursor -> 'a) -> 'a list
(** Its count is checked against the bytes left (every item takes at
    least one) before any item is read; then the items, in order, with
    no closure and no reversal. *)
