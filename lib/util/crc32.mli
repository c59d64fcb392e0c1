(** CRC-32 (the IEEE 802.3 polynomial, as used by zip/png/ethernet).

    Pure OCaml, slicing-by-8: eight bytes per step through eight
    256-entry tables, then one byte at a time for the last [len mod 8]
    bytes. Used by the WAL record framing to detect
    torn or bit-flipped log frames during recovery: a frame whose stored
    checksum does not match the recomputed one marks the end of the
    trustworthy log prefix. *)

val string : string -> int
(** Checksum of a whole string, in [0, 0xffffffff]. *)

val update : int -> string -> int
(** [update crc s] extends a running checksum — [update 0 s = string s]. *)

val update_sub : int -> string -> int -> int -> int
(** [update_sub crc s off len] extends [crc] with the [len] bytes of [s]
    starting at [off], without copying them out —
    [update_sub crc s off len = update crc (String.sub s off len)].
    @raise Invalid_argument if the range is not inside [s]. *)
