(** Heap file: maps records to data pages and tracks in-row version
    bloat and page splits.

    Records are placed into pages up to a fill factor at load time.
    In-row engines then add old-version bytes to the owning page; an
    overflowing page is split — half its records (with their version
    bytes) move to a fresh page, redo is generated, and the split
    counter feeds the Figure 3/13/18 mechanisms. Engines with a fixed
    per-record footprint (off-row, SIRO) never split. *)

type t

val create :
  page_bytes:int -> slot_bytes:int -> records:int -> fill_factor:float -> wal:Wal.t -> t
(** [slot_bytes] is the on-page footprint of one record (for SIRO
    layouts: record + placeholder). [fill_factor] in (0, 1]. *)

val page_count : t -> int
val record_count : t -> int
val page_of : t -> rid:int -> Page.t
val splits : t -> int
val total_bytes : t -> int
(** Sum of page [used_bytes]. *)

val latch_wait : t -> Clock.time
(** Sum of every page latch's cumulative queueing time. Every page
    holds at least one record (a split moves half of a page of two or
    more), so this equals the sum over the distinct pages of the
    records, at the cost of the page count. *)

val version_bytes : t -> int
(** In-row old-version bytes currently stored. *)

val add_version_bytes : t -> rid:int -> bytes:int -> [ `Fits | `Split ]
(** Store [bytes] of old-version data next to [rid]. If the page
    overflows, split it (records and their version bytes redistribute,
    redo is appended to the WAL) and report [`Split]. A single-record
    page cannot split and simply grows ([`Fits]). *)

val remove_version_bytes : t -> rid:int -> bytes:int -> unit
(** Vacuum: reclaim old-version bytes held for [rid]. *)

val rid_version_bytes : t -> rid:int -> int
