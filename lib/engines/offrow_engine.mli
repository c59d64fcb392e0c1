(** Vanilla off-row versioning engine (MySQL-8.0/InnoDB style, §2.1).

    The heap holds only current versions (fixed footprint: no page
    splits ever); old versions go to undo space as a roll-pointer chain.
    Version lookup walks the chain {e from the newest version while
    holding the page latch}, fetching undo pages through a buffer pool —
    an LLT reading deep into history turns every hot-page latch into a
    millisecond-scale convoy (Figure 3b). Undo-header bookkeeping rides
    a global rollback-segment latch (the "giant latch" vDriver's
    integration removes, §4.2/§5.2.1); undo tablespaces truncate
    abruptly when purge drains them, producing the paper's space
    sawtooth. *)

val create : ?gc:[ `Purge_prefix | `Interval_scan ] -> Schema.t -> Engine.t
(** One purge pass scans up to 4096 records; the undo buffer pool holds
    512 pages beyond the heap's; a mostly-empty undo tablespace is
    truncated once more than 4 MiB is allocated.
    [gc] selects the cleaner: [`Purge_prefix] is stock MySQL (reclaim
    below the oldest read view only); [`Interval_scan] is the
    HANA/Steam-style fine-grained collector of §2.2 — it scans whole
    version chains and removes {e any} dead version (complete w.r.t.
    Theorem 3.5), but pays undo-page I/O for the scan, which is the
    paper's argument for why eager interval GC does not transplant to
    disk-based engines. *)
