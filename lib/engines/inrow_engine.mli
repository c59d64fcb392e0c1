(** Vanilla in-row versioning engine (PostgreSQL-12 style, §2.1).

    Old versions live in the heap pages next to their records. Version
    lookup walks the chain {e from the oldest version}, so every read of
    a hot record pays the full chain length in CPU. A page overflowing
    with versions splits, stalling the page and generating redo. Garbage
    collection is a vacuum pass gated on the classic oldest-active
    boundary — which a single LLT pins, letting chains and heap bloat
    grow without bound (Figure 3a). *)

val create : Schema.t -> Engine.t
(** One maintenance pass vacuums up to 4096 records. *)
