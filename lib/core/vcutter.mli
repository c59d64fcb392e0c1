(** vCutter (§3.4): version segment cleaning.

    Periodically checks every hardened segment's VS descriptor
    [\[v_min, v_max\]] against the current dead zones; a covered segment
    is dead in its entirety and is cut. Cutting removes its versions
    from their LLB chains through the cut-and-fix state machine
    (holes, Fixup). A simulated step never races a vSorter insertion
    for a chain, so the cutter deletes directly; the collaborative TAS
    protocol that arbitrates such races is {!Collab}. *)

type result = {
  segments_cut : int;
  versions_cut : int;
  bytes_reclaimed : int;
  segments_scanned : int;
}

val reclaim_segment :
  State.t -> Segment.t -> dead:(Chain.node -> bool) -> now:Clock.time -> int * int * bool
(** Delete from their chains the live nodes of one hardened segment
    that [dead] accepts, auditing each deletion; once no live node
    remains, remove the segment from the store, the cache and the
    index, and log the cut. Returns [(versions deleted, bytes freed,
    whether the segment was cut)]. {!step} passes a [dead] that accepts
    every node of a segment whose descriptor is dead; the per-version
    GC backends pass their own interval test. *)

val step : State.t -> now:Clock.time -> max_segments:int -> result
(** One cleaning pass: refresh zones, scan descriptors, cut up to
    [max_segments] dead segments. *)
