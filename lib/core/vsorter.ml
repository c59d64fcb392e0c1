type outcome = Pruned_first of Vclass.t | Buffered of Vclass.t

type sweep_result = {
  segments_dropped : int;
  versions_pruned : int;
  segments_flushed : int;
  versions_stored : int;
}

let empty_sweep =
  { segments_dropped = 0; versions_pruned = 0; segments_flushed = 0; versions_stored = 0 }

(* Drop a sealed segment that is dead in its entirety: every version it
   holds is removed from its chain and counted into the 2nd prune. *)
let drop_dead_segment (st : State.t) seg ~now =
  let pruned = ref 0 in
  Vec.iter
    (fun node ->
      if not node.Chain.deleted then begin
        (match Llb.find st.State.llb ~rid:node.Chain.version.Version.rid with
        | Some chain -> Chain.delete_node chain node
        | None -> assert false);
        State.audit_prune st ~now ~origin:`Prune2 ~lo:node.Chain.prune_lo
          ~hi:node.Chain.prune_hi;
        Prune_stats.note_prune2 st.State.stats seg.Segment.cls;
        incr pruned
      end)
    seg.Segment.nodes;
  State.drop_segment st seg;
  State.log_wal st ~now (Wal_record.Seg_drop { seg_id = seg.Segment.id });
  !pruned

let harden_segment (st : State.t) seg ~now =
  let stored = Segment.version_count seg in
  Version_store.harden st.State.store seg ~now;
  for _ = 1 to stored do
    Prune_stats.note_stored st.State.stats seg.Segment.cls
  done;
  State.log_wal st ~now (Wal_record.Seg_harden { seg_id = seg.Segment.id });
  Metrics.bump "vsorter.segments_flushed";
  Metrics.bump_by "vsorter.versions_stored" stored;
  if Trace.on () then
    Trace.instant Trace.Vsorter "flush" ~at:now
      [
        ("seg", Trace.I seg.Segment.id);
        ("class", Trace.S (Vclass.to_string seg.Segment.cls));
        ("versions", Trace.I stored);
        ("bytes", Trace.I seg.Segment.used_bytes);
      ];
  stored

let sweep (st : State.t) ~now =
  State.refresh_zones st ~now;
  let result = ref empty_sweep in
  (* 2nd prune: segment-granularity, against fresh zones. *)
  Vec.filter_in_place
    (fun seg ->
      let _, vmin, vmax = Segment.descriptor seg in
      if State.interval_dead st ~lo:vmin ~hi:vmax then begin
        let pruned = drop_dead_segment st seg ~now in
        result :=
          {
            !result with
            segments_dropped = !result.segments_dropped + 1;
            versions_pruned = !result.versions_pruned + pruned;
          };
        false
      end
      else true)
    st.State.sealed;
  (* Memory pressure: flush the oldest surviving sealed segments. A
     ["vsorter.flush"] fail-point failure models a rejected or delayed
     store write: the segment stays sealed in the buffer (pressure
     persists) and the flush is retried on the next sweep. *)
  let rec relieve () =
    if State.buffered_bytes st > st.State.config.State.vbuffer_bytes then begin
      match Failpoint.check "vsorter.flush" with
      | `Fail -> ()
      | `Pass -> (
          match State.pop_oldest_sealed st with
          | Some seg ->
              let stored = harden_segment st seg ~now in
              result :=
                {
                  !result with
                  segments_flushed = !result.segments_flushed + 1;
                  versions_stored = !result.versions_stored + stored;
                };
              relieve ()
          | None -> ())
    end
  in
  relieve ();
  (match st.State.watchdog with
  | Some w -> Watchdog.beat w "vsorter" ~now
  | None -> ());
  let r = !result in
  Metrics.bump_by "vsorter.segments_dropped" r.segments_dropped;
  Metrics.bump_by "vsorter.prune2" r.versions_pruned;
  if Trace.on () then
    Trace.span Trace.Vsorter "sweep" ~start:now ~dur:0
      [
        ("segments_dropped", Trace.I r.segments_dropped);
        ("versions_pruned", Trace.I r.versions_pruned);
        ("segments_flushed", Trace.I r.segments_flushed);
        ("versions_stored", Trace.I r.versions_stored);
        ("buffered_bytes", Trace.I (State.buffered_bytes st));
      ];
  r

let seal (st : State.t) ~cls ~now =
  let idx = Vclass.to_index cls in
  match st.State.open_segments.(idx) with
  | Some seg ->
      st.State.open_segments.(idx) <- None;
      if Segment.is_empty seg then begin
        State.drop_segment st seg;
        State.log_wal st ~now (Wal_record.Seg_drop { seg_id = seg.Segment.id })
      end
      else Vec.push st.State.sealed seg
  | None -> ()

let relocate (st : State.t) version ~lo ~hi ~now =
  State.maybe_refresh st ~now;
  Prune_stats.note_relocated st.State.stats;
  let cls =
    match st.State.config.State.classification with
    | `Single_class -> Vclass.Hot
    | `Three_way ->
        Classifier.classify st.State.config.State.classifier ~llt_views:st.State.llt_views
          version
  in
  let vs = version.Version.vs and ve = version.Version.ve in
  (* SIRO guarantees both the creator and the closer of a displaced
     version have committed (a third update cannot begin before the
     second's owner finished), and stamps both commit timestamps. *)
  if lo = Timestamp.infinity || hi = Timestamp.infinity then
    invalid_arg "Vsorter.relocate: displaced version with uncommitted bounds";
  (* Pruning runs against the periodically refreshed zone snapshot
     (§3.3's accuracy/performance trade-off). Versions whose successor
     committed after the snapshot's C^T — rapid updates under skew —
     legitimately pass this first stage and die at the segment prune
     instead, exactly the Figure 15 breakdown. *)
  Metrics.bump "vsorter.relocations";
  if State.interval_dead st ~lo ~hi then begin
    State.audit_prune st ~now ~origin:`Prune1 ~lo ~hi;
    Prune_stats.note_prune1 st.State.stats cls;
    Metrics.bump "vsorter.prune1";
    Pruned_first cls
  end
  else begin
    let idx = Vclass.to_index cls in
    let seg =
      match st.State.open_segments.(idx) with
      | Some seg when Segment.fits seg ~bytes:version.Version.bytes -> seg
      | Some _ ->
          seal st ~cls ~now;
          let seg = State.fresh_segment st ~cls ~now in
          st.State.open_segments.(idx) <- Some seg;
          seg
      | None ->
          let seg = State.fresh_segment st ~cls ~now in
          st.State.open_segments.(idx) <- Some seg;
          seg
    in
    let chain = Llb.get_or_create st.State.llb ~rid:version.Version.rid in
    let node = Chain.push_newest chain ~prune_interval:(lo, hi) version ~seg_id:seg.Segment.id in
    Segment.add seg node;
    State.log_wal st ~now
      (Wal_record.Relocate
         {
           rid = version.Version.rid;
           vs;
           ve;
           vs_time = version.Version.vs_time;
           ve_time = version.Version.ve_time;
           bytes = version.Version.bytes;
           value = version.Version.payload;
           seg_id = seg.Segment.id;
           cls = Vclass.to_string cls;
           lo;
           hi;
         });
    Buffered cls
  end

let flush_all (st : State.t) ~now =
  List.iter (fun cls -> seal st ~cls ~now) Vclass.all;
  let swept = sweep st ~now in
  (* Harden whatever survived the final sweep. *)
  let flushed = ref 0 and stored = ref 0 in
  let rec drain () =
    match State.pop_oldest_sealed st with
    | Some seg ->
        stored := !stored + harden_segment st seg ~now;
        incr flushed;
        drain ()
    | None -> ()
  in
  drain ();
  {
    swept with
    segments_flushed = swept.segments_flushed + !flushed;
    versions_stored = swept.versions_stored + !stored;
  }
