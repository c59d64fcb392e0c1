type result = {
  segments_cut : int;
  versions_cut : int;
  bytes_reclaimed : int;
  segments_scanned : int;
}

(* The cutter runs the deletion itself: the collaborative protocol
   ({!Collab}) only decides who deletes when a vSorter insertion races
   for the same chain, and a simulated step has no such race. *)
let reclaim_segment (st : State.t) seg ~dead ~now =
  let versions = ref 0 and live = ref 0 in
  Vec.iter
    (fun node ->
      if node.Chain.deleted then ()
      else if dead node then begin
        (match Llb.find st.State.llb ~rid:node.Chain.version.Version.rid with
        | Some chain -> Chain.delete_node chain node
        | None -> assert false);
        State.audit_prune st ~now ~origin:`Cut ~lo:node.Chain.prune_lo ~hi:node.Chain.prune_hi;
        incr versions
      end
      else incr live)
    seg.Segment.nodes;
  if !live > 0 then (!versions, 0, false)
  else begin
    let bytes = seg.Segment.used_bytes in
    Version_store.cut st.State.store seg ~now;
    Buffer_pool.evict st.State.store_cache ~block:seg.Segment.id;
    State.drop_segment st seg;
    State.log_wal st ~now (Wal_record.Seg_cut { seg_id = seg.Segment.id });
    if Trace.on () then
      Trace.instant Trace.Vcutter "cut-segment" ~at:now
        [
          ("seg", Trace.I seg.Segment.id);
          ("class", Trace.S (Vclass.to_string seg.Segment.cls));
          ("versions", Trace.I !versions);
          ("bytes", Trace.I bytes);
        ];
    (!versions, bytes, true)
  end

let step (st : State.t) ~now ~max_segments =
  State.refresh_zones st ~now;
  let candidates = ref [] in
  let scanned = ref 0 in
  Version_store.iter_hardened st.State.store (fun seg ->
      incr scanned;
      let _, vmin, vmax = Segment.descriptor seg in
      if State.interval_dead st ~lo:vmin ~hi:vmax then candidates := seg :: !candidates);
  let candidates = List.rev !candidates in
  let rec cut_up_to acc n = function
    | [] -> acc
    | _ when n = 0 -> acc
    | seg :: rest ->
        let versions, bytes, _ = reclaim_segment st seg ~dead:(fun _ -> true) ~now in
        let acc =
          {
            acc with
            segments_cut = acc.segments_cut + 1;
            versions_cut = acc.versions_cut + versions;
            bytes_reclaimed = acc.bytes_reclaimed + bytes;
          }
        in
        cut_up_to acc (n - 1) rest
  in
  let r =
    cut_up_to
      { segments_cut = 0; versions_cut = 0; bytes_reclaimed = 0; segments_scanned = !scanned }
      max_segments candidates
  in
  (match st.State.watchdog with
  | Some w -> Watchdog.beat w "vcutter" ~now
  | None -> ());
  Metrics.bump_by "vcutter.segments_scanned" r.segments_scanned;
  Metrics.bump_by "vcutter.segments_cut" r.segments_cut;
  Metrics.bump_by "vcutter.versions_cut" r.versions_cut;
  Metrics.bump_by "vcutter.bytes_reclaimed" r.bytes_reclaimed;
  if Trace.on () then
    Trace.span Trace.Vcutter "cut-round" ~start:now ~dur:0
      [
        ("scanned", Trace.I r.segments_scanned);
        ("cut", Trace.I r.segments_cut);
        ("versions", Trace.I r.versions_cut);
        ("bytes_reclaimed", Trace.I r.bytes_reclaimed);
        ("budget", Trace.I max_segments);
      ];
  r
