type t = State.t

let create = State.create
let config (t : t) = t.State.config
let governor (t : t) = t.State.governor
let rung (t : t) = Governor.rung t.State.governor

(* ------------------------------------------------------------------ *)
(* Overload protection: the governor's ladder, observed on the relocate
   and maintenance paths, arms one mechanism per rung (see Governor). *)

let combine_sweeps (a : Vsorter.sweep_result) (b : Vsorter.sweep_result) =
  {
    Vsorter.segments_dropped = a.Vsorter.segments_dropped + b.Vsorter.segments_dropped;
    versions_pruned = a.Vsorter.versions_pruned + b.Vsorter.versions_pruned;
    segments_flushed = a.Vsorter.segments_flushed + b.Vsorter.segments_flushed;
    versions_stored = a.Vsorter.versions_stored + b.Vsorter.versions_stored;
  }

let combine_cuts (a : Vcutter.result) (b : Vcutter.result) =
  {
    Vcutter.segments_cut = a.Vcutter.segments_cut + b.Vcutter.segments_cut;
    versions_cut = a.Vcutter.versions_cut + b.Vcutter.versions_cut;
    bytes_reclaimed = a.Vcutter.bytes_reclaimed + b.Vcutter.bytes_reclaimed;
    segments_scanned = a.Vcutter.segments_scanned + b.Vcutter.segments_scanned;
  }

(* Snapshot-too-old: evict the oldest read views past the grace period,
   aborting their owners. Through the runner's hook when installed (the
   engine rolls back the victim's writes); directly in the transaction
   manager otherwise (safe for the read-only victims of the tests).
   Returns the number of victims actually killed. *)
let shed_victims (t : t) ~now =
  let g = t.State.governor in
  let cfg = Governor.config g in
  let candidates =
    Txn_manager.shed_candidates t.State.txns ~now ~min_age:cfg.Governor.shed_grace
  in
  let rec kill n = function
    | [] -> n
    | _ when n >= cfg.Governor.shed_batch -> n
    | (txn : Txn.t) :: rest ->
        let killed =
          match t.State.shed_hook with
          | Some hook -> hook ~tid:txn.Txn.tid ~now
          | None ->
              Txn_manager.abort t.State.txns txn ~now;
              true
        in
        kill (if killed then n + 1 else n) rest
  in
  let shed = kill 0 candidates in
  if shed > 0 then begin
    Governor.note_shed g shed;
    if Trace.on () then
      Trace.instant Trace.Governor "shed" ~at:now
        [ ("victims", Trace.I shed); ("candidates", Trace.I (List.length candidates)) ];
    (* The dead-zone boundary just collapsed: reclaim immediately. *)
    State.refresh_zones t ~now
  end;
  shed

(* One sweep + cut at the governor's current vCutter budget. An
   installed GC backend replaces the pair wholesale (same budget, same
   result shape); the default path is untouched so un-hooked runs stay
   bit-identical to the seed. *)
let maintain_pass (t : t) ~now =
  let budget = Governor.max_segments t.State.governor in
  match t.State.gc_backend with
  | None ->
      let swept = Vsorter.sweep t ~now in
      let cut = Vcutter.step t ~now ~max_segments:budget in
      (swept, cut)
  | Some h ->
      let s = h.State.gh_step ~now ~budget in
      ( {
          Vsorter.segments_dropped = s.State.gs_segments_dropped;
          versions_pruned = s.State.gs_versions_pruned;
          segments_flushed = s.State.gs_segments_flushed;
          versions_stored = s.State.gs_versions_stored;
        },
        {
          Vcutter.segments_cut = s.State.gs_segments_cut;
          versions_cut = s.State.gs_versions_cut;
          bytes_reclaimed = s.State.gs_bytes_reclaimed;
          segments_scanned = s.State.gs_segments_scanned;
        } )

(* Governed maintenance: sweep and cut, then — while the space reading
   keeps the ladder at Shedding (>= 90% of quota) or outright exceeds
   the hard quota — climb the ladder one observation at a time
   (adjacency) and let Shedding evict pins until either the space fits
   or nothing is left to shed. Shedding acts *before* the quota is
   breached: that is the point of the top rung. Rounds are bounded:
   each round either sheds at least one victim or advances the rung,
   and both are finite. *)
let maintain t ~now =
  let g = t.State.governor in
  let rounds_run = ref 1 in
  let acc = ref (maintain_pass t ~now) in
  if Governor.enabled g then begin
    let rec enforce rounds =
      let space = State.space_bytes t in
      let r = Governor.observe g ~now ~space_bytes:space in
      if rounds > 0 && (space > Governor.hard_quota g || r = Governor.Shedding) then begin
        let progress =
          if r = Governor.Shedding then shed_victims t ~now > 0
          else true (* climbing the ladder is progress; observe again *)
        in
        if progress then begin
          let swept, cut = maintain_pass t ~now in
          incr rounds_run;
          acc := (combine_sweeps (fst !acc) swept, combine_cuts (snd !acc) cut);
          enforce (rounds - 1)
        end
      end
    in
    enforce (4 + Txn_manager.live_count t.State.txns)
  end;
  (* The checkpoint is recorded whenever a quota is *configured*, not
     merely when the governor is willing to act on it: that is what
     lets the space invariant catch [quota_ignore_sabotage]. *)
  if (Governor.config g).Governor.hard_quota_bytes > 0 then begin
    let space = State.space_bytes t in
    Governor.note_headroom g ~now ~space_bytes:space;
    t.State.post_maintain_space <- Some (now, space)
  end;
  (match t.State.watchdog with
  | Some w -> Watchdog.beat w "governor" ~now
  | None -> ());
  Metrics.bump "driver.maintains";
  if Trace.on () then begin
    let swept, cut = !acc in
    Trace.span Trace.Governor "maintain" ~start:now ~dur:0
      [
        ("rung", Trace.S (Governor.rung_name (Governor.rung g)));
        ("rounds", Trace.I !rounds_run);
        ("versions_pruned", Trace.I swept.Vsorter.versions_pruned);
        ("versions_stored", Trace.I swept.Vsorter.versions_stored);
        ("segments_cut", Trace.I cut.Vcutter.segments_cut);
        ("space_bytes", Trace.I (State.space_bytes t));
      ]
  end;
  !acc

let relocate t version ~lo ~hi ~now =
  let outcome = Vsorter.relocate t version ~lo ~hi ~now in
  let g = t.State.governor in
  if Governor.enabled g then begin
    let r = Governor.observe g ~now ~space_bytes:(State.space_bytes t) in
    (* Emergency backpressure: the writer that displaced a version pays
       for cleaning synchronously, InnoDB sync-flush style. *)
    if r = Governor.Emergency || r = Governor.Shedding then begin
      Governor.note_assist g;
      ignore (maintain t ~now)
    end
  end;
  outcome

(* Zombie-pinning test for the watchdog's shed rung: is [tid] the pin
   on otherwise-dead versions? True when some sealed or hardened
   segment's descriptor interval is dead per Definition 3.3 over the
   live table with [tid] removed, but not with [tid] present. Pure: the
   zone snapshot and the store are read, never touched. *)
let pins_dead_interval (t : t) ~tid =
  let live = Txn_manager.live_begin_ts t.State.txns in
  let live_without = List.filter (fun b -> b <> tid) live in
  if List.length live_without = List.length live then false
  else begin
    let pins = ref false in
    let consider seg =
      if (not !pins) && Segment.live_count seg > 0 then begin
        let _, vmin, vmax = Segment.descriptor seg in
        if
          vmin < vmax
          && Prune.dead_spec ~live:live_without ~vs:vmin ~ve:vmax
          && not (Prune.dead_spec ~live ~vs:vmin ~ve:vmax)
        then pins := true
      end
    in
    Vec.iter consider t.State.sealed;
    Version_store.iter_hardened t.State.store consider;
    !pins
  end

type read_source = From_vbuffer | From_store_cached | From_store_io

let read (t : t) view ~rid =
  match Llb.find t.State.llb ~rid with
  | None -> None
  | Some chain -> (
      match Chain.find_visible chain view with
      | None -> None
      | Some (node, hops) -> (
          match State.find_segment t node.Chain.seg_id with
          | None -> None (* segment vanished under us: treat as miss *)
          | Some seg ->
              let source =
                match seg.Segment.state with
                | Segment.In_buffer -> From_vbuffer
                | Segment.Hardened -> (
                    match Buffer_pool.access t.State.store_cache ~block:seg.Segment.id with
                    | `Hit -> From_store_cached
                    | `Miss -> From_store_io)
                | Segment.Cut -> assert false (* cut nodes are deleted *)
              in
              Some (node.Chain.version, source, hops)))

let vcutter_step t ~now ~max_segments = Vcutter.step t ~now ~max_segments
let sweep t ~now = Vsorter.sweep t ~now
let flush_all t ~now = Vsorter.flush_all t ~now
let abort_cleanup (_ : t) = ()

let crash_restart (t : t) =
  (* Versions still buffered (open or sealed segments) die with the
     restart without ever being pruned or stored; account them so the
     Prune_stats conservation law survives the crash (§3.5). *)
  let buffered =
    Array.fold_left
      (fun acc -> function Some seg -> acc + Segment.live_count seg | None -> acc)
      0 t.State.open_segments
    + Vec.fold_left (fun acc seg -> acc + Segment.live_count seg) 0 t.State.sealed
  in
  Prune_stats.note_lost t.State.stats buffered;
  Llb.clear t.State.llb;
  Version_store.clear t.State.store;
  Buffer_pool.clear t.State.store_cache;
  Vec.iter (fun seg -> State.drop_segment t seg) t.State.sealed;
  Vec.clear t.State.sealed;
  Array.iteri
    (fun i seg_opt ->
      match seg_opt with
      | Some seg ->
          State.drop_segment t seg;
          t.State.open_segments.(i) <- None
      | None -> ())
    t.State.open_segments;
  Hashtbl.reset t.State.seg_index;
  (* The checkpoint predates the restart; a fresh one is recorded by the
     next governed maintenance pass. *)
  t.State.post_maintain_space <- None

let space_bytes = State.space_bytes
let max_chain_length (t : t) = Llb.max_live_chain t.State.llb

let gc_backend_name = State.gc_backend_name

let chain_length (t : t) ~rid =
  match Llb.find t.State.llb ~rid with Some c -> Chain.live_length c | None -> 0
let stats (t : t) = t.State.stats
let store (t : t) = t.State.store
