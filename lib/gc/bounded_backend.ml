(* BBF+-style bounded-space collection (Ben-David, Blelloch, Fatourou,
   Ruppert): the collector's contract is a worst-case bound K on the
   number of *reclaimable-but-resident* versions — versions whose valid
   interval is already dead but that still occupy the store — enforced
   at every collection step, not merely approached on average.

   Mapped onto the vDriver pipeline:

   - Buffer phase: whole-dead sealed segments are dropped, then every
     surviving sealed segment is hardened eagerly (bounded-space
     designs keep no aging buffer — another completeness concession to
     vCutter, which lets segments die in vBuffer).
   - Store phase: count the dead versions resident per hardened
     segment, then reclaim per-version oldest-first. The governor's
     per-rung budget paces the ordinary work, but once the budget is
     spent the collector *keeps going while more than K dead versions
     remain resident* — the bound outranks the budget, which is
     exactly the guarantee vCutter does not give (its budget-limited,
     whole-segment cuts can leave an unbounded dead residue in any one
     pass).
   - The post-step dead-resident count is recorded as a checkpoint
     (mirroring the governor's post-maintenance space checkpoint) and
     judged online: any checkpoint above K is a violation. The
     sabotage knob turns the collector into a token-effort one — one
     segment per pass, bound ignored — and the checkpoint catches it
     as soon as a death storm outruns that trickle. *)

type t = {
  st : State.t;
  sabotage : bool;
  max_dead : int; (* K: resident dead-version bound *)
  mutable post_step_dead : int;
  mutable peak_post_step_dead : int;
  mutable stepped : bool;
  mutable breaches : int;
}

let node_dead b (node : Chain.node) =
  State.interval_dead b.st ~lo:node.Chain.prune_lo ~hi:node.Chain.prune_hi

let dead_in_segment b seg =
  let n = ref 0 in
  Vec.iter
    (fun (node : Chain.node) -> if (not node.Chain.deleted) && node_dead b node then incr n)
    seg.Segment.nodes;
  !n

let step b ~now ~budget =
  let st = b.st in
  State.refresh_zones st ~now;
  (* Buffer phase: 2nd prune, then eager flush of every survivor. *)
  let dropped = ref 0 and pruned = ref 0 and flushed = ref 0 and stored = ref 0 in
  Vec.filter_in_place
    (fun seg ->
      let _, vmin, vmax = Segment.descriptor seg in
      if State.interval_dead st ~lo:vmin ~hi:vmax then begin
        let p = Vsorter.drop_dead_segment st seg ~now in
        incr dropped;
        pruned := !pruned + p;
        false
      end
      else true)
    st.State.sealed;
  let rec drain () =
    if not (Vec.is_empty st.State.sealed) then
      match Failpoint.check "vsorter.flush" with
      | `Fail -> ()
      | `Pass -> (
          match State.pop_oldest_sealed st with
          | Some seg ->
              let s = Vsorter.harden_segment st seg ~now in
              incr flushed;
              stored := !stored + s;
              drain ()
          | None -> ())
  in
  drain ();
  (match st.State.watchdog with Some w -> Watchdog.beat w "vsorter" ~now | None -> ());
  (* Store phase: census, then bound-enforced per-version reclaim. *)
  let all = ref [] and scanned = ref 0 in
  Version_store.iter_hardened st.State.store (fun seg ->
      incr scanned;
      all := seg :: !all);
  (* [!all] holds the segments newest-first; rev_map restores store
     (oldest-first) order, which is the reclaim priority. *)
  let census = List.rev_map (fun seg -> (seg, dead_in_segment b seg)) !all in
  let total_dead = List.fold_left (fun acc (_, d) -> acc + d) 0 census in
  let remaining = ref total_dead in
  let processed = ref 0 in
  let cut_segs = ref 0 and cut_vers = ref 0 and bytes = ref 0 in
  List.iter
    (fun (seg, dcount) ->
      if dcount > 0 then begin
        let within_budget = !processed < budget in
        let must_enforce = (not b.sabotage) && !remaining > b.max_dead in
        let token_spent = b.sabotage && !processed >= 1 in
        if (within_budget || must_enforce) && not token_spent then begin
          let v, by, cut = Vcutter.reclaim_segment st seg ~dead:(node_dead b) ~now in
          incr processed;
          remaining := !remaining - dcount;
          cut_vers := !cut_vers + v;
          bytes := !bytes + by;
          if cut then incr cut_segs
        end
      end)
    census;
  (match st.State.watchdog with Some w -> Watchdog.beat w "vcutter" ~now | None -> ());
  b.post_step_dead <- !remaining;
  b.stepped <- true;
  if !remaining > b.peak_post_step_dead then b.peak_post_step_dead <- !remaining;
  if !remaining > b.max_dead then b.breaches <- b.breaches + 1;
  {
    State.gs_segments_dropped = !dropped;
    gs_versions_pruned = !pruned;
    gs_segments_flushed = !flushed;
    gs_versions_stored = !stored;
    gs_segments_cut = !cut_segs;
    gs_versions_cut = !cut_vers;
    gs_bytes_reclaimed = !bytes;
    gs_segments_scanned = !scanned;
  }

let hook st ~sabotage ~max_dead =
  let b =
    {
      st;
      sabotage;
      max_dead = max 0 max_dead;
      post_step_dead = 0;
      peak_post_step_dead = 0;
      stepped = false;
      breaches = 0;
    }
  in
  {
    State.gh_name = "bounded";
    gh_id = 2;
    gh_step = (fun ~now ~budget -> step b ~now ~budget);
    gh_frontier = (fun () -> Zone_set.oldest_boundary st.State.zones);
    gh_check =
      (fun () ->
        if b.breaches > 0 then
          [
            Printf.sprintf
              "space bound: %d collection step(s) ended with more than %d dead versions \
               resident (last checkpoint: %d, peak: %d)"
              b.breaches b.max_dead b.post_step_dead b.peak_post_step_dead;
          ]
        else []);
    gh_gauges =
      (fun () ->
        [
          ("gc.bounded.bound", b.max_dead);
          ("gc.bounded.post_step_dead", b.post_step_dead);
          ("gc.bounded.peak_dead", b.peak_post_step_dead);
        ]);
  }
