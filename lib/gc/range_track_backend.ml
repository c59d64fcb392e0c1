(* Range-tracking GC, à la Wei & Fatourou: every retired version
   carries its valid interval [prune_lo, prune_hi]; the collector
   subtracts the live-snapshot set from the announced intervals and
   reclaims whatever no snapshot can still need — at *version*
   granularity, in the store, rather than vCutter's whole-segment cuts.

   Mapped onto the vDriver pipeline:

   - Announce pass: the oldest [scan_cap] (4) sealed segments are examined
     exactly once. A whole-dead one is dropped (the 2nd prune);
     survivors are hardened *immediately* — range tracking records the
     interval and moves on, it never ages segments in vBuffer the way
     vSorter's flush-on-pressure does. This is where the design loses
     prune completeness to vCutter (versions that would have died in
     the buffer get stored instead) and why the shootout's completeness
     column goes to the paper's design.
   - Store pass: up to [budget] hardened segments per step (rotating
     cursor), subtracting the live set per node; dead nodes are deleted
     and audited, and a segment whose last live node goes is cut
     (freeing its bytes), all through {!Vcutter.reclaim_segment}.

   Soundness is backend-relative only in mechanism, not in judge: the
   universal Definition-3.3 prune audit re-checks every deletion this
   backend makes. The sabotage knob models the classic announce-array
   off-by-one — the subtraction scan starts at slot 1 and never
   subtracts the *oldest* live reader — which over-reclaims precisely
   what that reader still needs, and the audit catches it. *)

type t = {
  st : State.t;
  sabotage : bool;
  mutable cursor : int;
  mutable store_reclaims : int; (* versions reclaimed by interval subtraction *)
}

(* Sealed segments the announce pass examines per step. *)
let scan_cap = 4

let node_dead b (node : Chain.node) =
  let lo = node.Chain.prune_lo and hi = node.Chain.prune_hi in
  if b.sabotage then
    match List.sort compare (Txn_manager.live_begin_ts b.st.State.txns) with
    | [] -> Prune.dead_spec ~live:[] ~vs:lo ~ve:hi
    | _oldest :: rest -> Prune.dead_spec ~live:rest ~vs:lo ~ve:hi
  else State.interval_dead b.st ~lo ~hi

let rotate k l =
  let n = List.length l in
  if n = 0 then []
  else
    let k = k mod n in
    let rec split i acc rest =
      if i = k then rest @ List.rev acc
      else
        match rest with
        | x :: tl -> split (i + 1) (x :: acc) tl
        | [] -> List.rev acc
    in
    split 0 [] l

let step b ~now ~budget =
  let st = b.st in
  State.refresh_zones st ~now;
  (* Announce pass over the oldest sealed segments. *)
  let dropped = ref 0 and pruned = ref 0 and flushed = ref 0 and stored = ref 0 in
  let examined = ref 0 and blocked = ref false in
  while (not !blocked) && !examined < scan_cap && not (Vec.is_empty st.State.sealed) do
    let seg = Vec.get st.State.sealed 0 in
    let _, vmin, vmax = Segment.descriptor seg in
    if State.interval_dead st ~lo:vmin ~hi:vmax then begin
      ignore (State.pop_oldest_sealed st);
      let p = Vsorter.drop_dead_segment st seg ~now in
      incr dropped;
      pruned := !pruned + p;
      incr examined
    end
    else begin
      (* The harden is a store write: the same fail-point as vSorter's
         flush models a rejected write, retried next pass. *)
      match Failpoint.check "vsorter.flush" with
      | `Fail -> blocked := true
      | `Pass ->
          ignore (State.pop_oldest_sealed st);
          let s = Vsorter.harden_segment st seg ~now in
          incr flushed;
          stored := !stored + s;
          incr examined
    end
  done;
  (* The buffer budget still binds when the announce cap lags a burst. *)
  let rec relieve () =
    if State.buffered_bytes st > st.State.config.State.vbuffer_bytes then
      match Failpoint.check "vsorter.flush" with
      | `Fail -> ()
      | `Pass -> (
          match State.pop_oldest_sealed st with
          | Some seg ->
              let s = Vsorter.harden_segment st seg ~now in
              incr flushed;
              stored := !stored + s;
              relieve ()
          | None -> ())
  in
  relieve ();
  (match st.State.watchdog with Some w -> Watchdog.beat w "vsorter" ~now | None -> ());
  (* Store pass: interval subtraction over up to [budget] hardened
     segments, rotating so every segment is reached within a bounded
     number of steps (the reclamation-lag bound depends on this). *)
  let all = ref [] and scanned = ref 0 in
  Version_store.iter_hardened st.State.store (fun seg ->
      incr scanned;
      all := seg :: !all);
  let ordered = rotate b.cursor (List.rev !all) in
  b.cursor <- b.cursor + 1;
  let cut_segs = ref 0 and cut_vers = ref 0 and bytes = ref 0 in
  let rec go n = function
    | [] -> ()
    | _ when n = 0 -> ()
    | seg :: rest ->
        let v, by, cut = Vcutter.reclaim_segment st seg ~dead:(node_dead b) ~now in
        b.store_reclaims <- b.store_reclaims + v;
        cut_vers := !cut_vers + v;
        bytes := !bytes + by;
        if cut then incr cut_segs;
        go (n - 1) rest
  in
  go budget ordered;
  (match st.State.watchdog with Some w -> Watchdog.beat w "vcutter" ~now | None -> ());
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

let hook st ~sabotage =
  let b = { st; sabotage; cursor = 0; store_reclaims = 0 } in
  {
    State.gh_name = "range";
    gh_id = 1;
    gh_step = (fun ~now ~budget -> step b ~now ~budget);
    gh_frontier = (fun () -> Zone_set.oldest_boundary st.State.zones);
    (* Soundness is judged by the universal prune audit; the backend
       adds no second oracle of its own. *)
    gh_check = (fun () -> []);
    gh_gauges = (fun () -> [ ("gc.range.store_reclaims", b.store_reclaims) ]);
  }
