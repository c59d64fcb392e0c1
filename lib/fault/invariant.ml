type violation = { invariant : string; detail : string }

let record report ~at vs =
  List.iter (fun { invariant; detail } -> Fault_report.record report ~at ~invariant ~detail) vs

let v invariant fmt = Format.kasprintf (fun detail -> { invariant; detail }) fmt

(* ------------------------------------------------------------------ *)
(* Chain shape and reachability *)

let check_chain (st : State.t) chain =
  let rid = Chain.rid chain in
  let shape =
    match Chain.check_invariants chain with
    | Ok () -> []
    | Error msg -> [ v "chain-shape" "%s" msg ]
  in
  (* Every live node must point at a segment that still exists and has
     not been cut: a cut segment's versions were deleted from their
     chains, so a live node referencing one is a dangling locator. *)
  let dangling = ref [] in
  let rec walk = function
    | None -> ()
    | Some node ->
        if not node.Chain.deleted then begin
          match State.find_segment st node.Chain.seg_id with
          | None ->
              dangling :=
                v "chain-reachability" "chain r%d: live node points at dropped segment %d" rid
                  node.Chain.seg_id
                :: !dangling
          | Some seg ->
              if seg.Segment.state = Segment.Cut then
                dangling :=
                  v "chain-reachability" "chain r%d: live node points at cut segment %d" rid
                    node.Chain.seg_id
                  :: !dangling
        end;
        walk node.Chain.older
  in
  walk (Chain.head chain);
  shape @ List.rev !dangling

let check_chains (d : Driver.t) =
  let st : State.t = d in
  let per_rid = ref [] in
  Llb.iter st.State.llb (fun chain -> per_rid := (Chain.rid chain, check_chain st chain) :: !per_rid);
  List.concat_map snd (List.sort (fun (a, _) (b, _) -> compare a b) !per_rid)

(* ------------------------------------------------------------------ *)
(* Prune_stats conservation *)

let buffered_live (st : State.t) =
  Array.fold_left
    (fun acc -> function Some seg -> acc + Segment.live_count seg | None -> acc)
    0 st.State.open_segments
  + Vec.fold_left (fun acc seg -> acc + Segment.live_count seg) 0 st.State.sealed

let check_stats (d : Driver.t) =
  let st : State.t = d in
  let stats = st.State.stats in
  let in_flight = Prune_stats.in_flight stats in
  let buffered = buffered_live st in
  let acc = ref [] in
  if in_flight < 0 then
    acc :=
      v "stats-conservation" "in_flight negative: relocated=%d prune1=%d prune2=%d stored=%d lost=%d"
        (Prune_stats.relocated stats) (Prune_stats.prune1_total stats)
        (Prune_stats.prune2_total stats) (Prune_stats.stored_total stats)
        (Prune_stats.lost stats)
      :: !acc;
  if in_flight <> buffered then
    acc :=
      v "stats-conservation"
        "buckets do not sum to relocated: in_flight=%d but %d versions buffered \
         (relocated=%d prune1=%d prune2=%d stored=%d lost=%d)"
        in_flight buffered (Prune_stats.relocated stats) (Prune_stats.prune1_total stats)
        (Prune_stats.prune2_total stats) (Prune_stats.stored_total stats)
        (Prune_stats.lost stats)
      :: !acc;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Version store accounting *)

let check_store (d : Driver.t) =
  let st : State.t = d in
  let store = st.State.store in
  let acc = ref [] in
  let hardened = ref 0 in
  let bytes = ref 0 in
  Version_store.iter_hardened store (fun seg ->
      incr hardened;
      bytes := !bytes + seg.Segment.used_bytes;
      match State.find_segment st seg.Segment.id with
      | Some s when s == seg -> ()
      | Some _ ->
          acc := v "store-accounting" "segment %d indexed to a different segment" seg.Segment.id :: !acc
      | None ->
          acc := v "store-accounting" "hardened segment %d missing from index" seg.Segment.id :: !acc);
  if !bytes <> Version_store.live_bytes store then
    acc :=
      v "store-accounting" "live_bytes=%d but hardened segments hold %d"
        (Version_store.live_bytes store) !bytes
      :: !acc;
  let open_count =
    Array.fold_left
      (fun n -> function Some _ -> n + 1 | None -> n)
      0 st.State.open_segments
  in
  let indexed = Hashtbl.length st.State.seg_index in
  let expected = open_count + Vec.length st.State.sealed + !hardened in
  if indexed <> expected then
    acc :=
      v "store-accounting" "segment index holds %d entries, expected %d (%d open + %d sealed + %d hardened)"
        indexed expected open_count (Vec.length st.State.sealed) !hardened
      :: !acc;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Governor: space envelope and ladder honesty.

   Both checks read the governor's *configured* quota, never its
   willingness to act on it — that is what lets a campaign under
   [quota_ignore_sabotage] catch the breach the sabotaged governor
   ignores, exactly as the prune-soundness audit catches a widened
   zone. *)

let check_governor (d : Driver.t) =
  let st : State.t = d in
  let g = st.State.governor in
  let quota = (Governor.config g).Governor.hard_quota_bytes in
  if quota <= 0 then []
  else begin
    let acc = ref [] in
    (match st.State.post_maintain_space with
    | Some (at, space) when space > quota ->
        acc :=
          v "space-quota" "post-maintenance space %d B exceeds the %d B hard quota (at %s)"
            space quota
            (Format.asprintf "%a" Clock.pp at)
          :: !acc
    | _ -> ());
    List.iter (fun msg -> acc := v "governor-ladder" "%s" msg :: !acc) (Governor.check_ladder g);
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* Liveness: watchdog ladder honesty, no-false-kill, reclamation lag *)

let check_watchdog (d : Driver.t) =
  let st : State.t = d in
  match st.State.watchdog with
  | None -> []
  | Some w -> List.map (fun msg -> v "watchdog-ladder" "%s" msg) (Watchdog.check_ladder w)

(* ------------------------------------------------------------------ *)
(* Pluggable GC backends: each installed backend carries its own
   online invariant (vCutter: cut completeness within budget; BBF+:
   the resident dead-version bound) behind [gh_check]. Prune soundness
   needs no per-backend check — the universal audit re-judges every
   deletion any backend makes. Empty when no backend is installed. *)

let check_gc (d : Driver.t) =
  let st : State.t = d in
  match st.State.gc_backend with
  | None -> []
  | Some h ->
      List.map
        (fun msg -> v "gc-backend" "%s: %s" h.State.gh_name msg)
        (h.State.gh_check ())

let check_no_false_kill lease =
  List.filter_map
    (fun (c : Lease.cancel) ->
      if c.Lease.c_idle <= c.Lease.c_lease then
        Some
          (v "no-false-kill"
             "t%d was cancelled after only %s idle, within its %s lease — it had made progress"
             c.Lease.c_tid
             (Format.asprintf "%a" Clock.pp c.Lease.c_idle)
             (Format.asprintf "%a" Clock.pp c.Lease.c_lease))
      else None)
    (Lease.cancels lease)

(* Bounded reclamation lag: every version interval observed dead at
   time [t] must be reclaimed by [t + bound]. Deadness is monotone —
   the live table's begin timestamps only disappear (commit, abort,
   shed), never reappear, so once [Zone_set.covers] accepts a segment's
   descriptor interval it accepts it forever. That makes the
   first-observed-dead clock sound: the segment was dead continuously
   since then, and still being resident past the bound is a genuine
   liveness failure, not a flicker. *)
type lag_monitor = {
  lm_driver : Driver.t;
  lm_bound : Clock.time;
  lm_first_dead : (int, Clock.time) Hashtbl.t; (* seg id -> first seen dead *)
  mutable lm_max_lag : Clock.time; (* largest dead-resident lag observed *)
  lm_hist : Histogram.t; (* reclaim lag in µs, one sample per segment *)
}

let lag_monitor d ~bound =
  if bound <= 0 then invalid_arg "Invariant.lag_monitor: bound must be positive";
  {
    lm_driver = d;
    lm_bound = bound;
    lm_first_dead = Hashtbl.create 64;
    lm_max_lag = 0;
    lm_hist = Histogram.create ~bucket_width:50 ();
  }

let max_lag m = m.lm_max_lag
let lag_histogram m = m.lm_hist

let check_lag m ~now =
  let st : State.t = m.lm_driver in
  (* Judge against the live table as it is right now, not the driver's
     (possibly stale, conservative) zone snapshot: the bound already
     budgets for the refresh period. *)
  let zones = Zone_set.of_txn_manager st.State.txns in
  let present = Hashtbl.create 64 in
  let consider seg =
    if Segment.live_count seg > 0 then begin
      let _, vmin, vmax = Segment.descriptor seg in
      if vmin < vmax && Zone_set.covers zones ~lo:vmin ~hi:vmax then
        Hashtbl.replace present seg.Segment.id ()
    end
  in
  Vec.iter consider st.State.sealed;
  Version_store.iter_hardened st.State.store consider;
  Hashtbl.iter
    (fun id () ->
      if not (Hashtbl.mem m.lm_first_dead id) then Hashtbl.replace m.lm_first_dead id now)
    present;
  let overdue = ref [] and reclaimed = ref [] in
  Hashtbl.iter
    (fun id t0 ->
      let lag = now - t0 in
      if Hashtbl.mem present id then begin
        if lag > m.lm_max_lag then m.lm_max_lag <- lag;
        if lag > m.lm_bound then overdue := (id, lag) :: !overdue
      end
      else
        (* Reclaimed since the previous poll; [lag] over-counts by at
           most one check period, which the bound's headroom absorbs. *)
        reclaimed := (id, lag) :: !reclaimed)
    m.lm_first_dead;
  List.iter
    (fun (id, lag) ->
      Histogram.add m.lm_hist (lag / 1000);
      if lag > m.lm_max_lag then m.lm_max_lag <- lag;
      Hashtbl.remove m.lm_first_dead id)
    !reclaimed;
  List.map
    (fun (id, lag) ->
      v "reclamation-lag" "segment %d has been dead and unreclaimed for %s, bound is %s" id
        (Format.asprintf "%a" Clock.pp lag)
        (Format.asprintf "%a" Clock.pp m.lm_bound))
    (List.sort compare !overdue)

(* Settle the clocks at end of run: every segment still on a clock is
   scored with its final residence lag so the histogram and max cover
   the tail, without raising (the run is over; overdue segments were
   already reported by the periodic sweep). *)
let finish_lag m ~now =
  Hashtbl.iter
    (fun _ t0 ->
      let lag = now - t0 in
      if lag > m.lm_max_lag then m.lm_max_lag <- lag;
      Histogram.add m.lm_hist (lag / 1000))
    m.lm_first_dead;
  Hashtbl.reset m.lm_first_dead

(* ------------------------------------------------------------------ *)
(* Commit-log freeze horizon *)

(* Re-derived from the live set, not from the manager's own horizon
   computation: a transaction that finished at or after the oldest live
   begin was live when some live transaction began, so it sits in that
   transaction's view (actives sorted: the first is the oldest). Below
   the horizon the log would answer "committed before every live
   snapshot" for it, which is false. The next tid the oracle hands out
   and the registered floors bound it too. *)
let check_clog_horizon (d : Driver.t) =
  let st : State.t = d in
  let mgr = st.State.txns in
  let h = Commit_log.horizon (Txn_manager.commit_log mgr) in
  let acc = ref [] in
  List.iter
    (fun (view : Read_view.t) ->
      if view.Read_view.creator < h then
        acc := v "clog-horizon" "live t%d is below the commit-log horizon %d" view.creator h :: !acc
      else if Array.length view.Read_view.actives > 0 && view.Read_view.actives.(0) < h then
        acc :=
          v "clog-horizon"
            "t%d finished after live t%d began but is below the commit-log horizon %d"
            view.Read_view.actives.(0) view.Read_view.creator h
          :: !acc)
    (Txn_manager.live_views mgr);
  (* The next begin is a live tid too. *)
  let next = Txn_manager.oracle mgr in
  if next < h then
    acc := v "clog-horizon" "the next tid t%d is below the commit-log horizon %d" next h :: !acc;
  let floor = Txn_manager.floor mgr in
  if floor < h then
    acc :=
      v "clog-horizon" "registered floor t%d is below the commit-log horizon %d" floor h :: !acc;
  List.rev !acc

let check_all d =
  check_chains d @ check_stats d @ check_store d @ check_governor d @ check_watchdog d
  @ check_gc d @ check_clog_horizon d

(* ------------------------------------------------------------------ *)
(* §3.5 post-crash emptiness *)

let check_post_crash (d : Driver.t) =
  let st : State.t = d in
  let acc = ref [] in
  let expect_zero what n = if n <> 0 then acc := v "post-crash" "%s nonempty: %d" what n :: !acc in
  expect_zero "LLB" (Llb.chain_count st.State.llb);
  expect_zero "vBuffer" (State.buffered_bytes st);
  expect_zero "version store" (Version_store.live_bytes st.State.store);
  expect_zero "resident hardened segments" (Version_store.resident_count st.State.store);
  expect_zero "store cache" (Buffer_pool.resident st.State.store_cache);
  expect_zero "segment index" (Hashtbl.length st.State.seg_index);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Post-recovery durability: the recovered engine against the honest
   log oracle.

   The oracle re-analyzes the WAL with CRC checking unconditionally on
   — never the engine's [recovery_skip_tail_check] knob — so a restart
   that replayed a torn tail diverges from the oracle and is caught
   here. The comparison is one-directional (oracle subset of engine)
   for the commit log: the recovered engine legitimately remembers
   outcomes older than the bounded window the end-of-restart checkpoint
   snapshots. The negative checks close the gap: no oracle loser or
   aborted transaction may be committed, and no committed timestamp may
   sit at or above the oracle's frontier (which is what catches a
   fabricated commit record). *)

let check_post_recovery (d : Driver.t) =
  let st : State.t = d in
  match st.State.wal with
  | None -> []
  | Some wal when not (Wal.is_durable wal) -> []
  | Some wal ->
      let analysis = Wal_recovery.analyze ~check_crc:true wal in
      (* The oracle resolves in-doubt 2PC transactions the same honest
         way the engine must: by looking the decision up in the
         coordinator shard's durable log. The resolver itself always
         CRC-verifies, so a sabotaged local replay still gets judged
         against the honest resolution. *)
      let exp = Wal_recovery.expect ?resolve:st.State.indoubt_resolver analysis in
      let clog = Txn_manager.commit_log st.State.txns in
      let acc = ref [] in
      let add x = acc := x :: !acc in
      (* A recycled log still holds, intact and trustworthy, the
         checkpoint its crash base names: with the prefix gone, that
         checkpoint is the oldest base image any recovery can anchor
         at — including one after a crash that cuts every newer one. *)
      (if Wal.discarded wal > 0 then
         let base = Wal.crash_base wal in
         let intact =
           base <= analysis.Wal_recovery.truncate_lsn
           &&
           match Wal.frames_from wal ~lsn:(base - 1) with
           | (lsn, repr) :: _ when lsn = base -> (
               match Wal_record.decode repr with
               | Ok { Wal_record.payload = Wal_record.Ckpt_end { snapshot = Some _ }; _ } -> true
               | Ok _ | Error _ -> false)
           | _ -> false
         in
         if not intact then
           add
             (v "recovery-base"
                "%d frames discarded, but the log no longer holds the checkpoint at its crash \
                 base (LSN %d) to recover from"
                (Wal.discarded wal) base));
      (* Committed effects are durable. *)
      List.iter
        (fun (tid, cts) ->
          match Commit_log.status clog tid with
          | Some (Commit_log.Committed_at c) when c = cts -> ()
          | Some (Commit_log.Committed_at c) ->
              add
                (v "recovery-durability" "t%d recovered with commit ts %d, log says %d" tid c
                   cts)
          | Some (Commit_log.Aborted_at _) ->
              add (v "recovery-durability" "t%d committed durably but recovered as aborted" tid)
          | None ->
              add (v "recovery-durability" "t%d committed durably but the engine forgot it" tid))
        exp.Wal_recovery.committed;
      (* No resurrection: losers and aborted transactions stay dead. *)
      List.iter
        (fun (tid, _) ->
          if Commit_log.is_committed clog tid then
            add (v "recovery-atomicity" "t%d aborted durably but recovered as committed" tid))
        exp.Wal_recovery.aborted;
      List.iter
        (fun tid ->
          if Commit_log.is_committed clog tid then
            add
              (v "recovery-atomicity"
                 "t%d had no durable outcome (loser) but recovered as committed" tid))
        exp.Wal_recovery.losers;
      (* No phantom: a committed timestamp the trustworthy log never
         handed out means a fabricated record was replayed. With a
         shared manager the commit log is global, so one shard's
         frontier cannot judge it — the group-level check
         (check_cross_shard_atomicity) applies the max frontier across
         shards instead. *)
      if not st.State.shared_mgr then
        List.iter
          (fun (tid, status) ->
            match status with
            | Commit_log.Committed_at _ when tid >= exp.Wal_recovery.oracle_floor ->
                add
                  (v "recovery-phantom"
                     "t%d is committed in the engine but at/above the log's timestamp frontier %d"
                     tid exp.Wal_recovery.oracle_floor)
            | _ -> ())
          (Commit_log.entries clog);
      (* The recovered in-row image matches the durable one exactly. *)
      (match st.State.inrow_probe with
      | None -> ()
      | Some probe ->
          let image = probe () in
          let by_rid = Hashtbl.create (List.length image) in
          List.iter (fun (rid, value, vs) -> Hashtbl.replace by_rid rid (value, vs)) image;
          List.iter
            (fun (r : Checkpoint.row) ->
              match Hashtbl.find_opt by_rid r.Checkpoint.rid with
              | None ->
                  add (v "recovery-inrow" "r%d has no in-row slot after recovery" r.Checkpoint.rid)
              | Some (value, vs) ->
                  if value <> r.Checkpoint.value || vs <> r.Checkpoint.vs then
                    add
                      (v "recovery-inrow"
                         "r%d recovered as (value=%d, vs=%d) but the log says (value=%d, vs=%d)"
                         r.Checkpoint.rid value vs r.Checkpoint.value r.Checkpoint.vs))
            exp.Wal_recovery.rows);
      (* Surviving segments are back with identity, class, lifecycle
         state and contents; dropped or cut segments stay dead. *)
      List.iter
        (fun (b : Wal_recovery.seg_build) ->
          if b.Wal_recovery.versions <> [] then
            match State.find_segment st b.Wal_recovery.seg_id with
            | None ->
                add
                  (v "recovery-segments" "segment %d survived in the log but was not rebuilt"
                     b.Wal_recovery.seg_id)
            | Some seg ->
                if Vclass.to_string seg.Segment.cls <> b.Wal_recovery.cls then
                  add
                    (v "recovery-segments" "segment %d rebuilt in class %s, log says %s"
                       b.Wal_recovery.seg_id
                       (Vclass.to_string seg.Segment.cls)
                       b.Wal_recovery.cls);
                let hardened = seg.Segment.state = Segment.Hardened in
                if hardened <> b.Wal_recovery.hardened then
                  add
                    (v "recovery-segments" "segment %d rebuilt %s, log says %s"
                       b.Wal_recovery.seg_id
                       (if hardened then "hardened" else "buffered")
                       (if b.Wal_recovery.hardened then "hardened" else "buffered"));
                let live = Segment.live_count seg in
                let logged = List.length b.Wal_recovery.versions in
                if live <> logged then
                  add
                    (v "recovery-segments" "segment %d rebuilt with %d live versions, log says %d"
                       b.Wal_recovery.seg_id live logged))
        exp.Wal_recovery.segments;
      List.iter
        (fun seg_id ->
          match State.find_segment st seg_id with
          | Some seg when seg.Segment.state <> Segment.Cut ->
              add
                (v "recovery-segments"
                   "segment %d was durably dropped/cut but resurrected by recovery" seg_id)
          | _ -> ())
        exp.Wal_recovery.dead_segs;
      (* Frontier and accounting conservativeness. *)
      if Txn_manager.oracle st.State.txns < exp.Wal_recovery.oracle_floor then
        add
          (v "recovery-frontier" "timestamp oracle resumed at %d, below the log frontier %d"
             (Txn_manager.oracle st.State.txns)
             exp.Wal_recovery.oracle_floor);
      if st.State.next_seg_id < exp.Wal_recovery.next_seg_id then
        add
          (v "recovery-frontier" "segment allocator resumed at %d, below the log frontier %d"
             st.State.next_seg_id exp.Wal_recovery.next_seg_id);
      if Wal.records wal < analysis.Wal_recovery.survivors then
        add
          (v "recovery-accounting" "WAL records counter %d below %d surviving frames"
             (Wal.records wal) analysis.Wal_recovery.survivors);
      List.rev !acc @ check_chains d @ check_stats d @ check_store d

(* ------------------------------------------------------------------ *)
(* Continuous prune-soundness audit *)

let origin_name = function `Prune1 -> "1st-prune" | `Prune2 -> "2nd-prune" | `Cut -> "cut"

let install_prune_audit (d : Driver.t) ~on_violation =
  let st : State.t = d in
  let mgr = st.State.txns in
  st.State.prune_audit <-
    Some
      (fun ~now ~origin ~lo ~hi ->
        if lo >= hi then
          on_violation ~now
            (v "prune-soundness" "%s discarded malformed interval (%d, %d)" (origin_name origin)
               lo hi)
        else begin
          (* Definition 3.3 against the live table as it is right now —
             not the driver's zone snapshot. Staleness of the snapshot
             is conservative, so any disagreement is a real unsound
             discard. *)
          let live = Txn_manager.live_begin_ts mgr in
          if not (Prune.dead_spec ~live ~vs:lo ~ve:hi) then
            on_violation ~now
              (v "prune-soundness"
                 "%s discarded a version visible to a live transaction: interval (%d, %d), live inside: %s"
                 (origin_name origin) lo hi
                 (String.concat ","
                    (List.filter_map
                       (fun tb -> if lo < tb && tb < hi then Some (string_of_int tb) else None)
                       live)))
        end);
  (* The commit log's horizon, judged at every move — before anything
     can read a page it dropped too early. *)
  Txn_manager.set_horizon_audit mgr
    (Some (fun ~now -> List.iter (on_violation ~now) (check_clog_horizon d)))

let remove_prune_audit (d : Driver.t) =
  let st : State.t = d in
  st.State.prune_audit <- None;
  Txn_manager.set_horizon_audit st.State.txns None

(* ------------------------------------------------------------------ *)
(* Cross-shard 2PC atomicity *)

let analyze_shard_logs ?cursors wals =
  List.sort (fun (a, _) (b, _) -> compare a b) wals
  |> List.map (fun (sid, wal) ->
         ( sid,
           match cursors with
           | Some cs -> Wal_recovery.advance cs.(sid) wal
           | None -> Wal_recovery.analyze ~check_crc:true wal ))

let check_analysis_cursors ~cursors ?analyses wals =
  let fresh = match analyses with Some a -> a | None -> analyze_shard_logs wals in
  List.map2
    (fun (sid, (a : Wal_recovery.analysis)) (_, (c : Wal_recovery.analysis)) ->
      if a = c then []
      else
        [
          v "analysis-cursor"
            "shard %d: the incremental analysis differs from the from-scratch one (survivors %d vs %d, truncated at %d vs %d, dropped %d vs %d, %d vs %d records after the anchor)"
            sid c.survivors a.survivors c.truncate_lsn a.truncate_lsn c.dropped a.dropped
            (List.length c.records) (List.length a.records);
        ])
    fresh
    (analyze_shard_logs ~cursors wals)
  |> List.concat

(* Every shard's durable decision table ({!Wal_recovery.decisions}),
   as the in-doubt lookup a recovering participant uses. *)
let decision_lookup analyses =
  let tables = List.map (fun (sid, a) -> (sid, Wal_recovery.decisions a)) analyses in
  fun ~tid ~coord ->
    match List.assoc_opt coord tables with
    | Some table -> Hashtbl.find_opt table tid
    | None -> None

let check_cross_shard_atomicity ?clog ?analyses wals =
  (* Honest analysis of every shard's log, with in-doubt transactions
     resolved exactly the way a recovering participant must: a durable
     Coord_commit anywhere in the coordinator's trustworthy prefix (or
     its checkpoint's decision window) means commit; silence means
     presumed abort. A periodic sweep that runs several log-level
     checks should analyze once ({!analyze_shard_logs}, through its
     cursors) and share. *)
  let analyses =
    match analyses with Some a -> a | None -> analyze_shard_logs wals
  in
  let resolve = decision_lookup analyses in
  let exps =
    List.map (fun (sid, a) -> (sid, a, Wal_recovery.expect ~resolve:(fun () -> resolve) a)) analyses
  in
  let acc = ref [] in
  let add x = acc := x :: !acc in
  (* Resolved per-shard outcomes, keyed by transaction. *)
  let outcomes : (int, (int * [ `C of int | `A | `L ]) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let note tid o =
    match Hashtbl.find_opt outcomes tid with
    | Some l -> l := o :: !l
    | None -> Hashtbl.replace outcomes tid (ref [ o ])
  in
  List.iter
    (fun (sid, _, (e : Wal_recovery.expectation)) ->
      List.iter (fun (tid, cts) -> note tid (sid, `C cts)) e.Wal_recovery.committed;
      List.iter (fun (tid, _) -> note tid (sid, `A)) e.Wal_recovery.aborted;
      List.iter (fun tid -> note tid (sid, `L)) e.Wal_recovery.losers)
    exps;
  (* The headline invariant: no transaction commits on one shard and
     aborts (or stays a rolled-back loser) on another. *)
  Hashtbl.fold (fun tid l acc -> (tid, !l) :: acc) outcomes []
  |> List.sort compare
  |> List.iter (fun (tid, l) ->
         let commits = List.filter_map (function s, `C c -> Some (s, c) | _ -> None) l in
         let aborts = List.filter_map (function s, `A -> Some s | _ -> None) l in
         let losers = List.filter_map (function s, `L -> Some s | _ -> None) l in
         (match (commits, aborts @ losers) with
         | (cs, cts) :: _, d :: _ ->
             add
               (v "cross-shard-atomicity"
                  "t%d committed on shard %d (cts %d) but aborted/lost on shard %d" tid cs cts
                  d)
         | _ -> ());
         match commits with
         | (s0, c0) :: rest ->
             List.iter
               (fun (s, c) ->
                 if c <> c0 then
                   add
                     (v "cross-shard-atomicity"
                        "t%d committed with cts %d on shard %d but cts %d on shard %d" tid c0
                        s0 c s))
               rest
         | [] -> ());
  (* Protocol honesty: a participant may only apply a commit for a
     prepared transaction if the coordinator's decision is durable.
     This is what the skip-coordinator-decision sabotage violates, and
     it holds at every instant of the honest protocol (the decision is
     forced before any participant applies), so it needs no lucky crash
     timing to fire. *)
  List.iter
    (fun (sid, (a : Wal_recovery.analysis), _) ->
      let check tid coord =
        if resolve ~tid ~coord = None then
          add
            (v "2pc-decision-missing"
               "shard %d applied a commit for prepared t%d with no durable decision at coordinator shard %d"
               sid tid coord)
      in
      List.iter (fun (tid, coord) -> check tid coord) (List.rev a.Wal_recovery.prepared_commits);
      (* The last checkpoint's in-doubt set vouches for a prepare whose
         own record is missing, for the commits after it. *)
      match a.Wal_recovery.checkpoint with
      | Some (ck_lsn, ck) when ck.Checkpoint.prepared <> [] ->
          List.iter
            (fun (r : Wal_record.t) ->
              match r.Wal_record.payload with
              | Wal_record.Txn_commit { tid; _ } when r.Wal_record.lsn > ck_lsn -> (
                  match List.assoc_opt tid ck.Checkpoint.prepared with
                  | Some coord when not (List.mem_assoc tid a.Wal_recovery.prepares) ->
                      check tid coord
                  | _ -> ())
              | _ -> ())
            a.Wal_recovery.records
      | _ -> ())
    exps;
  (* Group-level recovery-phantom check (the shared-manager form of the
     per-shard frontier check): immediately after a group restart, no
     committed timestamp may sit at or above the max durable frontier. *)
  (match clog with
  | None -> ()
  | Some clog ->
      let max_floor =
        List.fold_left
          (fun m (_, _, (e : Wal_recovery.expectation)) ->
            max m e.Wal_recovery.oracle_floor)
          0 exps
      in
      List.iter
        (fun (tid, status) ->
          match status with
          | Commit_log.Committed_at _ when tid >= max_floor ->
              add
                (v "recovery-phantom"
                   "t%d is committed in the engine but at/above every shard's durable frontier %d"
                   tid max_floor)
          | _ -> ())
        (Commit_log.entries clog));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Replicated shards: zero committed loss *)

let check_no_committed_loss ?analyses ~acked wals =
  (* The contract of a quorum-acknowledged commit: once the client was
     told "committed", every node-kill/failover schedule must leave the
     transaction committed on every participant's surviving log. The
     audit is log-only and honest — the same analysis a recovering
     shard runs, with in-doubt entries resolved against the durable
     decision table — checked against the client-visible acked ledger.
     An ack the logs cannot justify is a loss, whether it came from an
     ack-before-replicate lie or from a fenced stale primary's
     fabricated ledger entries. *)
  let analyses =
    match analyses with Some a -> a | None -> analyze_shard_logs wals
  in
  (* Re-anchor each log at its last checkpoint NOT written by a
     failover restart (the analysis' steady checkpoint). A promotion's
     recovery checkpoint snapshots the global oracle frontier an
     instant after the device was adopted — taken at face value it
     would instantly archive (and so hide) exactly the commits a
     dishonest replication path can lose. Anchoring before the
     [Promote] frame replays the adopted suffix instead, so an acked
     commit missing from that suffix stays demandable until the next
     ordinary checkpoint absorbs the epoch — and the sweep grid visits
     that checkpoint's instant first. *)
  let anchored =
    List.map
      (fun (sid, (a : Wal_recovery.analysis)) ->
        (sid, { a with Wal_recovery.checkpoint = a.Wal_recovery.steady_checkpoint }))
      analyses
  in
  let resolve = decision_lookup analyses in
  let committed_on : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  (* Per-log answerability horizon: the fuzzy checkpoint keeps only a
     bounded commit-log window, so outcomes whose commit timestamp
     predates the snapshot's oracle frontier may legitimately be
     archived out of the analysis. A commit timestamp at or above the
     frontier was drawn after the snapshot was captured, so its frame
     is strictly after the checkpoint record and must survive in the
     log — those are the entries the oracle is entitled to demand. *)
  let horizon : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (sid, (a : Wal_recovery.analysis)) ->
      let e = Wal_recovery.expect ~resolve:(fun () -> resolve) a in
      let tbl = Hashtbl.create 256 in
      List.iter (fun (tid, _) -> Hashtbl.replace tbl tid ()) e.Wal_recovery.committed;
      List.iter
        (fun (tid, _) -> Hashtbl.replace tbl tid ())
        e.Wal_recovery.resolved_commits;
      Hashtbl.replace committed_on sid tbl;
      Hashtbl.replace horizon sid
        (match a.Wal_recovery.checkpoint with
        | Some (_, ck) -> ck.Checkpoint.oracle_next
        | None -> 0))
    anchored;
  let acc = ref [] in
  List.iter
    (fun (tid, cts, parts) ->
      List.iter
        (fun sid ->
          match Hashtbl.find_opt committed_on sid with
          | None ->
              acc :=
                v "no-committed-loss"
                  "t%d was acknowledged on shard %d but no such shard log exists" tid sid
                :: !acc
          | Some tbl ->
              let h = Option.value ~default:0 (Hashtbl.find_opt horizon sid) in
              if cts >= h && not (Hashtbl.mem tbl tid) then
                acc :=
                  v "no-committed-loss"
                    "t%d (cts=%d) was acknowledged to the client with participant shard %d, but the surviving logs do not commit it there"
                    tid cts sid
                  :: !acc)
        parts)
    (List.sort compare acked);
  List.rev !acc
