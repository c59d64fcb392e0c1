(* Second core-suite: the seal/sweep/flush pipeline, the ablation knobs,
   commit-interval translation plumbing, LLB and version-store
   accounting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config ?(segment_bytes = 300) ?(vbuffer_bytes = 8 * 1024 * 1024)
    ?(classification = `Three_way) ?(pruning = `Dead_zones) () =
  {
    State.default_config with
    State.segment_bytes;
    vbuffer_bytes;
    classification;
    pruning;
    classifier = Classifier.create ~delta_hot:(Clock.ms 5) ~delta_llt:(Clock.ms 10) ();
    zone_refresh_period = 0;
  }

let committed_update mgr driver slot ~now ~payload =
  let t = Txn_manager.begin_txn mgr ~now in
  (match Siro.update slot ~vs:t.Txn.tid ~vs_time:now ~payload ~bytes:100 with
  | Siro.Relocated { version; lo; hi } -> ignore (Driver.relocate driver version ~lo ~hi ~now)
  | Siro.Kept -> ());
  Txn_manager.commit mgr t ~now:(now + Clock.us 20);
  Siro.stamp slot ~tid:t.Txn.tid ~cts:(Option.get t.Txn.commit_ts);
  t.Txn.tid

(* Build a driver with an LLT pinning one version per record, plus one
   post-LLT dead version per record (it lived and died entirely after
   the LLT began — reclaimable by Theorem 3.5, pinned forever by the
   classic criterion). Per record, three relocations happen: the
   pre-LLT version (dead under both policies), the pinned one, and the
   post-LLT dead one. *)
let pinned_setup ?classification ?pruning ?vbuffer_bytes ?(records = 4) () =
  let mgr = Txn_manager.create () in
  let driver =
    Driver.create ~config:(config ?classification ?pruning ?vbuffer_bytes ()) mgr
  in
  let slots =
    Array.init records (fun rid -> Siro.create ~rid ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0)
  in
  Array.iteri
    (fun i slot -> ignore (committed_update mgr driver slot ~now:(Clock.ms (1 + i)) ~payload:1))
    slots;
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 5) in
  Array.iteri
    (fun i slot ->
      ignore (committed_update mgr driver slot ~now:(Clock.ms (20 + i)) ~payload:2);
      ignore (committed_update mgr driver slot ~now:(Clock.ms (30 + i)) ~payload:3);
      ignore (committed_update mgr driver slot ~now:(Clock.ms (40 + i)) ~payload:4))
    slots;
  (mgr, driver, llt)

(* -------------------------------------------------------------------- *)
(* Sweep pipeline *)

let test_sweep_drops_dead_sealed () =
  let mgr = Txn_manager.create () in
  (* Keep a reader alive so relocations survive the 1st prune and reach
     a segment; kill it before the sweep. *)
  let driver = Driver.create ~config:(config ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 1) ~payload:1);
  let reader = Txn_manager.begin_txn mgr ~now:(Clock.ms 2) in
  for i = 2 to 8 do
    ignore (committed_update mgr driver slot ~now:(Clock.ms (10 * i)) ~payload:i)
  done;
  check_bool "versions buffered while reader lives" true (Driver.space_bytes driver > 0);
  Txn_manager.commit mgr reader ~now:(Clock.ms 100);
  (* Seal the open segments so the sweep can examine them. *)
  let r = Driver.flush_all driver ~now:(Clock.ms 110) in
  check_bool "segments dropped wholesale" true (r.Vsorter.segments_dropped >= 1);
  check_bool "2nd prune counted" true (r.Vsorter.versions_pruned >= 1);
  check_int "nothing needed storage" 0 r.Vsorter.versions_stored;
  check_int "space reclaimed" 0 (Driver.space_bytes driver)

let test_sweep_flushes_on_pressure () =
  (* Four records pinned by a live LLT fill and seal a 300-byte
     segment; with a 100-byte budget the sweep cannot drop it (pinned)
     and must harden it. *)
  let _, driver, llt = pinned_setup ~vbuffer_bytes:100 () in
  let r = Driver.sweep driver ~now:(Clock.ms 60) in
  check_bool "flushed under pressure" true (r.Vsorter.segments_flushed >= 1);
  check_bool "stored counted" true (r.Vsorter.versions_stored >= 1);
  check_bool "store holds bytes" true (Version_store.live_bytes (Driver.store driver) > 0);
  check_bool "llt still live" true (Txn.is_active llt)

let test_sealed_segments_remain_readable () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(config ~segment_bytes:200 ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 1) ~payload:1);
  let reader = Txn_manager.begin_txn mgr ~now:(Clock.ms 2) in
  for i = 2 to 6 do
    ignore (committed_update mgr driver slot ~now:(Clock.ms (20 * i)) ~payload:i)
  done;
  (* The reader's snapshot (payload 1) relocated into a now-sealed
     segment; it must still be served from the version buffer. *)
  match Driver.read driver reader.Txn.view ~rid:0 with
  | Some (v, Driver.From_vbuffer, _) -> check_int "payload" 1 v.Version.payload
  | Some _ -> Alcotest.fail "expected vbuffer read"
  | None -> Alcotest.fail "snapshot must stay reachable"

(* -------------------------------------------------------------------- *)
(* Ablations *)

let test_ablation_single_class () =
  let _, driver, llt = pinned_setup ~classification:`Single_class () in
  let stats = Driver.stats driver in
  (* Everything goes to the HOT cluster, pinned versions included. *)
  check_int "no LLT-class versions" 0
    (Prune_stats.prune1 stats Vclass.Llt
    + Prune_stats.prune2 stats Vclass.Llt
    + Prune_stats.stored stats Vclass.Llt);
  check_bool "pinned versions buffered as HOT" true (Driver.space_bytes driver > 0);
  ignore llt

let test_ablation_oldest_active_suspends_pruning () =
  let _, driver, _llt = pinned_setup ~pruning:`Oldest_active () in
  let stats = Driver.stats driver in
  (* The classic criterion reclaims only below the LLT: the pre-LLT
     version of each record (4 total). Everything younger accumulates,
     dead or not. *)
  check_int "only pre-LLT versions pruned" 4 (Prune_stats.prune1_total stats);
  check_int "pinned AND dead-after-LLT both stuck" 8 (Prune_stats.in_flight stats)

let test_ablation_dead_zones_prune_past_llt () =
  let _, driver, _llt = pinned_setup () in
  let stats = Driver.stats driver in
  (* Theorem 3.5 also reclaims versions born and dead after the LLT
     began (the post-LLT dead one per record): only the pinned version
     of each record survives. *)
  check_int "one survivor per record" 4 (Prune_stats.in_flight stats);
  check_int "pre- and post-LLT versions pruned" 8 (Prune_stats.prune1_total stats)

(* -------------------------------------------------------------------- *)
(* Zone_set.oldest_boundary, commit_interval *)

let test_oldest_boundary () =
  check_int "with live txns" 3 (Zone_set.oldest_boundary (Zone_set.make ~live:[ 7; 3 ] ~now_ts:10));
  check_int "empty falls back to now" 10 (Zone_set.oldest_boundary (Zone_set.make ~live:[] ~now_ts:10))

let test_commit_interval () =
  let mgr = Txn_manager.create () in
  let log = Txn_manager.commit_log mgr in
  let a = Txn_manager.begin_txn mgr ~now:0 in
  let b = Txn_manager.begin_txn mgr ~now:1 in
  Txn_manager.commit mgr a ~now:2;
  (* Successor b still live: no interval. *)
  check_bool "uncommitted successor" true
    (Prune.commit_interval log ~vs:a.Txn.tid ~ve:b.Txn.tid = None);
  Txn_manager.commit mgr b ~now:3;
  (match Prune.commit_interval log ~vs:a.Txn.tid ~ve:b.Txn.tid with
  | Some (cs, ce) ->
      check_bool "commit-ordered" true (cs < ce);
      check_bool "cs is a's commit" true (cs = Option.get a.Txn.commit_ts)
  | None -> Alcotest.fail "both committed: interval expected");
  (* Initial-load pseudo transaction commits at 0. *)
  (match Prune.commit_interval log ~vs:0 ~ve:a.Txn.tid with
  | Some (cs, _) -> check_int "pseudo txn" 0 cs
  | None -> Alcotest.fail "initial version has an interval");
  (* Current records are never candidates. *)
  check_bool "infinity" true (Prune.commit_interval log ~vs:a.Txn.tid ~ve:Timestamp.infinity = None);
  (* Aborted successor yields no interval. *)
  let c = Txn_manager.begin_txn mgr ~now:4 in
  Txn_manager.abort mgr c ~now:5;
  check_bool "aborted successor" true
    (Prune.commit_interval log ~vs:a.Txn.tid ~ve:c.Txn.tid = None)

(* -------------------------------------------------------------------- *)
(* Llb / Version_store / Prune_stats bookkeeping *)

let test_llb_accounting () =
  let llb = Llb.create () in
  check_int "empty" 0 (Llb.chain_count llb);
  let c1 = Llb.get_or_create llb ~rid:1 in
  check_bool "idempotent" true (Llb.get_or_create llb ~rid:1 == c1);
  let v i = Version.make ~rid:1 ~vs:(10 * i) ~ve:(10 * (i + 1)) ~vs_time:0 ~ve_time:1 ~bytes:10 ~payload:i in
  ignore (Chain.push_newest c1 (v 1) ~seg_id:0);
  ignore (Chain.push_newest c1 (v 2) ~seg_id:0);
  let c2 = Llb.get_or_create llb ~rid:2 in
  ignore (Chain.push_newest c2 (Version.make ~rid:2 ~vs:5 ~ve:6 ~vs_time:0 ~ve_time:1 ~bytes:10 ~payload:0) ~seg_id:0);
  check_int "total live" 3 (Llb.total_live_versions llb);
  check_int "max chain" 2 (Llb.max_live_chain llb);
  check_int "histogram counts chains" 2 (Histogram.total (Llb.chain_length_histogram llb));
  Llb.clear llb;
  check_int "cleared" 0 (Llb.chain_count llb)

let test_version_store_accounting () =
  let store = Version_store.create () in
  let chain = Chain.create 0 in
  let mk id lo hi =
    let seg = Segment.create ~id ~cls:Vclass.Hot ~cap_bytes:1000 ~now:0 in
    let v = Version.make ~rid:0 ~vs:lo ~ve:hi ~vs_time:0 ~ve_time:1 ~bytes:100 ~payload:0 in
    Segment.add seg (Chain.push_newest chain v ~seg_id:id);
    seg
  in
  let s1 = mk 1 10 20 in
  let s2 = mk 2 20 30 in
  Version_store.harden store s1 ~now:(Clock.ms 1);
  Version_store.harden store s2 ~now:(Clock.ms 2);
  check_int "live bytes" 200 (Version_store.live_bytes store);
  check_int "resident" 2 (Version_store.resident_count store);
  Version_store.cut store s1 ~now:(Clock.ms 5);
  check_int "bytes after cut" 100 (Version_store.live_bytes store);
  check_int "one delay recorded" 1 (List.length (Version_store.cut_delays store));
  (match Version_store.cut_delays store with
  | [ (cls, d) ] ->
      check_bool "class" true (cls = Vclass.Hot);
      check_int "delay" (Clock.ms 4) d
  | _ -> Alcotest.fail "expected one delay");
  Version_store.clear store;
  check_int "cleared bytes" 0 (Version_store.live_bytes store);
  check_int "lifetime counters survive" 2 (Version_store.hardened_count store);
  let unhardened = mk 3 30 40 in
  Alcotest.check_raises "cut unhardened"
    (Invalid_argument "Version_store.cut: segment not hardened") (fun () ->
      Version_store.cut store unhardened ~now:(Clock.ms 9))

let test_prune_stats_reset () =
  let stats = Prune_stats.create () in
  Prune_stats.note_relocated stats;
  Prune_stats.note_prune1 stats Vclass.Hot;
  check_int "relocated" 1 (Prune_stats.relocated stats);
  check_int "in flight" 0 (Prune_stats.in_flight stats);
  Prune_stats.reset stats;
  check_int "reset" 0 (Prune_stats.relocated stats);
  check_bool "pp renders" true (String.length (Format.asprintf "%a" Prune_stats.pp stats) > 0)

let test_vclass_of_index_invalid () =
  Alcotest.check_raises "bad index" (Invalid_argument "Vclass.of_index") (fun () ->
      ignore (Vclass.of_index 3))

let suites =
  [
    ( "core.sweep",
      [
        Alcotest.test_case "drops dead sealed segments" `Quick test_sweep_drops_dead_sealed;
        Alcotest.test_case "flushes on memory pressure" `Quick test_sweep_flushes_on_pressure;
        Alcotest.test_case "sealed stays readable" `Quick test_sealed_segments_remain_readable;
      ] );
    ( "core.ablation",
      [
        Alcotest.test_case "single class" `Quick test_ablation_single_class;
        Alcotest.test_case "oldest-active suspends pruning" `Quick
          test_ablation_oldest_active_suspends_pruning;
        Alcotest.test_case "dead zones prune past LLT" `Quick
          test_ablation_dead_zones_prune_past_llt;
      ] );
    ( "core.translation",
      [
        Alcotest.test_case "oldest boundary" `Quick test_oldest_boundary;
        Alcotest.test_case "commit_interval" `Quick test_commit_interval;
      ] );
    ( "core.bookkeeping",
      [
        Alcotest.test_case "llb" `Quick test_llb_accounting;
        Alcotest.test_case "version store" `Quick test_version_store_accounting;
        Alcotest.test_case "prune stats" `Quick test_prune_stats_reset;
        Alcotest.test_case "vclass bounds" `Quick test_vclass_of_index_invalid;
      ] );
  ]
