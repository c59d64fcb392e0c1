(* Tests for the vdriver core: SIRO slots, the collaborative cleaning
   protocol (including a real multi-domain race), vSorter, vCutter and
   the Driver facade end-to-end against a live transaction manager. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Siro *)

let test_siro_first_updates () =
  let slot = Siro.create ~rid:7 ~bytes:100 ~payload:0 ~vs:1 ~vs_time:0 in
  check_bool "toggle initial" false (Siro.toggle slot);
  Siro.stamp slot ~tid:1 ~cts:3;
  (* First update: placeholder was empty, nothing relocates. *)
  let r1 = Siro.update slot ~vs:5 ~vs_time:1000 ~payload:50 ~bytes:100 in
  check_bool "no relocation" true (r1 = Siro.Kept);
  check_bool "toggled" true (Siro.toggle slot);
  check_int "current payload" 50 (Siro.current slot).Version.payload;
  (match Siro.previous slot with
  | Some p ->
      check_int "prev closed at 5" 5 p.Version.ve;
      check_int "prev payload" 0 p.Version.payload
  | None -> Alcotest.fail "placeholder must hold old version");
  Siro.stamp slot ~tid:5 ~cts:7;
  (* Second update displaces the in-row old version, with the commit
     interval its creator and its closer were stamped with. *)
  let r2 = Siro.update slot ~vs:9 ~vs_time:2000 ~payload:90 ~bytes:100 in
  match r2 with
  | Siro.Relocated { version = v; lo; hi } ->
      check_int "relocated vs" 1 v.Version.vs;
      check_int "relocated ve" 5 v.Version.ve;
      check_int "creator's stamp" 3 lo;
      check_int "closer's stamp" 7 hi
  | Siro.Kept -> Alcotest.fail "expected relocation"

let test_siro_same_txn_overwrite () =
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:1 ~vs_time:0 in
  ignore (Siro.update slot ~vs:5 ~vs_time:100 ~payload:1 ~bytes:100);
  let toggle_before = Siro.toggle slot in
  let r = Siro.update slot ~vs:5 ~vs_time:150 ~payload:2 ~bytes:100 in
  check_bool "in-place, nothing relocated" true (r = Siro.Kept);
  check_bool "toggle unchanged" true (Siro.toggle slot = toggle_before);
  check_int "final payload" 2 (Siro.current slot).Version.payload;
  (match Siro.previous slot with
  | Some p -> check_int "prev still the committed one" 0 p.Version.payload
  | None -> Alcotest.fail "placeholder lost");
  Alcotest.check_raises "older writer rejected"
    (Invalid_argument "Siro.update: non-monotone writer") (fun () ->
      ignore (Siro.update slot ~vs:3 ~vs_time:200 ~payload:9 ~bytes:100))

let test_siro_abort_toggles_back () =
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:10 ~vs:1 ~vs_time:0 in
  ignore (Siro.update slot ~vs:5 ~vs_time:100 ~payload:20 ~bytes:100);
  let toggle_after_commit_path = Siro.toggle slot in
  ignore (Siro.update slot ~vs:9 ~vs_time:200 ~payload:30 ~bytes:100);
  (* T9 aborts: v(5) must become current again, placeholder empty. *)
  Siro.abort_undo slot ~t_aborted:9;
  check_int "restored payload" 20 (Siro.current slot).Version.payload;
  check_int "visibility reopened" Timestamp.infinity (Siro.current slot).Version.ve;
  check_bool "placeholder empty" true (Siro.previous slot = None);
  check_bool "toggle flipped back" true (Siro.toggle slot = toggle_after_commit_path);
  (* Aborting a transaction that is not the current writer is a no-op. *)
  Siro.abort_undo slot ~t_aborted:999;
  check_int "still restored" 20 (Siro.current slot).Version.payload

let test_siro_read_inrow () =
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:10 ~vs:2 ~vs_time:0 in
  ignore (Siro.update slot ~vs:6 ~vs_time:100 ~payload:60 ~bytes:100);
  (* Reader that began at 4: sees creator 2 only -> in-row old version. *)
  let old_view = Read_view.make ~creator:4 ~actives:[] ~high:4 in
  (match Siro.read_inrow slot old_view with
  | Some v -> check_int "old version payload" 10 v.Version.payload
  | None -> Alcotest.fail "old in-row version expected");
  (* Reader that began at 8: sees creator 6 -> current. *)
  let new_view = Read_view.make ~creator:8 ~actives:[] ~high:8 in
  (match Siro.read_inrow slot new_view with
  | Some v -> check_int "current payload" 60 v.Version.payload
  | None -> Alcotest.fail "current version expected");
  (* Reader older than both in-row versions misses (goes off-row). *)
  let ancient_view = Read_view.make ~creator:1 ~actives:[] ~high:1 in
  check_bool "ancient reader misses in-row" true (Siro.read_inrow slot ancient_view = None);
  check_int "fixed footprint" 200 (Siro.inrow_bytes slot)

(* -------------------------------------------------------------------- *)
(* Collab protocol *)

let test_collab_sorter_wins_uncontended () =
  let c = Collab.create () in
  let deleted = ref 0 and inserted = ref 0 in
  let outcome =
    Collab.sorter c ~delete:(fun () -> incr deleted) ~insert:(fun () -> incr inserted)
  in
  check_bool "did both" true (outcome = `Did_both);
  check_int "deleted once" 1 !deleted;
  check_int "inserted once" 1 !inserted

let test_collab_cutter_wins_uncontended () =
  let c = Collab.create () in
  let deleted = ref 0 and fixed = ref 0 in
  let outcome = Collab.cutter c ~delete:(fun () -> incr deleted) ~fixup:(fun () -> incr fixed) in
  check_bool "won" true (outcome = `Won);
  check_int "deleted once" 1 !deleted;
  check_int "fixup ran" 1 !fixed

let test_collab_one_shot () =
  (* The episode is one-shot: once the sorter won and deleted the dead
     version, a late cutter must lose — otherwise the version would be
     deleted twice. *)
  let c = Collab.create () in
  let deleted = ref 0 in
  ignore (Collab.sorter c ~delete:(fun () -> incr deleted) ~insert:(fun () -> ()));
  let outcome = Collab.cutter c ~delete:(fun () -> incr deleted) ~fixup:(fun () -> ()) in
  check_bool "late cutter loses" true (outcome = `Lost);
  check_int "deleted exactly once" 1 !deleted;
  (* Symmetric: after a cutter win, a late sorter only inserts. *)
  let c2 = Collab.create () in
  let deleted2 = ref 0 and inserted2 = ref 0 in
  ignore (Collab.cutter c2 ~delete:(fun () -> incr deleted2) ~fixup:(fun () -> ()));
  let o2 = Collab.sorter c2 ~delete:(fun () -> incr deleted2) ~insert:(fun () -> incr inserted2) in
  check_bool "late sorter defers" true (o2 = `Inserted_after_cutter);
  check_int "deleted once by cutter" 1 !deleted2;
  check_int "insertion still applied" 1 !inserted2

let test_collab_domains_race () =
  (* Hammer the protocol with a real cutter domain racing a real sorter
     domain on many episodes. The invariant: per episode, the dead
     version is deleted exactly once, and the insertion happens exactly
     once, always after the deletion. *)
  let episodes = 500 in
  let violations = Atomic.make 0 in
  let sorter_waits = ref 0 in
  for _ = 1 to episodes do
    let c = Collab.create () in
    let deletes = Atomic.make 0 in
    let inserted_after_delete = Atomic.make false in
    let barrier = Atomic.make 0 in
    let spawn f =
      Domain.spawn (fun () ->
          Atomic.incr barrier;
          while Atomic.get barrier < 2 do
            Domain.cpu_relax ()
          done;
          f ())
    in
    let d1 =
      spawn (fun () ->
          ignore
            (Collab.sorter c
               ~delete:(fun () -> Atomic.incr deletes)
               ~insert:(fun () -> Atomic.set inserted_after_delete (Atomic.get deletes = 1))))
    in
    let d2 =
      spawn (fun () ->
          ignore
            (Collab.cutter c ~delete:(fun () -> Atomic.incr deletes) ~fixup:(fun () -> ())))
    in
    Domain.join d1;
    Domain.join d2;
    if Atomic.get deletes <> 1 || not (Atomic.get inserted_after_delete) then
      Atomic.incr violations;
    sorter_waits := !sorter_waits + Collab.races_lost_by_sorter c
  done;
  check_int "no invariant violations" 0 (Atomic.get violations)

(* -------------------------------------------------------------------- *)
(* Driver integration *)

(* A config with always-fresh zones and tiny segments so unit scenarios
   exercise sealing/hardening quickly. *)
let test_config ?(segment_bytes = 300) ?(vbuffer_bytes = 8 * 1024 * 1024)
    ?(delta_llt = Clock.ms 10) () =
  {
    State.default_config with
    State.segment_bytes;
    vbuffer_bytes;
    classifier = Classifier.create ~delta_hot:(Clock.ms 5) ~delta_llt ();
    zone_refresh_period = 0;
  }

(* Run one committed update against a SIRO slot, feeding any displaced
   version to the driver. Returns the updater's tid. *)
let committed_update mgr driver slot ~now ~payload =
  let t = Txn_manager.begin_txn mgr ~now in
  (match Siro.update slot ~vs:t.Txn.tid ~vs_time:now ~payload ~bytes:100 with
  | Siro.Relocated { version; lo; hi } -> ignore (Driver.relocate driver version ~lo ~hi ~now)
  | Siro.Kept -> ());
  Txn_manager.commit mgr t ~now:(now + Clock.us 20);
  Siro.stamp slot ~tid:t.Txn.tid ~cts:(Option.get t.Txn.commit_ts);
  t.Txn.tid

let test_driver_prunes_without_readers () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(test_config ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  for i = 1 to 20 do
    ignore (committed_update mgr driver slot ~now:(i * Clock.ms 1) ~payload:i)
  done;
  let stats = Driver.stats driver in
  (* No concurrent readers: every displaced version is dead on arrival
     (1st prune), so no space is consumed and no chain forms. *)
  check_int "19 relocations" 19 (Prune_stats.relocated stats);
  check_int "all pruned first" 19 (Prune_stats.prune1_total stats);
  check_int "nothing stored" 0 (Prune_stats.stored_total stats);
  check_int "no space" 0 (Driver.space_bytes driver);
  check_int "no chains" 0 (Driver.max_chain_length driver)

let test_driver_llt_pins_versions () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(test_config ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  (* u1 then the LLT begins, then updates continue past delta_llt. *)
  ignore (committed_update mgr driver slot ~now:(Clock.ms 1) ~payload:1);
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 2) in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 20) ~payload:2);
  ignore (committed_update mgr driver slot ~now:(Clock.ms 21) ~payload:3);
  (* The version pinned by the LLT (spanning its begin ts) relocated at
     ms 21, when the LLT was 19 ms old > delta_llt=10ms: classified
     VC_llt and kept. *)
  let stats = Driver.stats driver in
  check_int "one version kept for the LLT" 1 (Prune_stats.relocated stats - Prune_stats.prune1_total stats);
  check_bool "it sits in the LLT class buffer" true (Driver.space_bytes driver > 0);
  (* The LLT reads its snapshot through the driver. *)
  (match Driver.read driver llt.Txn.view ~rid:0 with
  | Some (v, Driver.From_vbuffer, _) -> check_int "payload of pinned version" 1 v.Version.payload
  | Some _ -> Alcotest.fail "expected vbuffer hit"
  | None -> Alcotest.fail "LLT snapshot must be reachable");
  (* Later relocations (not pinned) keep dying in the 1st prune even
     while the LLT lives — the paper's core claim. *)
  for i = 4 to 13 do
    ignore (committed_update mgr driver slot ~now:(Clock.ms (20 + i)) ~payload:i)
  done;
  let p1_before = Prune_stats.prune1_total stats in
  check_bool "pruning continued under LLT" true (p1_before >= 10);
  check_int "still just one survivor" 1
    (Prune_stats.relocated stats - Prune_stats.prune1_total stats);
  Txn_manager.commit mgr llt ~now:(Clock.ms 40)

let test_driver_vcutter_reclaims_after_llt () =
  let mgr = Txn_manager.create () in
  (* Segment of 300 bytes = 3 versions of 100; a tiny vBuffer budget so
     the sweep flushes sealed segments to the store immediately. *)
  let driver = Driver.create ~config:(test_config ~vbuffer_bytes:100 ()) mgr in
  let slots =
    Array.init 4 (fun rid -> Siro.create ~rid ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0)
  in
  (* Prime every record with one committed update, then start the LLT. *)
  Array.iteri
    (fun i _slot -> ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (1 + i)) ~payload:10))
    slots;
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 5) in
  (* Two updates per record after the LLT aged past delta_llt: the
     version spanning the LLT's begin relocates and is pinned. *)
  Array.iteri
    (fun i _slot ->
      ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (20 + i)) ~payload:20);
      ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (30 + i)) ~payload:30))
    slots;
  let stats = Driver.stats driver in
  check_int "four pinned versions" 4 (Prune_stats.relocated stats - Prune_stats.prune1_total stats);
  (* 3 of them filled a 300-byte LLT segment, which sealed; the sweep
     cannot drop it (pinned) and flushes it under memory pressure. *)
  let swept = Driver.sweep driver ~now:(Clock.ms 35) in
  check_int "nothing 2nd-pruned while pinned" 0 swept.Vsorter.versions_pruned;
  check_bool "one segment hardened under pressure" true
    (Version_store.hardened_count (Driver.store driver) >= 1);
  (* While the LLT lives, vCutter cannot cut the hardened LLT segment. *)
  let r = Driver.vcutter_step driver ~now:(Clock.ms 40) ~max_segments:10 in
  check_int "nothing cut under LLT" 0 r.Vcutter.segments_cut;
  (* LLT commits: the pinned versions die; the hardened segment's
     [vmin,vmax] now sits inside a dead zone. *)
  Txn_manager.commit mgr llt ~now:(Clock.ms 50);
  let r2 = Driver.vcutter_step driver ~now:(Clock.ms 60) ~max_segments:10 in
  check_bool "segment cut after LLT end" true (r2.Vcutter.segments_cut >= 1);
  check_bool "versions removed" true (r2.Vcutter.versions_cut >= 3);
  check_int "store emptied" 0 (Version_store.live_bytes (Driver.store driver));
  (* Cut delay was recorded for the LLT-class segment. *)
  (match Version_store.cut_delays (Driver.store driver) with
  | (cls, delay) :: _ ->
      check_bool "llt class" true (cls = Vclass.Llt);
      check_bool "positive delay" true (delay > 0)
  | [] -> Alcotest.fail "expected a recorded cut delay")

let test_driver_flush_all_settles_stats () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(test_config ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 1) ~payload:1);
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 2) in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 20) ~payload:2);
  ignore (committed_update mgr driver slot ~now:(Clock.ms 21) ~payload:3);
  let stats = Driver.stats driver in
  let before = Prune_stats.stored_total stats in
  check_int "pinned version still buffered" 0 before;
  let r = Driver.flush_all driver ~now:(Clock.ms 30) in
  check_int "one stored by flush" 1 r.Vsorter.versions_stored;
  check_int "stats settled" 1 (Prune_stats.stored_total stats);
  Txn_manager.commit mgr llt ~now:(Clock.ms 40)

let test_driver_crash_restart () =
  let mgr = Txn_manager.create () in
  let driver = Driver.create ~config:(test_config ()) mgr in
  let slot = Siro.create ~rid:0 ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0 in
  ignore (committed_update mgr driver slot ~now:(Clock.ms 1) ~payload:1);
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 2) in
  for i = 2 to 12 do
    ignore (committed_update mgr driver slot ~now:(Clock.ms (i * 10)) ~payload:i)
  done;
  check_bool "space consumed before crash" true (Driver.space_bytes driver > 0);
  Driver.crash_restart driver;
  check_int "space emptied" 0 (Driver.space_bytes driver);
  check_int "llb emptied" 0 (Driver.max_chain_length driver);
  check_bool "no visible off-row versions" true (Driver.read driver llt.Txn.view ~rid:0 = None);
  Txn_manager.commit mgr llt ~now:(Clock.seconds 1.)

let test_driver_read_sources () =
  let mgr = Txn_manager.create () in
  (* Cache of a single segment: reading two hardened segments alternately
     must produce I/O misses. *)
  let config =
    { (test_config ~segment_bytes:200 ()) with State.store_cache_segments = 1 }
  in
  let driver = Driver.create ~config mgr in
  let slots =
    Array.init 4 (fun rid -> Siro.create ~rid ~bytes:100 ~payload:0 ~vs:0 ~vs_time:0)
  in
  Array.iteri
    (fun i _slot -> ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (1 + i)) ~payload:10))
    slots;
  let llt = Txn_manager.begin_txn mgr ~now:(Clock.ms 5) in
  Array.iteri
    (fun i _slot ->
      ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (20 + i)) ~payload:20);
      ignore (committed_update mgr driver slots.(i) ~now:(Clock.ms (30 + i)) ~payload:30))
    slots;
  (* 4 pinned versions in 200-byte (2-version) segments; flush to
     harden the still-open second one. *)
  ignore (Driver.flush_all driver ~now:(Clock.ms 40));
  check_int "two segments hardened" 2 (Version_store.hardened_count (Driver.store driver));
  let read rid =
    match Driver.read driver llt.Txn.view ~rid with
    | Some (_, src, _) -> src
    | None -> Alcotest.fail "must be readable"
  in
  (* First touch of a hardened segment misses; re-touch hits; touching
     the other segment evicts (capacity 1). *)
  check_bool "first read IO" true (read 0 = Driver.From_store_io);
  check_bool "second read cached" true (read 1 = Driver.From_store_cached);
  check_bool "other segment IO" true (read 2 = Driver.From_store_io);
  check_bool "first evicted" true (read 0 = Driver.From_store_io);
  Txn_manager.commit mgr llt ~now:(Clock.ms 100)

let suites =
  [
    ( "core.siro",
      [
        Alcotest.test_case "update and relocation" `Quick test_siro_first_updates;
        Alcotest.test_case "same-txn overwrite" `Quick test_siro_same_txn_overwrite;
        Alcotest.test_case "abort toggles back" `Quick test_siro_abort_toggles_back;
        Alcotest.test_case "in-row reads" `Quick test_siro_read_inrow;
      ] );
    ( "core.collab",
      [
        Alcotest.test_case "sorter uncontended" `Quick test_collab_sorter_wins_uncontended;
        Alcotest.test_case "cutter uncontended" `Quick test_collab_cutter_wins_uncontended;
        Alcotest.test_case "one-shot episodes" `Quick test_collab_one_shot;
        Alcotest.test_case "multi-domain race" `Slow test_collab_domains_race;
      ] );
    ( "core.driver",
      [
        Alcotest.test_case "prunes without readers" `Quick test_driver_prunes_without_readers;
        Alcotest.test_case "LLT pins exactly its snapshot" `Quick test_driver_llt_pins_versions;
        Alcotest.test_case "vcutter reclaims after LLT" `Quick test_driver_vcutter_reclaims_after_llt;
        Alcotest.test_case "flush_all settles stats" `Quick test_driver_flush_all_settles_stats;
        Alcotest.test_case "crash restart empties" `Quick test_driver_crash_restart;
        Alcotest.test_case "read sources" `Quick test_driver_read_sources;
      ] );
  ]
