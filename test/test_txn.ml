(* Tests for repro_txn: read views, commit log, transaction manager. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Read_view *)

let view ~creator ~actives ~high = Read_view.make ~creator ~actives ~high

let test_view_committed_before () =
  (* View of T10: actives {4, 7} at its begin; high = 10. *)
  let v = view ~creator:10 ~actives:[ 7; 4 ] ~high:10 in
  check_bool "old committed" true (Read_view.committed_before v 2);
  check_bool "active not committed" false (Read_view.committed_before v 4);
  check_bool "active not committed" false (Read_view.committed_before v 7);
  check_bool "future not committed" false (Read_view.committed_before v 11);
  check_bool "own writes visible" true (Read_view.committed_before v 10);
  check_bool "infinity never committed" false (Read_view.committed_before v Timestamp.infinity)

let test_view_snapshot_read () =
  let v = view ~creator:10 ~actives:[ 7 ] ~high:10 in
  (* Version (2, 5): both creators committed before T10 -> superseded. *)
  check_bool "superseded" false (Read_view.snapshot_read v ~vs:2 ~ve:5);
  (* Version (5, 7): successor's creator was active -> snapshot read. *)
  check_bool "successor uncommitted" true (Read_view.snapshot_read v ~vs:5 ~ve:7);
  (* Version (5, 12): successor began after the view -> snapshot read. *)
  check_bool "successor future" true (Read_view.snapshot_read v ~vs:5 ~ve:12);
  (* Version (7, 12): creator was active -> not visible. *)
  check_bool "creator active" false (Read_view.snapshot_read v ~vs:7 ~ve:12);
  (* Current record by an old committed creator. *)
  check_bool "current record" true (Read_view.snapshot_read v ~vs:5 ~ve:Timestamp.infinity)

let test_view_own_update () =
  (* Definition 3.1's "except what T_k updates": T10's own version is
     its snapshot read, and the version it superseded is not. *)
  let v = view ~creator:10 ~actives:[] ~high:10 in
  check_bool "own version read" true (Read_view.snapshot_read v ~vs:10 ~ve:Timestamp.infinity);
  check_bool "superseded by own write" false (Read_view.snapshot_read v ~vs:5 ~ve:10)

let test_view_invalid () =
  Alcotest.check_raises "active >= high" (Invalid_argument "Read_view.make: active ts >= high")
    (fun () -> ignore (view ~creator:10 ~actives:[ 11 ] ~high:10));
  Alcotest.check_raises "creator active"
    (Invalid_argument "Read_view.make: creator listed active") (fun () ->
      ignore (view ~creator:5 ~actives:[ 5 ] ~high:10))

let test_view_horizon () =
  let v = view ~creator:10 ~actives:[ 3; 8 ] ~high:10 in
  check_int "horizon is min active" 3 (Read_view.oldest_visible_horizon v);
  let v' = view ~creator:10 ~actives:[] ~high:10 in
  check_int "horizon is creator when alone" 10 (Read_view.oldest_visible_horizon v')

(* -------------------------------------------------------------------- *)
(* Commit_log *)

let test_commit_log () =
  let log = Commit_log.create () in
  Commit_log.record log ~tid:3 (Commit_log.Committed_at 9);
  Commit_log.record log ~tid:5 (Commit_log.Aborted_at 11);
  check_bool "committed" true (Commit_log.is_committed log 3);
  check_bool "aborted not committed" false (Commit_log.is_committed log 5);
  check_bool "unknown not committed" false (Commit_log.is_committed log 42);
  check_int "finished" 2 (Commit_log.finished log);
  Alcotest.check_raises "duplicate" (Invalid_argument "Commit_log.record: duplicate status")
    (fun () -> Commit_log.record log ~tid:3 (Commit_log.Committed_at 12))

(* -------------------------------------------------------------------- *)
(* Txn_manager *)

let test_mgr_begin_commit () =
  let mgr = Txn_manager.create () in
  let t1 = Txn_manager.begin_txn mgr ~now:0 in
  let t2 = Txn_manager.begin_txn mgr ~now:10 in
  check_bool "distinct tids" true (t1.Txn.tid <> t2.Txn.tid);
  check_int "two live" 2 (Txn_manager.live_count mgr);
  check_bool "sorted live ts" true (Txn_manager.live_begin_ts mgr = [ t1.Txn.tid; t2.Txn.tid ]);
  Txn_manager.commit mgr t1 ~now:20;
  check_int "one live" 1 (Txn_manager.live_count mgr);
  check_bool "committed state" true (t1.Txn.state = Txn.Committed);
  check_bool "commit ts assigned" true (t1.Txn.commit_ts <> None);
  check_bool "logged" true (Commit_log.is_committed (Txn_manager.commit_log mgr) t1.Txn.tid)

let test_mgr_view_sees_earlier_commit () =
  let mgr = Txn_manager.create () in
  let t1 = Txn_manager.begin_txn mgr ~now:0 in
  Txn_manager.commit mgr t1 ~now:1;
  let t2 = Txn_manager.begin_txn mgr ~now:2 in
  check_bool "t2 sees t1" true (Read_view.committed_before t2.Txn.view t1.Txn.tid);
  let t3 = Txn_manager.begin_txn mgr ~now:3 in
  check_bool "t3 does not see live t2" false (Read_view.committed_before t3.Txn.view t2.Txn.tid)

let test_mgr_abort () =
  let mgr = Txn_manager.create () in
  let t = Txn_manager.begin_txn mgr ~now:0 in
  Txn_manager.abort mgr t ~now:5;
  check_bool "aborted" true (t.Txn.state = Txn.Aborted);
  check_int "none live" 0 (Txn_manager.live_count mgr);
  check_int "counted" 1 (Txn_manager.aborted mgr);
  Alcotest.check_raises "double finish"
    (Invalid_argument "Txn_manager: transaction not active") (fun () ->
      Txn_manager.commit mgr t ~now:6)

let test_mgr_oldest_horizon () =
  let mgr = Txn_manager.create () in
  check_bool "no live" true (Txn_manager.oldest_active mgr = None);
  check_int "horizon = oracle when empty" (Txn_manager.oracle mgr)
    (Txn_manager.oldest_visible_horizon mgr);
  let t1 = Txn_manager.begin_txn mgr ~now:0 in
  let _t2 = Txn_manager.begin_txn mgr ~now:1 in
  check_bool "oldest is t1" true (Txn_manager.oldest_active mgr = Some t1.Txn.tid);
  check_int "horizon at t1" t1.Txn.tid (Txn_manager.oldest_visible_horizon mgr)

let test_mgr_llt_views () =
  let mgr = Txn_manager.create () in
  let old_txn = Txn_manager.begin_txn mgr ~now:0 in
  let _young = Txn_manager.begin_txn mgr ~now:(Clock.ms 900) in
  let llts = Txn_manager.llt_views mgr ~now:(Clock.ms 1000) ~delta_llt:(Clock.ms 500) in
  check_int "only the old txn is an LLT" 1 (List.length llts);
  check_bool "it is old_txn's view" true
    ((List.hd llts).Read_view.creator = old_txn.Txn.tid)

let test_mgr_avg_duration () =
  let mgr = Txn_manager.create () in
  check_int "zero before commits" 0 (Txn_manager.avg_txn_duration mgr);
  let t = Txn_manager.begin_txn mgr ~now:0 in
  Txn_manager.commit mgr t ~now:(Clock.us 100);
  check_int "first commit sets avg" (Clock.us 100) (Txn_manager.avg_txn_duration mgr);
  let t2 = Txn_manager.begin_txn mgr ~now:0 in
  Txn_manager.commit mgr t2 ~now:(Clock.us 200);
  let avg = Txn_manager.avg_txn_duration mgr in
  check_bool "EWMA between samples" true (avg > Clock.us 100 && avg < Clock.us 200)

(* -------------------------------------------------------------------- *)
(* Properties *)

(* Generate a history: n transactions begin in order; a random subset is
   still live. *)
let history_gen =
  QCheck.Gen.(
    let* n = 2 -- 40 in
    let* live_mask = list_repeat n bool in
    return (n, live_mask))

let qcheck_view_consistency =
  QCheck.Test.make ~name:"manager views agree with live table" ~count:200
    (QCheck.make history_gen) (fun (n, live_mask) ->
      let mgr = Txn_manager.create () in
      let txns = List.init n (fun i -> Txn_manager.begin_txn mgr ~now:i) in
      List.iteri
        (fun i txn -> if not (List.nth live_mask i) then Txn_manager.commit mgr txn ~now:(n + i))
        txns;
      let live = Txn_manager.live_begin_ts mgr in
      let expected =
        List.filteri (fun i _ -> List.nth live_mask i) txns
        |> List.map (fun (t : Txn.t) -> t.Txn.tid)
      in
      live = expected)

let qcheck_snapshot_read_unique =
  (* For any view and any record's version list (contiguous intervals),
     exactly one version is the snapshot read if the creator of the
     oldest version is visible. *)
  QCheck.Test.make ~name:"at most one snapshot read per record" ~count:300
    QCheck.(pair (int_bound 30) (int_bound 30))
    (fun (k, m) ->
      let mgr = Txn_manager.create () in
      (* Create m committed writer txns to build a version history. *)
      let writers = List.init (max 1 m) (fun i -> Txn_manager.begin_txn mgr ~now:i) in
      List.iteri (fun i w -> Txn_manager.commit mgr w ~now:(100 + i)) writers;
      let reader = Txn_manager.begin_txn mgr ~now:200 in
      ignore k;
      let ts = List.map (fun (w : Txn.t) -> w.Txn.tid) writers in
      let bounds = ts @ [ Timestamp.infinity ] in
      let rec intervals = function
        | a :: (b :: _ as rest) -> (a, b) :: intervals rest
        | [ _ ] | [] -> []
      in
      let vs_ve = intervals bounds in
      let hits =
        List.filter (fun (vs, ve) -> Read_view.snapshot_read reader.Txn.view ~vs ~ve) vs_ve
      in
      List.length hits = 1)

(* -------------------------------------------------------------------- *)
(* Array structures against the references they replaced *)

module Ref = Ref_bookkeeping

type clog_op =
  | Record of Timestamp.t * Commit_log.status
  | Override of Timestamp.t * Commit_log.status
  | Reset

let clog_tid_gen =
  QCheck.Gen.(frequency [ (10, 0 -- 64); (2, 0 -- 5000); (1, int_range (-3) (-1)) ])

let clog_op_gen =
  QCheck.Gen.(
    let status =
      let* ts = 0 -- 1_000_000 in
      oneofl [ Commit_log.Committed_at ts; Commit_log.Aborted_at ts ]
    in
    frequency
      [
        (10, map2 (fun tid st -> Record (tid, st)) clog_tid_gen status);
        (2, map2 (fun tid st -> Override (tid, st)) clog_tid_gen status);
        (1, return Reset);
      ])

let print_status = function
  | Commit_log.Committed_at ts -> Printf.sprintf "C%d" ts
  | Commit_log.Aborted_at ts -> Printf.sprintf "A%d" ts

let print_clog_op = function
  | Record (tid, st) -> Printf.sprintf "record %d %s" tid (print_status st)
  | Override (tid, st) -> Printf.sprintf "override %d %s" tid (print_status st)
  | Reset -> "reset"

let outcome f = match f () with () -> Ok () | exception Invalid_argument m -> Error m

(* Every lookup agrees with the dense log the pages replaced, probing
   past the end and at [Timestamp.infinity] reads [None] without
   allocating a page, and a negative tid is rejected. *)
let qcheck_commit_log_matches_reference =
  QCheck.Test.make ~name:"commit log = dense reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_clog_op ops))
       QCheck.Gen.(list_size (0 -- 120) clog_op_gen))
    (fun ops ->
      let log = Commit_log.create () and r = Ref.Commit_log.create () in
      let agrees tid =
        Commit_log.status log tid = Ref.Commit_log.status r tid
        && Commit_log.mem log tid = (Ref.Commit_log.status r tid <> None)
        && Commit_log.is_committed log tid = (Ref.Commit_log.commit_ts_of r tid <> None)
        && Commit_log.commit_ts_of log tid = Ref.Commit_log.commit_ts_of r tid
        && Commit_log.commit_ts log tid
           = Option.value ~default:Timestamp.infinity (Ref.Commit_log.commit_ts_of r tid)
      in
      List.for_all
        (fun op ->
          let same_step =
            match op with
            | Record (tid, st) when tid < 0 ->
                outcome (fun () -> Commit_log.record log ~tid st) = Error "Commit_log: negative tid"
            | Override (tid, st) when tid < 0 ->
                outcome (fun () -> Commit_log.override log ~tid st)
                = Error "Commit_log: negative tid"
            | Record (tid, st) ->
                outcome (fun () -> Commit_log.record log ~tid st)
                = outcome (fun () -> Ref.Commit_log.record r ~tid st)
            | Override (tid, st) ->
                Commit_log.override log ~tid st;
                Ref.Commit_log.override r ~tid st;
                true
            | Reset ->
                Commit_log.reset log;
                Ref.Commit_log.reset r;
                true
          in
          let words = Obj.reachable_words (Obj.repr log) in
          same_step
          && Commit_log.finished log = Ref.Commit_log.finished r
          && Commit_log.entries log = Ref.Commit_log.entries r
          && List.for_all agrees (Timestamp.infinity :: -1 :: 100_000 :: List.init 70 Fun.id)
          && Obj.reachable_words (Obj.repr log) = words)
        ops)

(* The checkpoint window: the range fold from any floor — negative, past
   the end, [Timestamp.infinity] — against the reference's entries. *)
let qcheck_commit_log_window =
  QCheck.Test.make ~name:"window fold = filtered entries" ~count:300
    (QCheck.make
       ~print:(fun (ops, floors) ->
         String.concat "; " (List.map print_clog_op ops)
         ^ " / floors " ^ String.concat "," (List.map string_of_int floors))
       QCheck.Gen.(pair (list_size (0 -- 120) clog_op_gen) (list_size (1 -- 6) clog_tid_gen)))
    (fun (ops, floors) ->
      let log = Commit_log.create () and r = Ref.Commit_log.create () in
      List.for_all
        (fun op ->
          (match op with
          | Record (tid, st) when tid >= 0 && Ref.Commit_log.status r tid = None ->
              Commit_log.record log ~tid st;
              Ref.Commit_log.record r ~tid st
          | Override (tid, st) when tid >= 0 ->
              Commit_log.override log ~tid st;
              Ref.Commit_log.override r ~tid st
          | Reset ->
              Commit_log.reset log;
              Ref.Commit_log.reset r
          | Record _ | Override _ -> ());
          List.for_all
            (fun floor ->
              Commit_log.fold_from log ~floor (fun tid st acc -> (tid, st) :: acc) [] |> List.rev
              = List.filter (fun (tid, _) -> tid >= floor) (Ref.Commit_log.entries r))
            (Timestamp.infinity :: min_int :: floors))
        ops)

type live_op = Begin | Commit of int | Abort of int | Reset_live

let live_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Begin);
        (3, map (fun i -> Commit i) (0 -- 50));
        (2, map (fun i -> Abort i) (0 -- 50));
        (1, return Reset_live);
      ])

let print_live_op = function
  | Begin -> "begin"
  | Commit i -> Printf.sprintf "commit #%d" i
  | Abort i -> Printf.sprintf "abort #%d" i
  | Reset_live -> "reset"

(* The sorted live array against the hashtable it replaced: each new
   view equals [Read_view.make] over the fold+sort live list, and every
   reading of the live set agrees after every step. Commits and aborts
   pick among all handles still active, including ones a reset orphaned. *)
let qcheck_live_set_matches_reference =
  QCheck.Test.make ~name:"live set = fold+sort reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_live_op ops))
       QCheck.Gen.(list_size (0 -- 150) live_op_gen))
    (fun ops ->
      let mgr = Txn_manager.create () and r = Ref.Live.create () in
      let handles = ref [] and now = ref 0 in
      let pick i =
        match List.filter Txn.is_active !handles with
        | [] -> None
        | active -> Some (List.nth active (i mod List.length active))
      in
      List.for_all
        (fun op ->
          now := !now + 7;
          let now = !now in
          let same_step =
            match op with
            | Begin ->
                let actives = Ref.Live.begin_ts r in
                let txn = Txn_manager.begin_txn mgr ~now in
                Ref.Live.add r txn;
                handles := txn :: !handles;
                txn.Txn.view = Read_view.make ~creator:txn.Txn.tid ~actives ~high:txn.Txn.tid
            | Commit i | Abort i -> (
                match pick i with
                | None -> true
                | Some txn ->
                    (match op with
                    | Commit _ -> Txn_manager.commit mgr txn ~now
                    | _ -> Txn_manager.abort mgr txn ~now);
                    Ref.Live.remove r txn;
                    true)
            | Reset_live ->
                Txn_manager.reset_for_recovery mgr;
                Ref.Live.reset r;
                true
          in
          let age = now / 3 in
          same_step
          && Txn_manager.live_count mgr = List.length (Ref.Live.begin_ts r)
          && Txn_manager.live_begin_ts mgr = Ref.Live.begin_ts r
          && Txn_manager.live_views mgr = Ref.Live.views r
          && Txn_manager.oldest_active mgr = Ref.Live.oldest_active r
          && Txn_manager.oldest_visible_horizon mgr
             = Ref.Live.oldest_visible_horizon r ~oracle:(Txn_manager.oracle mgr)
          && List.equal ( == )
               (Txn_manager.shed_candidates mgr ~now ~min_age:age)
               (Ref.Live.shed_candidates r ~now ~min_age:age)
          && Txn_manager.llt_views mgr ~now ~delta_llt:age
             = Ref.Live.llt_views r ~now ~delta_llt:age)
        ops)

let suites =
  [
    ( "txn.read_view",
      [
        Alcotest.test_case "committed_before" `Quick test_view_committed_before;
        Alcotest.test_case "snapshot_read" `Quick test_view_snapshot_read;
        Alcotest.test_case "own update" `Quick test_view_own_update;
        Alcotest.test_case "invalid construction" `Quick test_view_invalid;
        Alcotest.test_case "visibility horizon" `Quick test_view_horizon;
      ] );
    ( "txn.commit_log",
      [
        Alcotest.test_case "statuses" `Quick test_commit_log;
        QCheck_alcotest.to_alcotest qcheck_commit_log_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_commit_log_window;
      ] );
    ( "txn.manager",
      [
        Alcotest.test_case "begin/commit" `Quick test_mgr_begin_commit;
        Alcotest.test_case "view of earlier commit" `Quick test_mgr_view_sees_earlier_commit;
        Alcotest.test_case "abort" `Quick test_mgr_abort;
        Alcotest.test_case "oldest/horizon" `Quick test_mgr_oldest_horizon;
        Alcotest.test_case "llt identification" `Quick test_mgr_llt_views;
        Alcotest.test_case "avg duration EWMA" `Quick test_mgr_avg_duration;
        QCheck_alcotest.to_alcotest qcheck_view_consistency;
        QCheck_alcotest.to_alcotest qcheck_snapshot_read_unique;
        QCheck_alcotest.to_alcotest qcheck_live_set_matches_reference;
      ] );
  ]
