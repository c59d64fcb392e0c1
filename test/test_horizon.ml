(* The commit log's freeze horizon (DESIGN §4k): the paged log and the
   SIRO slots' commit-timestamp stamps against the dense reference log
   of test/ref_bookkeeping.ml, plus the retained-cells growth check. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module Ref = Ref_bookkeeping

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Fixed cases *)

let p = Commit_log.page_cells

let test_frozen_answers () =
  let log = Commit_log.create () in
  let n = (3 * p) + (p / 2) in
  for tid = 1 to n do
    Commit_log.record log ~tid
      (if tid mod 3 = 0 then Commit_log.Aborted_at ((10 * p) + tid)
       else Commit_log.Committed_at ((10 * p) + tid))
  done;
  check_int "four pages allocated" (4 * p) (Commit_log.retained_cells log);
  Commit_log.advance_horizon log ((2 * p) + 5);
  check_int "horizon rounds down to a page" (2 * p) (Commit_log.horizon log);
  check_int "pages below dropped" (2 * p) (Commit_log.retained_cells log);
  Commit_log.advance_horizon log (p + 1);
  check_int "never backwards" (2 * p) (Commit_log.horizon log);
  check_bool "frozen: committed" true (Commit_log.is_committed log 5);
  check_bool "frozen: an aborted tid reads committed" true (Commit_log.is_committed log 6);
  check_bool "frozen: finished" true (Commit_log.mem log 5);
  check_bool "frozen: not after anyone" false (Commit_log.committed_after log 5 0);
  check_bool "negative tids stay unknown" false (Commit_log.is_committed log (-1));
  let below = (2 * p) - 1 in
  check_bool "status raises below" true (raises (fun () -> Commit_log.status log below));
  check_bool "commit_ts raises below" true (raises (fun () -> Commit_log.commit_ts log below));
  check_bool "commit_ts_of raises below" true (raises (fun () -> Commit_log.commit_ts_of log 0));
  check_bool "record raises below" true
    (raises (fun () -> Commit_log.record log ~tid:3 (Commit_log.Committed_at 1)));
  check_bool "override raises below" true
    (raises (fun () -> Commit_log.override log ~tid:below (Commit_log.Aborted_at 1)));
  check_bool "window fold raises below" true
    (raises (fun () -> Commit_log.fold_from log ~floor:below (fun _ _ () -> ()) ()));
  let at = 2 * p in
  check_bool "exact at the horizon" true
    (Commit_log.status log at
    = Some
        (if at mod 3 = 0 then Commit_log.Aborted_at ((10 * p) + at)
         else Commit_log.Committed_at ((10 * p) + at)));
  let aborted = at + ((3 - (at mod 3)) mod 3) in
  check_bool "aborted above the horizon" false (Commit_log.is_committed log aborted);
  check_int "entries from the horizon" (n - at + 1) (List.length (Commit_log.entries log));
  check_int "finished counts dropped pages" n (Commit_log.finished log);
  Commit_log.reset log;
  check_int "reset lowers the horizon" 0 (Commit_log.horizon log);
  check_int "reset frees every page" 0 (Commit_log.retained_cells log)

(* Begin and commit read-only transactions until the oracle reaches
   [until]. *)
let run_until mgr ~until =
  while Txn_manager.oracle mgr < until do
    let t = Txn_manager.begin_txn mgr ~now:0 in
    Txn_manager.commit mgr t ~now:0
  done

(* The manager moves the horizon at page crossings, never past a live
   view's oldest in-flight tid or a registered floor. *)
let test_manager_horizon () =
  let mgr = Txn_manager.create () in
  let log = Txn_manager.commit_log mgr in
  let old = Txn_manager.begin_txn mgr ~now:0 in
  let floor = ref Timestamp.infinity in
  Txn_manager.register_floor mgr (fun () -> !floor);
  run_until mgr ~until:(3 * p);
  check_int "an open transaction pins the horizon" 0 (Commit_log.horizon log);
  Txn_manager.commit mgr old ~now:0;
  floor := p + 40;
  run_until mgr ~until:(5 * p);
  check_int "a floor holds it back" p (Commit_log.horizon log);
  floor := Timestamp.infinity;
  Txn_manager.advance_horizon mgr;
  check_bool "free to follow the oracle" true
    (Commit_log.horizon log > Txn_manager.oracle mgr - p);
  check_bool "at most one page left" true (Commit_log.retained_cells log <= p)

(* ------------------------------------------------------------------ *)
(* Oracle: random histories against the dense reference log *)

type op =
  | Begin
  | Write of int * int (* live slot, rid *)
  | Commit of int
  | Abort of int
  | Page (* a log page of read-only transactions, begun and committed *)
  | Flip (* promotion: every un-replicated commit rolls back, slots rebuilt *)
  | Replicate (* every outcome so far is quorum-durable *)
  | Crash (* power loss: live writers roll back, the log restarts from a window *)
  | Advance (* move the horizon now, mid-page *)

let print_op = function
  | Begin -> "begin"
  | Write (i, rid) -> Printf.sprintf "w%d/r%d" i rid
  | Commit i -> Printf.sprintf "c%d" i
  | Abort i -> Printf.sprintf "a%d" i
  | Page -> "page"
  | Flip -> "flip"
  | Replicate -> "replicate"
  | Crash -> "crash"
  | Advance -> "advance"

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, return Begin);
        (8, map2 (fun i rid -> Write (i, rid)) (0 -- 2) (0 -- 3));
        (6, map (fun i -> Commit i) (0 -- 2));
        (2, map (fun i -> Abort i) (0 -- 2));
        (1, return Page);
        (1, return Flip);
        (1, return Replicate);
        (1, return Crash);
        (1, return Advance);
      ])

type live = { txn : Txn.t; mutable rids : int list }

let records = 4

(* One history, driven the way the SIRO engine drives its slots: the
   conflict test reads the stamp, an update hands the displaced
   version's stamped interval on, a commit stamps its write set, and a
   restart (crash or promotion) rebuilds the slots from their committed
   images and stamps them with the images' commit timestamps, as
   checkpoint rows and replayed commits carry them. After every step
   the commit log must equal the reference at and above the horizon
   and raise on exact lookups below it, over a window around the
   horizon and around the oracle; it must give the reference's boolean
   answers below the horizon for every creator a slot still holds; and
   every stamp must equal the reference commit timestamp of its
   creator. *)
let run_history ops =
  let mgr = Txn_manager.create () in
  let log = Txn_manager.commit_log mgr in
  let r = Ref.Commit_log.create () in
  let slots =
    Array.init records (fun rid -> Siro.create ~rid ~bytes:64 ~payload:rid ~vs:0 ~vs_time:0)
  in
  (* Each record's committed images, newest first: (creator, commit
     timestamp, payload) — what a restart can rebuild the slot from. *)
  let images = Array.make records [] in
  let live = Array.make 3 None in
  let unreplicated = ref [] in
  Txn_manager.register_floor mgr (fun () -> List.fold_left min Timestamp.infinity !unreplicated);
  let ok = ref true and why = ref "" in
  let fail fmt = Printf.ksprintf (fun s -> if !ok then (ok := false; why := s)) fmt in
  let ref_cts tid = if tid = 0 then 0 else Ref.Commit_log.commit_ts r tid in
  let now = ref 0 in
  let tick () = incr now; !now in
  let commit (txn : Txn.t) =
    Txn_manager.commit mgr txn ~now:(tick ());
    let cts = Option.get txn.Txn.commit_ts in
    Ref.Commit_log.record r ~tid:txn.Txn.tid (Commit_log.Committed_at cts);
    unreplicated := txn.Txn.tid :: !unreplicated;
    cts
  in
  let abort l =
    List.iter (fun rid -> Siro.abort_undo slots.(rid) ~t_aborted:l.txn.Txn.tid) l.rids;
    Txn_manager.abort mgr l.txn ~now:(tick ());
    match Commit_log.status log l.txn.Txn.tid with
    | Some st -> Ref.Commit_log.record r ~tid:l.txn.Txn.tid st
    | None -> fail "t%d aborted without a status" l.txn.Txn.tid
  in
  (* Restart every slot from its newest committed image. *)
  let rebuild () =
    Array.iteri
      (fun rid img ->
        let vs, cts, payload = match img with i :: _ -> i | [] -> (0, 0, rid) in
        let slot = Siro.create ~rid ~bytes:64 ~payload ~vs ~vs_time:0 in
        Siro.stamp slot ~tid:vs ~cts;
        slots.(rid) <- slot;
        images.(rid) <- (match img with i :: _ -> [ i ] | [] -> []))
      images
  in
  let step op =
    match op with
    | Begin -> (
        match Array.find_index Option.is_none live with
        | Some i ->
            let txn = Txn_manager.begin_txn mgr ~now:(tick ()) in
            live.(i) <- Some { txn; rids = [] }
        | None -> ())
    | Write (i, rid) -> (
        match live.(i) with
        | None -> ()
        | Some l ->
            let slot = slots.(rid) in
            let vs = (Siro.current slot).Version.vs and tid = l.txn.Txn.tid in
            let conflict =
              Cc.write_conflict_stamped mgr l.txn ~current_vs:vs
                ~current_cts:(Siro.current_cts slot)
            in
            let expected = vs <> 0 && vs <> tid && (vs > tid || ref_cts vs > tid) in
            if conflict <> expected then
              fail "t%d on r%d: conflict %b, reference %b" tid rid conflict expected;
            if not conflict then begin
              (match Siro.update slot ~vs:tid ~vs_time:!now ~payload:(tick ()) ~bytes:64 with
              | Siro.Relocated { version = v; lo; hi } ->
                  if (lo, hi) <> (ref_cts v.Version.vs, ref_cts v.Version.ve) then
                    fail "relocated (%d, %d) of r%d stamped (%d, %d)" v.Version.vs v.Version.ve rid
                      lo hi
              | Siro.Kept -> ());
              if not (List.mem rid l.rids) then l.rids <- rid :: l.rids
            end)
    | Commit i -> (
        match live.(i) with
        | None -> ()
        | Some l ->
            let tid = l.txn.Txn.tid in
            let cts = commit l.txn in
            List.iter
              (fun rid ->
                Siro.stamp slots.(rid) ~tid ~cts;
                images.(rid) <- (tid, cts, (Siro.current slots.(rid)).Version.payload) :: images.(rid))
              l.rids;
            live.(i) <- None)
    | Abort i -> (
        match live.(i) with
        | None -> ()
        | Some l ->
            abort l;
            live.(i) <- None)
    | Page ->
        for _ = 1 to p / 2 do
          ignore (commit (Txn_manager.begin_txn mgr ~now:(tick ())))
        done
    | Flip ->
        (* The promoted timeline never saw the un-replicated commits: the
           live transactions are poisoned and abort, every un-replicated
           commit flips to aborted, newest first, and the slots restart
           from the images that survive. *)
        Array.iter (Option.iter abort) live;
        Array.fill live 0 3 None;
        let flipped = !unreplicated in
        unreplicated := [];
        List.iter
          (fun tid ->
            match Txn_manager.rollback_unreplicated mgr ~tid with
            | Some ats -> Ref.Commit_log.override r ~tid (Commit_log.Aborted_at ats)
            | None -> fail "un-replicated t%d was not committed" tid)
          flipped;
        Array.iteri
          (fun rid img ->
            images.(rid) <- List.filter (fun (vs, _, _) -> not (List.mem vs flipped)) img)
          images;
        rebuild ()
    | Replicate -> unreplicated := []
    | Crash ->
        (* The restart's inputs, as a checkpoint plus redo would give
           them: the window of outcomes from the oldest live begin, the
           creators of the surviving committed images, and the live
           transactions as losers. *)
        let losers =
          Array.to_list live |> List.filter_map (Option.map (fun l -> l.txn.Txn.tid))
        in
        Array.iter
          (function
            | Some l ->
                List.iter (fun rid -> Siro.abort_undo slots.(rid) ~t_aborted:l.txn.Txn.tid) l.rids
            | None -> ())
          live;
        Array.fill live 0 3 None;
        let floor =
          match losers with [] -> Txn_manager.oracle mgr | l -> List.fold_left min max_int l
        in
        let window = List.filter (fun (tid, _) -> tid >= floor) (Ref.Commit_log.entries r) in
        let rows =
          Array.to_list images
          |> List.filter_map (function (vs, cts, _) :: _ -> Some (vs, cts) | [] -> None)
        in
        let outcomes pick = List.filter_map pick window in
        let committed =
          List.sort_uniq compare
            (rows
            @ outcomes (function tid, Commit_log.Committed_at c -> Some (tid, c) | _ -> None))
        in
        let aborted =
          outcomes (function tid, Commit_log.Aborted_at a -> Some (tid, a) | _ -> None)
        in
        let clrs =
          Txn_manager.crash_recover mgr ~committed ~aborted ~losers
            ~oracle_floor:(Txn_manager.oracle mgr)
        in
        (* First outcome wins, as in the manager. *)
        let restore status (tid, ts) =
          if Ref.Commit_log.status r tid = None then Ref.Commit_log.record r ~tid (status ts)
        in
        Ref.Commit_log.reset r;
        List.iter (restore (fun c -> Commit_log.Committed_at c)) committed;
        List.iter (restore (fun a -> Commit_log.Aborted_at a)) aborted;
        List.iter (restore (fun a -> Commit_log.Aborted_at a)) clrs;
        unreplicated := [];
        rebuild ()
    | Advance -> Txn_manager.advance_horizon mgr
  in
  let check () =
    let h = Commit_log.horizon log and o = Txn_manager.oracle mgr in
    let live_txns = Array.to_list live |> List.filter_map (Option.map (fun l -> l.txn)) in
    List.iter
      (fun (txn : Txn.t) ->
        let view = txn.Txn.view in
        if txn.Txn.tid < h then fail "live t%d below the horizon %d" txn.Txn.tid h;
        Array.iter
          (fun a ->
            if a < h then fail "t%d in live t%d's view below the horizon %d" a txn.Txn.tid h)
          view.Read_view.actives)
      live_txns;
    let creators =
      Array.to_list slots
      |> List.concat_map (fun s ->
             (Siro.current s).Version.vs
             :: (match Siro.previous s with Some v -> [ v.Version.vs ] | None -> []))
    in
    let window =
      (-1 :: List.init 17 (fun i -> h - 8 + i))
      @ List.init 11 (fun i -> o - 8 + i)
      @ creators
      @ List.map (fun (txn : Txn.t) -> txn.Txn.tid) live_txns
    in
    List.iter
      (fun tid ->
        if tid >= h || tid < 0 then begin
          let rs = Ref.Commit_log.status r tid in
          if
            Commit_log.status log tid <> rs
            || Commit_log.commit_ts_of log tid <> Ref.Commit_log.commit_ts_of r tid
            || Commit_log.commit_ts log tid <> Ref.Commit_log.commit_ts r tid
            || Commit_log.mem log tid <> (rs <> None)
            || Commit_log.is_committed log tid <> (Ref.Commit_log.commit_ts_of r tid <> None)
          then fail "t%d at or above the horizon %d differs from the reference" tid h
        end
        else if
          not
            (raises (fun () -> Commit_log.status log tid)
            && raises (fun () -> Commit_log.commit_ts log tid))
        then fail "exact lookup of t%d below the horizon %d answered" tid h)
      window;
    List.iter
      (fun vs ->
        if vs > 0 && vs < h then begin
          if Commit_log.is_committed log vs <> (Ref.Commit_log.commit_ts_of r vs <> None) then
            fail "frozen is_committed of creator t%d differs" vs;
          List.iter
            (fun (txn : Txn.t) ->
              let tid = txn.Txn.tid in
              if Commit_log.committed_after log vs tid <> (Ref.Commit_log.commit_ts r vs > tid)
              then fail "frozen committed_after of t%d for t%d differs" vs tid)
            live_txns
        end)
      creators;
    Array.iteri
      (fun rid s ->
        let cur = Siro.current s in
        if Siro.current_cts s <> ref_cts cur.Version.vs then
          fail "r%d: current stamp %d, creator t%d committed at %d" rid (Siro.current_cts s)
            cur.Version.vs (ref_cts cur.Version.vs);
        let pcts =
          match Siro.previous s with Some v -> ref_cts v.Version.vs | None -> Timestamp.infinity
        in
        if Siro.previous_cts s <> pcts then
          fail "r%d: previous stamp %d, reference %d" rid (Siro.previous_cts s) pcts)
      slots
  in
  List.iter (fun op -> if !ok then (step op; check ())) ops;
  if not !ok then QCheck.Test.fail_report !why;
  true

let qcheck_horizon_matches_reference =
  QCheck.Test.make ~name:"paged log and stamps = dense reference" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (0 -- 200) op_gen))
    run_history

(* ------------------------------------------------------------------ *)
(* Growth: without LLTs the log's footprint does not follow run length *)

(* A pg-vdriver campaign without LLTs; returns its commits, the
   timestamps it issued and the cells its commit log retains at the end,
   after one last horizon move. The dense reference log would retain a
   cell for every timestamp issued. *)
let retained_after ~duration_s =
  let cfg =
    {
      Exp_config.default with
      Exp_config.name = "clog-growth";
      seed = 5;
      duration_s;
      workers = 8;
      schema = { Schema.default with Schema.tables = 2; rows_per_table = 200; record_bytes = 64 };
      llts = [];
    }
  in
  let engine = ref None in
  let factory schema =
    let e = Siro_engine.create ~flavor:`Pg schema in
    engine := Some e;
    e
  in
  let out = Runner.run ~engine:factory cfg in
  let mgr = (Option.get !engine).Engine.txns in
  Txn_manager.advance_horizon mgr;
  ( out.Runner.commits,
    Txn_manager.oracle mgr,
    Commit_log.retained_cells (Txn_manager.commit_log mgr) )

let test_growth_flat () =
  let c1, o1, r1 = retained_after ~duration_s:4.0 in
  let c2, o2, r2 = retained_after ~duration_s:8.0 in
  check_bool "the doubled run commits about twice as much" true (c2 > (3 * c1) / 2);
  check_bool
    (Printf.sprintf "both runs issue several log pages of timestamps (%d, %d)" o1 o2)
    true
    (o1 > 16 * p && o2 > o1);
  check_bool
    (Printf.sprintf "retained cells %d -> %d within 10%% when doubled" r1 r2)
    true
    (10 * r2 <= 11 * r1)

let suites =
  [
    ( "txn.horizon",
      [
        Alcotest.test_case "frozen answers" `Quick test_frozen_answers;
        Alcotest.test_case "manager horizon" `Quick test_manager_horizon;
        QCheck_alcotest.to_alcotest qcheck_horizon_matches_reference;
        Alcotest.test_case "retained flat under doubling" `Quick test_growth_flat;
      ] );
  ]
