(* Model-based testing of the full vDriver stack.

   A reference model keeps, per record, the complete committed version
   history (never pruned). Random interleavings of begin/read/write/
   commit/abort/GC are executed both against the model and against the
   real SIRO slots + Driver; every read's result must match the model's
   snapshot semantics, no matter what vSorter/vCutter pruned or cut in
   between. This is the representation invariant plus snapshot isolation,
   checked end to end. *)

let records = 6

(* ---------- reference model ---------- *)

module Model = struct
  type version = { vs : Timestamp.t; payload : int }
  type t = { history : version list array } (* newest first, committed only *)

  let create () =
    { history = Array.init records (fun rid -> [ { vs = 0; payload = rid } ]) }

  (* The version a view must read: the newest whose creator is committed
     before the view. *)
  let read t view rid =
    let rec find = function
      | [] -> None
      | v :: rest ->
          if Read_view.committed_before view v.vs then Some v.payload else find rest
    in
    find t.history.(rid)

  let commit_write t rid ~vs ~payload =
    t.history.(rid) <- { vs; payload } :: t.history.(rid)
end

(* ---------- operations ---------- *)

type op =
  | Begin
  | Read of int * int (* txn slot, rid *)
  | Write of int * int (* txn slot, rid *)
  | Commit of int
  | Abort of int
  | Gc
  | Crash

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Begin);
        (6, map2 (fun t r -> Read (t, r)) (int_bound 4) (int_bound (records - 1)));
        (4, map2 (fun t r -> Write (t, r)) (int_bound 4) (int_bound (records - 1)));
        (2, map (fun t -> Commit t) (int_bound 4));
        (1, map (fun t -> Abort t) (int_bound 4));
        (1, return Gc);
        (1, return Crash);
      ])

let ops_gen = QCheck.Gen.list_size QCheck.Gen.(50 -- 400) op_gen

(* ---------- harness ---------- *)

(* Per-transaction bookkeeping: the model applies writes only at commit
   (the engine's uncommitted versions are invisible to others anyway,
   and the model reads through views, so timing matches). *)
type live_txn = {
  txn : Txn.t;
  mutable writes : (int * int) list; (* rid, payload — newest first *)
}

let run_scenario ops =
  let mgr = Txn_manager.create () in
  let config =
    {
      State.default_config with
      State.segment_bytes = 300;
      zone_refresh_period = Clock.us 400;
      classifier = Classifier.create ~delta_hot:(Clock.us 300) ~delta_llt:(Clock.us 800) ();
    }
  in
  let driver = Driver.create ~config mgr in
  let slots =
    Array.init records (fun rid -> Siro.create ~rid ~bytes:100 ~payload:rid ~vs:0 ~vs_time:0)
  in
  let model = Model.create () in
  let live : live_txn option array = Array.make 5 None in
  let now = ref 0 in
  let payload_counter = ref 100 in
  let tick () =
    now := !now + Clock.us 137;
    !now
  in
  let ok = ref true in
  let fail_reason = ref "" in
  let check_read (lt : live_txn) rid =
    (* Engine-side read: own writes first, then in-row, then off-row. *)
    let engine_result =
      match List.assoc_opt rid lt.writes with
      | Some p -> Some p
      | None -> (
          match Siro.read_inrow slots.(rid) lt.txn.Txn.view with
          | Some v -> Some v.Version.payload
          | None -> (
              match Driver.read driver lt.txn.Txn.view ~rid with
              | Some (v, _, _) -> Some v.Version.payload
              | None -> None))
    in
    let model_result =
      match List.assoc_opt rid lt.writes with
      | Some p -> Some p
      | None -> Model.read model lt.txn.Txn.view rid
    in
    if engine_result <> model_result then begin
      ok := false;
      fail_reason :=
        Printf.sprintf "read r%d by T%d: engine=%s model=%s" rid lt.txn.Txn.tid
          (match engine_result with Some p -> string_of_int p | None -> "none")
          (match model_result with Some p -> string_of_int p | None -> "none")
    end
  in
  let apply = function
    | Begin -> (
        match Array.find_index (fun s -> s = None) live with
        | Some i -> live.(i) <- Some { txn = Txn_manager.begin_txn mgr ~now:(tick ()); writes = [] }
        | None -> ())
    | Read (slot, rid) -> (
        match live.(slot) with Some lt -> check_read lt rid | None -> ())
    | Write (slot, rid) -> (
        match live.(slot) with
        | Some lt ->
            let slot = slots.(rid) in
            if
              not
                (Cc.write_conflict_stamped mgr lt.txn
                   ~current_vs:(Siro.current slot).Version.vs ~current_cts:(Siro.current_cts slot))
            then begin
              incr payload_counter;
              let p = !payload_counter in
              (match
                 Siro.update slot ~vs:lt.txn.Txn.tid ~vs_time:(tick ()) ~payload:p ~bytes:100
               with
              | Siro.Relocated { version; lo; hi } ->
                  ignore (Driver.relocate driver version ~lo ~hi ~now:!now)
              | Siro.Kept -> ());
              lt.writes <- (rid, p) :: List.remove_assoc rid lt.writes
            end
        | None -> ())
    | Commit (slot) -> (
        match live.(slot) with
        | Some lt ->
            Txn_manager.commit mgr lt.txn ~now:(tick ());
            let cts = Option.get lt.txn.Txn.commit_ts in
            List.iter
              (fun (rid, payload) ->
                Siro.stamp slots.(rid) ~tid:lt.txn.Txn.tid ~cts;
                Model.commit_write model rid ~vs:lt.txn.Txn.tid ~payload)
              (List.rev lt.writes);
            live.(slot) <- None
        | None -> ())
    | Abort (slot) -> (
        match live.(slot) with
        | Some lt ->
            List.iter (fun (rid, _) -> Siro.abort_undo slots.(rid) ~t_aborted:lt.txn.Txn.tid)
              lt.writes;
            Txn_manager.abort mgr lt.txn ~now:(tick ());
            live.(slot) <- None
        | None -> ())
    | Gc -> ignore (Driver.maintain driver ~now:(tick ()))
    | Crash ->
        (* Every live transaction is a loser: roll its writes back by
           bit toggles, then drop all off-row state wholesale (§3.5).
           The committed history must stay readable afterwards. *)
        Array.iteri
          (fun i slot ->
            match slot with
            | Some lt ->
                List.iter
                  (fun (rid, _) -> Siro.abort_undo slots.(rid) ~t_aborted:lt.txn.Txn.tid)
                  lt.writes;
                Txn_manager.abort mgr lt.txn ~now:(tick ());
                live.(i) <- None
            | None -> ())
          live;
        Driver.crash_restart driver
  in
  List.iter (fun op -> if !ok then apply op) ops;
  (* Final sweep: every live reader re-checks every record. *)
  Array.iter
    (fun slot ->
      match slot with
      | Some lt ->
          if !ok then
            for rid = 0 to records - 1 do
              if !ok then check_read lt rid
            done
      | None -> ())
    live;
  (!ok, !fail_reason)

let qcheck_model =
  QCheck.Test.make ~name:"driver agrees with reference MVCC model" ~count:120
    (QCheck.make ops_gen) (fun ops ->
      let ok, reason = run_scenario ops in
      if not ok then QCheck.Test.fail_report reason else true)

let suites = [ ("model", [ QCheck_alcotest.to_alcotest qcheck_model ]) ]
