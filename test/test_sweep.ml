(* The sweep's incremental log oracles against the from-scratch ones.

   Random 2–3-shard logs are appended in chunks; after every chunk the
   verdicts of one long-lived [Invariant.sweep] must equal
   [check_cross_shard_atomicity] and [check_no_committed_loss] run from
   scratch, and every cursor's expectation must equal
   [expect (analyze wal)]. Transaction ids, gids and row ids are drawn
   from a small range so that outcomes meet across shards. *)

type op =
  | Log of int * int * int * int  (* shard, kind, tid, variant *)
  | Torn of int * bool
  | Crash of int * int
  | Discard of int * int
  | Set_shard of int * int
  | Acked of int * int * int list
  | Sweep

let show_op = function
  | Log (s, k, a, x) -> Printf.sprintf "log@%d(%d,%d,%d)" s k a x
  | Torn (s, g) -> Printf.sprintf "torn@%d(%b)" s g
  | Crash (s, k) -> Printf.sprintf "crash@%d(%d)" s k
  | Discard (s, k) -> Printf.sprintf "discard@%d(%d)" s k
  | Set_shard (s, t) -> Printf.sprintf "set_shard@%d(%d)" s t
  | Acked (tid, cts, parts) ->
      Printf.sprintf "acked(%d,%d,[%s])" tid cts (String.concat ";" (List.map string_of_int parts))
  | Sweep -> "sweep"

let op_gen n =
  QCheck.Gen.(
    let shard = int_bound (n - 1) and tid = int_range 1 10 in
    frequency
      [
        ( 30,
          map3 (fun (s, k) a x -> Log (s, k, a, x)) (pair shard (int_bound 14)) tid (int_bound 5) );
        (1, map2 (fun s g -> Torn (s, g)) shard bool);
        (1, map2 (fun s k -> Crash (s, k)) shard nat);
        (1, map2 (fun s k -> Discard (s, k)) shard nat);
        (* Mostly a re-tag to the same shard: a mutation the frames survive. *)
        (1, map2 (fun s t -> Set_shard (s, if t < 4 then s else t - 4)) shard (int_bound (n + 4)));
        ( 4,
          map3
            (fun tid x parts ->
              Acked (tid, tid + 10 + (if x = 0 then 1 else 0), List.sort_uniq compare parts))
            tid (int_bound 5)
            (list_size (int_range 1 2) (int_bound n)) );
        (6, return Sweep);
      ])

let history =
  QCheck.make
    ~print:(fun (n, ops) ->
      Printf.sprintf "%d shards: %s" n (String.concat " " (List.map show_op ops)))
    QCheck.Gen.(
      int_range 2 3 >>= fun n -> map (fun ops -> (n, ops)) (list_size (int_range 1 120) (op_gen n)))

(* A checkpoint image over the same small id ranges: [a] sets its
   frontier, [x] which members it fills. *)
let snapshot ~n a x =
  let tids = List.filter (fun t -> (t + x) mod 3 <> 0) (List.init 10 (fun i -> i + 1)) in
  {
    Checkpoint.at = a;
    oracle_next = a + 8;
    live = List.filter (fun t -> t mod 4 = x mod 4) tids;
    committed =
      List.filter_map (fun t -> if t >= a && t mod 2 = 0 then Some (t, t + 10) else None) tids;
    aborted = List.filter_map (fun t -> if t mod 5 = x then Some (t, t + 10) else None) tids;
    rows =
      List.init 4 (fun rid ->
          let vs = (rid * 3 + x) mod 11 in
          { Checkpoint.rid; value = rid + x; vs; vs_time = 0; cts = vs + 10 });
    pending =
      (if x mod 2 = 0 then
         [ { Checkpoint.tid = a; writes = [ { Checkpoint.rid = a mod 4; value = x; vs_time = 0 } ] } ]
       else []);
    segments = [];
    next_seg_id = 0;
    prepared = (if x < 3 then [ (a, a mod n) ] else []);
    decisions = (if x > 1 then [ (a, a + 10); ((a mod 10) + 1, (a mod 10) + 11) ] else []);
  }

let payload ~n k a x =
  let parts = List.sort_uniq compare [ a mod n; (a + 1) mod n ] in
  match k with
  | 0 -> Wal_record.Txn_begin { tid = a }
  | 1 | 2 -> Wal_record.Txn_commit { tid = a; cts = a + 10 + (if x = 0 then 1 else 0) }
  | 3 -> Wal_record.Txn_abort { tid = a; ats = a + 10 }
  | 4 | 5 -> Wal_record.Version_insert { tid = a; rid = x mod 4; value = x }
  | 6 | 7 -> Wal_record.Prepare { tid = a; coord = (if x = 0 then n else a mod n); shards = parts }
  | 8 -> Wal_record.Coord_commit { gid = a; cts = a + 10; shards = parts }
  | 9 -> Wal_record.Coord_abort { gid = a }
  | 10 when x mod 2 = 0 -> Wal_record.Ack { gid = a; shard = x mod n }
  | 10 -> Wal_record.Forget { gid = a }
  | 11 -> Wal_record.Promote { epoch = a; node = x }
  | 12 -> Wal_record.Ckpt_end { snapshot = Some (snapshot ~n a x) }
  | 13 -> Wal_record.Ckpt_end { snapshot = None }
  | _ -> Wal_record.Ckpt_begin

let show_violations vs =
  String.concat "\n  "
    (List.map (fun { Invariant.invariant; detail } -> invariant ^ ": " ^ detail) vs)

let sweep_matches_scratch (n, ops) =
      let wals =
        Array.init n (fun sid ->
            let w = Wal.create ~shard:sid () in
            Wal.enable_durability w;
            w)
      in
      let cursors = Array.init n (fun _ -> Wal_recovery.cursor ()) in
      let sweep = Invariant.sweep cursors in
      let fresh = ref [] and ledger = ref [] in
      let check () =
        let wl = Array.to_list (Array.mapi (fun sid w -> (sid, w)) wals) in
        let got = Invariant.run_sweep sweep ~acked:(List.rev !fresh) wl in
        ledger := !fresh @ !ledger;
        fresh := [];
        let want =
          Invariant.check_cross_shard_atomicity wl
          @ Invariant.check_no_committed_loss ~acked:!ledger wl
        in
        if got <> want then
          QCheck.Test.fail_reportf "sweep verdicts:\n  %s\nfrom scratch:\n  %s"
            (show_violations got) (show_violations want);
        Array.iteri
          (fun sid w ->
            let want = Wal_recovery.expect (Wal_recovery.analyze w) in
            if Wal_recovery.expectation cursors.(sid) w <> want then
              QCheck.Test.fail_reportf "shard %d: the cursor's expectation differs from expect" sid)
          wals
      in
      List.iter
        (fun op ->
          match op with
          | Log (s, k, a, x) -> ignore (Wal.log wals.(s) (payload ~n k a x))
          | Torn (s, good) ->
              let w = wals.(s) in
              ignore
                (Wal.inject_raw w
                   (if good then
                      Wal_record.encode_with_bad_crc
                        {
                          Wal_record.lsn = Wal.next_lsn w;
                          at = 0;
                          shard = Wal.shard w;
                          payload = Wal_record.Txn_commit { tid = 3; cts = 13 };
                        }
                    else "torn"))
          | Crash (s, k) -> Wal.crash wals.(s) ~keep_lsn:(k mod (Wal.next_lsn wals.(s) + 1))
          | Discard (s, k) ->
              let lsn = k mod (Wal.next_lsn wals.(s) + 1) in
              Wal.discard_below wals.(s) ~lsn ~anchor:lsn
          | Set_shard (s, t) -> Wal.set_shard wals.(s) t
          | Acked (tid, cts, parts) -> fresh := (tid, cts, parts) :: !fresh
          | Sweep -> check ())
        ops;
      check ();
      true

let qcheck_sweep_matches_scratch =
  QCheck.Test.make ~name:"sweep verdicts = from-scratch oracles, chunk by chunk" ~count:400 history
    sweep_matches_scratch

(* A failover checkpoint sends shard 1 to the from-scratch fallback at
   the first sweep; the steady checkpoint after it hands back to the
   tables, where t1 is both a row's creator and aborted. Its entries
   are the same as before the fallback, so only what the fallback
   touched gets it judged again. *)
let test_fallback_hands_back () =
  Alcotest.(check bool)
    "verdicts agree" true
    (sweep_matches_scratch
       (2, [ Log (1, 12, 2, 1); Log (1, 11, 9, 3); Log (1, 12, 8, 0); Sweep; Log (1, 12, 7, 1) ]))

let suites =
  [
    ( "shard-sweep",
      [
        QCheck_alcotest.to_alcotest qcheck_sweep_matches_scratch;
        Alcotest.test_case "failover fallback hands back" `Quick test_fallback_hands_back;
      ] );
  ]
