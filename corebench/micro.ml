(* Bechamel micro-benchmarks for the per-frame and per-message paths the
   sharded and durable workloads spend their host time in. Each case
   reports nanoseconds per run as the [micro.<case>_ns] layer metric. *)

open Bechamel
open Toolkit

let relocate lsn =
  {
    Wal_record.lsn;
    at = lsn * 1_000;
    shard = 0;
    payload =
      Wal_record.Relocate
        {
          rid = lsn mod 1000;
          vs = lsn;
          ve = lsn + 7;
          vs_time = lsn * 1_000;
          ve_time = (lsn + 7) * 1_000;
          bytes = 256;
          value = lsn * 31;
          seg_id = lsn / 64;
          cls = "llt";
          lo = lsn;
          hi = lsn + 7;
        };
  }

(* A durable log of [n] frames in a short-transaction pattern. *)
let durable_wal n =
  let w = Wal.create () in
  Wal.enable_durability w;
  let tid = ref 0 in
  while Wal.max_lsn w < n do
    incr tid;
    let at = !tid * 1_000 in
    ignore (Wal.log w ~at (Wal_record.Txn_begin { tid = !tid }));
    ignore (Wal.log w ~at (Wal_record.Version_insert { tid = !tid; rid = !tid mod 1000; value = !tid }));
    ignore (Wal.log w ~at (Wal_record.Txn_commit { tid = !tid; cts = !tid }))
  done;
  ignore (Wal.fsync w ());
  w

let wal_1k = lazy (durable_wal 1_000)
let wal_10k = lazy (durable_wal 10_000)

(* A backup ten frames behind the primary: the log-shipping read. *)
let frames_from_tail w () =
  let w = Lazy.force w in
  let lsn = Wal.max_lsn w - 10 in
  Staged.stage (fun () -> ignore (Wal.frames_from w ~lsn))

(* Each case builds its state when the benchmark starts, not when the
   program does. *)
let cases =
  [
    ( "wal_record_encode",
      fun () ->
        let frame = relocate 4242 in
        Staged.stage (fun () -> ignore (Wal_record.encode frame)) );
    ( "wal_record_decode",
      fun () ->
        let encoded = Wal_record.encode (relocate 4242) in
        Staged.stage (fun () -> ignore (Wal_record.decode encoded)) );
    ( "wal_recovery_analyze_1k",
      fun () ->
        let w = Lazy.force wal_1k in
        Staged.stage (fun () -> ignore (Wal_recovery.analyze w)) );
    ("wal_frames_from_1k", frames_from_tail wal_1k);
    ("wal_frames_from_10k", frames_from_tail wal_10k);
    ( "bus_send_pump",
      fun () ->
        let bus =
          Bus.create ~faults:(Net_fault.make ~max_delay:(Clock.us 200) ~seed:7 ()) ~endpoints:2 ()
        in
        Bus.set_handler bus ~ep:1 (fun ~now:_ ~src:_ (_ : int) -> ());
        let now = ref 0 in
        Staged.stage (fun () ->
            now := !now + Clock.us 300;
            Bus.send bus ~src:0 ~dst:1 ~now:!now 1;
            ignore (Bus.pump bus ~now:(!now + Clock.us 250))) );
    ( "lru_touch",
      fun () ->
        (* Keys cycle over twice the capacity: hits and evictions mix. *)
        let lru = Lru.create ~capacity:1024 and key = ref 0 in
        Staged.stage (fun () ->
            key := (!key + 617) land 2047;
            ignore (Lru.touch lru !key)) );
  ]

let metric name = "micro." ^ name ^ "_ns"
let names = List.map (fun (n, _) -> metric n) cases

(* (metric, ns per run) for every case, in declaration order. *)
let run () =
  let test =
    Test.make_grouped ~name:"micro" (List.map (fun (n, f) -> Test.make ~name:n (f ())) cases)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.2) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |])
      Instance.monotonic_clock raw
  in
  List.map
    (fun (n, _) ->
      let est =
        match Option.bind (Hashtbl.find_opt ols ("micro/" ^ n)) Analyze.OLS.estimates with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      (metric n, est))
    cases
