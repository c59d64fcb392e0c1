(* Bechamel micro-benchmarks for vDriver's hot paths: the per-version
   operations whose costs the simulator's cost model abstracts. *)

open Bechamel
open Toolkit

let live_256 = List.init 256 (fun i -> (i * 7) + 1)
let zones_256 = Zone_set.make ~live:live_256 ~now_ts:100_000

let views_64 =
  List.init 64 (fun i ->
      let creator = 10_000 + (i * 13) in
      Read_view.make ~creator ~actives:[ creator - 5 ] ~high:creator)

let classifier = Classifier.create ()

let sample_version =
  Version.make ~rid:7 ~vs:5_000 ~ve:5_040 ~vs_time:1_000_000 ~ve_time:2_000_000 ~bytes:256
    ~payload:1

let chain_10k =
  let chain = Chain.create 0 in
  for i = 1 to 10_000 do
    ignore
      (Chain.push_newest chain
         (Version.make ~rid:0 ~vs:(i * 10) ~ve:((i + 1) * 10) ~vs_time:i ~ve_time:(i + 1)
            ~bytes:64 ~payload:i)
         ~seg_id:0)
  done;
  chain

let view_mid = Read_view.make ~creator:50_005 ~actives:[] ~high:50_005
let zipf = Zipf.create ~n:100_000 ~s:1.2
let rng = Rng.create 1

let bytes_100 = String.init 100 (fun i -> Char.chr (i land 0xff))
let bytes_400k = String.init 400_000 (fun i -> Char.chr ((i * 7919) land 0xff))

(* A checkpoint shaped like durable-crash's under an LLT: a commit-log
   window of about 25k outcomes and 1k rows, about 520 KB framed. *)
let ckpt_record =
  let base = 1_000_000 in
  let window = List.init 25_000 (fun i -> (base + (2 * i), base + (2 * i) + 1)) in
  {
    Wal_record.lsn = 123_456;
    at = 3_000_000;
    shard = 0;
    payload =
      Wal_record.Ckpt_end
        {
          snapshot =
            Some
              {
                Checkpoint.at = 3_000_000;
                oracle_next = base + 50_001;
                live = [ base; base + 49_990; base + 49_998 ];
                committed = List.filter (fun (tid, _) -> tid mod 50 <> 0) window;
                aborted = List.filter (fun (tid, _) -> tid mod 50 = 0) window;
                rows =
                  List.init 1_000 (fun rid ->
                      { Checkpoint.rid; value = rid * 31; vs = base + rid; vs_time = 2_900_000 + rid; cts = base + rid + 1 });
                pending =
                  [ { Checkpoint.tid = base + 49_998; writes = [ { Checkpoint.rid = 7; value = 1; vs_time = 2_999_000 } ] } ];
                segments = [];
                next_seg_id = 0;
                prepared = [];
                decisions = [];
              };
        };
  }

let ckpt_frame = Wal_record.encode ckpt_record

let tests =
  Test.make_grouped ~name:"vdriver"
    [
      Test.make ~name:"zone_set.make/256-live"
        (Staged.stage (fun () -> Zone_set.make ~live:live_256 ~now_ts:100_000));
      Test.make ~name:"zone_set.prunable"
        (Staged.stage (fun () -> Zone_set.prunable zones_256 ~vs:40 ~ve:45));
      Test.make ~name:"prune.by_views/64-views"
        (Staged.stage (fun () ->
             Prune.prunable_by_views ~views:views_64 ~vs:9_000 ~ve:9_001));
      Test.make ~name:"read_view.snapshot_read"
        (Staged.stage (fun () -> Read_view.snapshot_read view_mid ~vs:40_000 ~ve:60_000));
      Test.make ~name:"classifier.classify"
        (Staged.stage (fun () ->
             Classifier.classify classifier ~llt_views:views_64 sample_version));
      Test.make ~name:"chain.find_visible/10k"
        (Staged.stage (fun () -> Chain.find_visible chain_10k view_mid));
      Test.make ~name:"mvcc_search/10k"
        (Staged.stage (fun () ->
             Mvcc_search.find_visible ~view:view_mid ~len:10_000 ~vs_of:(fun i -> (i + 1) * 10)));
      Test.make ~name:"collab.episode"
        (Staged.stage (fun () ->
             let c = Collab.create () in
             Collab.sorter c ~delete:ignore ~insert:ignore));
      Test.make ~name:"zipf.sample" (Staged.stage (fun () -> Zipf.sample zipf rng));
      Test.make ~name:"crc32/100B" (Staged.stage (fun () -> Crc32.string bytes_100));
      Test.make ~name:"crc32/400KB" (Staged.stage (fun () -> Crc32.string bytes_400k));
      Test.make ~name:"checkpoint.encode" (Staged.stage (fun () -> Wal_record.encode ckpt_record));
      Test.make ~name:"checkpoint.decode" (Staged.stage (fun () -> Wal_record.decode ckpt_frame));
    ]

let run () =
  Common.section ~figure:"Micro" ~title:"Bechamel micro-benchmarks of vDriver primitives"
    ~expectation:
      "pruning checks and classification are sub-microsecond, which is what \
       makes the 1st prune affordable on the relocation path";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%.1f ns/op" e
        | Some _ | None -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  Table.print ~header:[ "operation"; "cost" ] (List.sort compare !rows)
