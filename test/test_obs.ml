(* Observability subsystem tests: deterministic JSON, metrics registry
   semantics, tracer ring behavior, export schemas, and — the property
   the whole design hangs on — that observing a run neither perturbs it
   nor varies between identically-seeded invocations. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* -------------------------------------------------------------------- *)
(* Jsonx *)

let test_jsonx_print () =
  let j =
    Jsonx.Obj
      [
        ("b", Jsonx.Int 2);
        ("a", Jsonx.Arr [ Jsonx.Null; Jsonx.Bool true; Jsonx.Str "x\"y\n" ]);
        ("f", Jsonx.Float 1.5);
        ("g", Jsonx.Float 3.);
      ]
  in
  (* Keys stay in construction order; integral floats keep a decimal
     point so they re-parse as floats. *)
  check_str "stable bytes" {|{"b":2,"a":[null,true,"x\"y\n"],"f":1.5,"g":3.0}|}
    (Jsonx.to_string j)

let test_jsonx_nonfinite () =
  check_str "nan is null" "null" (Jsonx.to_string (Jsonx.Float Float.nan));
  check_str "inf is null" "null" (Jsonx.to_string (Jsonx.Float Float.infinity))

let test_jsonx_roundtrip () =
  let j =
    Jsonx.Obj
      [
        ("counters", Jsonx.Obj [ ("wal.appends", Jsonx.Int 41) ]);
        ("ratio", Jsonx.Float 0.875);
        ("name", Jsonx.Str "vDriver \xe2\x80\x94 trace");
        ("list", Jsonx.Arr [ Jsonx.Int (-3); Jsonx.Float 2.25; Jsonx.Bool false ]);
      ]
  in
  match Jsonx.of_string (Jsonx.to_string j) with
  | Ok j' -> check_str "roundtrip" (Jsonx.to_string j) (Jsonx.to_string j')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_jsonx_parse_errors () =
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"\\q\""; "1 2"; "{\"a\" 1}" ]

let test_jsonx_unicode_escape () =
  match Jsonx.of_string {|"\u00e9\t"|} with
  | Ok (Jsonx.Str s) -> check_str "utf8 decoded" "\xc3\xa9\t" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_jsonx_unicode_escape_strict () =
  (* OCaml's [int_of_string "0x1_23"] is 291: an escape must be exactly
     four hex digits, with no [_] separator. *)
  List.iter
    (fun s ->
      match Jsonx.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad escape %S" s
      | Error _ -> ())
    [ {|{"a":"\u1_23"}|}; {|"\u12"|}; {|"\u+123"|}; {|"\u0x12"|} ];
  match Jsonx.of_string {|"\u00E9"|} with
  | Ok (Jsonx.Str s) -> check_str "upper-case hex" "\xc3\xa9" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.failf "parse failed: %s" e

(* -------------------------------------------------------------------- *)
(* Metrics *)

let test_metrics_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter" 5 (Metrics.counter_value c);
  check_bool "get-or-create shares state" true
    (Metrics.counter_value (Metrics.counter reg "a.count") = 5);
  let g = Metrics.gauge reg "a.gauge" in
  Metrics.set g 2.5;
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"a.gauge\" already registered as a gauge, requested as a counter")
    (fun () -> ignore (Metrics.counter reg "a.gauge"));
  let names = List.map fst (Metrics.snapshot reg) in
  check_bool "snapshot sorted" true (names = List.sort compare names)

let test_metrics_scope () =
  check_bool "no registry outside scope" true (Metrics.in_scope () = None);
  (* Out-of-scope helpers must be silent no-ops. *)
  Metrics.bump "ghost";
  Metrics.observe "ghost.h" 3;
  Metrics.set_gauge "ghost.g" 1.;
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      Metrics.bump "live";
      Metrics.bump_by "live" 2;
      Metrics.observe "live.h" 9);
  check_bool "scope restored" true (Metrics.in_scope () = None);
  match Metrics.snapshot reg with
  | [ ("live", Metrics.Counter 3); ("live.h", Metrics.Histo h) ] ->
      check_int "histogram recorded" 1 (Histogram.total h)
  | other -> Alcotest.failf "unexpected snapshot (%d entries)" (List.length other)

let test_metrics_json () =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      Metrics.bump "z.count";
      Metrics.set_gauge "a.gauge" 1.5;
      List.iter (Metrics.observe "m.h") [ 1; 2; 3; 4 ]);
  check_str "flat sorted json"
    {|{"a.gauge":1.5,"m.h":{"count":4,"p50":2,"p90":4,"p99":4,"max":4},"z.count":1}|}
    (Jsonx.to_string (Metrics.to_json reg))

(* -------------------------------------------------------------------- *)
(* Trace ring *)

let test_trace_ring_wrap () =
  let tr = Trace.create ~capacity:4 () in
  Trace.with_tracer tr (fun () ->
      for i = 1 to 7 do
        Trace.instant Trace.Wal (string_of_int i) ~at:i []
      done);
  check_int "length capped" 4 (Trace.length tr);
  check_int "emitted counts all" 7 (Trace.emitted tr);
  check_int "dropped = emitted - kept" 3 (Trace.dropped tr);
  (* Drop-oldest: the survivors are the end of the run. *)
  check_bool "keeps newest" true
    (List.map (fun e -> e.Trace.name) (Trace.events tr) = [ "4"; "5"; "6"; "7" ])

let test_trace_off_is_noop () =
  check_bool "off" true (not (Trace.on ()));
  Trace.span Trace.Engine "ghost" ~start:0 ~dur:1 [];
  Trace.instant Trace.Engine "ghost" ~at:0 [];
  let tr = Trace.create () in
  check_int "nothing recorded" 0 (Trace.length tr)

let test_trace_chrome_export () =
  let tr = Trace.create () in
  Trace.with_tracer tr (fun () ->
      Trace.span Trace.Scheduler "w0" ~start:1000 ~dur:500 [ ("n", Trace.I 1) ];
      Trace.instant Trace.Governor "escalate" ~at:2000 [ ("to", Trace.S "pressured") ];
      Trace.count Trace.Governor "space_bytes" ~at:2000 4096;
      Trace.span Trace.Wal "neg" ~start:100 ~dur:(-5) []);
  let json = Trace.to_chrome_json tr in
  check_bool "schema-valid, all tracks named" true (Obs_schema.check_trace ~min_tracks:3 json = []);
  (* Spot-check the grammar: a span made it through as "X" with µs
     timestamps, and the negative duration was clamped. *)
  match json with
  | Jsonx.Obj (("traceEvents", Jsonx.Arr events) :: _) ->
      let phases =
        List.filter_map
          (function
            | Jsonx.Obj fields -> (
                match List.assoc_opt "ph" fields with Some (Jsonx.Str p) -> Some p | _ -> None)
            | _ -> None)
          events
      in
      check_bool "has X i C M" true
        (List.for_all (fun p -> List.mem p phases) [ "X"; "i"; "C"; "M" ]);
      let durs =
        List.filter_map
          (function
            | Jsonx.Obj fields when List.assoc_opt "ph" fields = Some (Jsonx.Str "X") ->
                List.assoc_opt "dur" fields
            | _ -> None)
          events
      in
      check_bool "negative dur clamped" true
        (List.for_all (function Jsonx.Float d -> d >= 0. | _ -> false) durs)
  | _ -> Alcotest.fail "expected traceEvents object"

(* -------------------------------------------------------------------- *)
(* Schema checker *)

let test_schema_rejects () =
  let bad_trace = Jsonx.Obj [ ("traceEvents", Jsonx.Int 3) ] in
  check_bool "non-array traceEvents" true (Obs_schema.check_trace bad_trace <> []);
  let no_span =
    Jsonx.Obj
      [
        ( "traceEvents",
          Jsonx.Arr
            [
              Jsonx.Obj
                [
                  ("name", Jsonx.Str "i0");
                  ("ph", Jsonx.Str "i");
                  ("pid", Jsonx.Int 1);
                  ("tid", Jsonx.Int 1);
                  ("ts", Jsonx.Float 0.);
                ];
            ] );
      ]
  in
  check_bool "missing span flagged" true (Obs_schema.check_trace no_span <> []);
  check_bool "span not required" true (Obs_schema.check_trace ~require_span:false no_span = []);
  check_bool "track floor" true (Obs_schema.check_trace ~require_span:false ~min_tracks:2 no_span <> []);
  let m = Jsonx.Obj [ ("x", Jsonx.Int 1) ] in
  check_bool "missing required gauges" true (Obs_schema.check_metrics m <> []);
  check_bool "no required is fine" true (Obs_schema.check_metrics ~required:[] m = []);
  check_bool "non-object rejected" true (Obs_schema.check_metrics ~required:[] (Jsonx.Int 1) <> [])

(* -------------------------------------------------------------------- *)
(* End to end: observation is deterministic and non-perturbing *)

let obs_cfg =
  {
    Exp_config.default with
    Exp_config.name = "obs-test";
    duration_s = 0.4;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 50; record_bytes = 64 };
    llts = [ { Exp_config.start_s = 0.1; duration_s = 0.2; count = 1 } ];
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let engine schema = Siro_engine.create ~flavor:`Pg schema

let observed_run () =
  let reg = Metrics.create () in
  let tr = Trace.create () in
  let r =
    Metrics.with_registry reg (fun () ->
        Trace.with_tracer tr (fun () -> Runner.run ~engine obs_cfg))
  in
  (r, Jsonx.to_string (Trace.to_chrome_json tr), Jsonx.to_string (Metrics.to_json reg))

let test_traced_run_reproducible () =
  let _, trace1, metrics1 = observed_run () in
  let _, trace2, metrics2 = observed_run () in
  check_str "trace bytes identical" trace1 trace2;
  check_str "metrics bytes identical" metrics1 metrics2

let test_observation_does_not_perturb () =
  let plain = Runner.run ~engine obs_cfg in
  let observed, _, _ = observed_run () in
  check_int "commits" plain.Runner.commits observed.Runner.commits;
  check_int "conflicts" plain.Runner.conflicts observed.Runner.conflicts;
  check_int "llt reads" plain.Runner.llt_reads observed.Runner.llt_reads;
  check_int "retries" plain.Runner.retries observed.Runner.retries;
  check_bool "throughput series" true (plain.Runner.throughput = observed.Runner.throughput);
  check_bool "space series" true
    (plain.Runner.version_space = observed.Runner.version_space);
  check_bool "chain cdf" true (plain.Runner.chain_cdf = observed.Runner.chain_cdf);
  check_bool "latency histogram" true
    (Histogram.cdf plain.Runner.latency_us = Histogram.cdf observed.Runner.latency_us)

let test_traced_run_valid_and_covered () =
  let _, trace, metrics = observed_run () in
  (match Jsonx.of_string trace with
  | Ok json ->
      (* The acceptance floor: spans from at least 6 distinct subsystems. *)
      check_bool "trace valid with 6 tracks" true (Obs_schema.check_trace ~min_tracks:6 json = [])
  | Error e -> Alcotest.failf "trace unparseable: %s" e);
  match Jsonx.of_string metrics with
  | Ok json -> check_bool "metrics valid + headline gauges" true (Obs_schema.check_metrics json = [])
  | Error e -> Alcotest.failf "metrics unparseable: %s" e

let suites =
  [
    ( "obs.jsonx",
      [
        Alcotest.test_case "deterministic print" `Quick test_jsonx_print;
        Alcotest.test_case "non-finite floats" `Quick test_jsonx_nonfinite;
        Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_jsonx_parse_errors;
        Alcotest.test_case "unicode escapes" `Quick test_jsonx_unicode_escape;
        Alcotest.test_case "unicode escapes need four hex digits" `Quick
          test_jsonx_unicode_escape_strict;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "registry + kind clash" `Quick test_metrics_registry;
        Alcotest.test_case "scoped recording" `Quick test_metrics_scope;
        Alcotest.test_case "json snapshot" `Quick test_metrics_json;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "ring wrap drops oldest" `Quick test_trace_ring_wrap;
        Alcotest.test_case "no-op when off" `Quick test_trace_off_is_noop;
        Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
      ] );
    ("obs.schema", [ Alcotest.test_case "rejections" `Quick test_schema_rejects ]);
    ( "obs.run",
      [
        Alcotest.test_case "traced run reproducible" `Quick test_traced_run_reproducible;
        Alcotest.test_case "observation non-perturbing" `Quick test_observation_does_not_perturb;
        Alcotest.test_case "exports valid, 6+ tracks" `Quick test_traced_run_valid_and_covered;
      ] );
  ]
