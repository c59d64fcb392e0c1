type track =
  | Scheduler
  | Txn
  | Vsorter
  | Vcutter
  | Governor
  | Wal
  | Engine
  | Fault
  | Watchdog

let track_name = function
  | Scheduler -> "scheduler"
  | Txn -> "txn"
  | Vsorter -> "vSorter"
  | Vcutter -> "vCutter"
  | Governor -> "governor"
  | Wal -> "WAL"
  | Engine -> "engine"
  | Fault -> "fault"
  | Watchdog -> "watchdog"

let track_tid = function
  | Scheduler -> 1
  | Txn -> 2
  | Vsorter -> 3
  | Vcutter -> 4
  | Governor -> 5
  | Wal -> 6
  | Engine -> 7
  | Fault -> 8
  | Watchdog -> 9

let all_tracks = [ Scheduler; Txn; Vsorter; Vcutter; Governor; Wal; Engine; Fault; Watchdog ]

type arg = I of int | F of float | S of string
type kind = Span of int | Instant | Count of int
type event = { track : track; name : string; at : int; kind : kind; args : (string * arg) list }

type t = {
  cap : int;
  buf : event option array;
  mutable len : int;
  mutable next : int; (* ring write index *)
  mutable emitted : int;
}

let create ?(capacity = 1 lsl 18) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { cap = capacity; buf = Array.make capacity None; len = 0; next = 0; emitted = 0 }

let length t = t.len
let emitted t = t.emitted
let dropped t = t.emitted - t.len

let record t e =
  t.buf.(t.next) <- Some e;
  t.next <- (t.next + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1;
  t.emitted <- t.emitted + 1

let events t =
  let start = if t.len < t.cap then 0 else t.next in
  List.init t.len (fun i ->
      match t.buf.((start + i) mod t.cap) with
      | Some e -> e
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* Scoped tracer *)

let current : t option ref = ref None

let with_tracer t f =
  let saved = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := saved) f

let on () = !current <> None

let span track name ~start ~dur args =
  match !current with
  | None -> ()
  | Some t -> record t { track; name; at = start; kind = Span (max 0 dur); args }

let instant track name ~at args =
  match !current with
  | None -> ()
  | Some t -> record t { track; name; at; kind = Instant; args }

let count track name ~at value =
  match !current with
  | None -> ()
  | Some t -> record t { track; name; at; kind = Count value; args = [] }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

let us_of_ns ns = float_of_int ns /. 1000.

let arg_json = function
  | I n -> Jsonx.Int n
  | F f -> Jsonx.Float f
  | S s -> Jsonx.Str s

let event_json e =
  let base =
    [
      ("name", Jsonx.Str e.name);
      ("cat", Jsonx.Str (track_name e.track));
      ("pid", Jsonx.Int 1);
      ("tid", Jsonx.Int (track_tid e.track));
      ("ts", Jsonx.Float (us_of_ns e.at));
    ]
  in
  let args = List.map (fun (k, v) -> (k, arg_json v)) e.args in
  match e.kind with
  | Span dur ->
      Jsonx.Obj
        (base
        @ [ ("ph", Jsonx.Str "X"); ("dur", Jsonx.Float (us_of_ns dur)); ("args", Jsonx.Obj args) ]
        )
  | Instant ->
      Jsonx.Obj (base @ [ ("ph", Jsonx.Str "i"); ("s", Jsonx.Str "t"); ("args", Jsonx.Obj args) ])
  | Count value ->
      Jsonx.Obj
        (base @ [ ("ph", Jsonx.Str "C"); ("args", Jsonx.Obj [ ("value", Jsonx.Int value) ]) ])

let metadata_json =
  let meta ~tid ~name ~value =
    Jsonx.Obj
      [
        ("name", Jsonx.Str name);
        ("ph", Jsonx.Str "M");
        ("pid", Jsonx.Int 1);
        ("tid", Jsonx.Int tid);
        ("args", Jsonx.Obj [ ("name", Jsonx.Str value) ]);
      ]
  in
  meta ~tid:0 ~name:"process_name" ~value:"vdriver"
  :: List.concat_map
       (fun tr ->
         [
           meta ~tid:(track_tid tr) ~name:"thread_name" ~value:(track_name tr);
           Jsonx.Obj
             [
               ("name", Jsonx.Str "thread_sort_index");
               ("ph", Jsonx.Str "M");
               ("pid", Jsonx.Int 1);
               ("tid", Jsonx.Int (track_tid tr));
               ("args", Jsonx.Obj [ ("sort_index", Jsonx.Int (track_tid tr)) ]);
             ];
         ])
       all_tracks

let to_chrome_json t =
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.Arr (metadata_json @ List.map event_json (events t)));
      ("displayTimeUnit", Jsonx.Str "ns");
      ( "otherData",
        Jsonx.Obj
          [
            ("emitted", Jsonx.Int t.emitted);
            ("dropped", Jsonx.Int (dropped t));
            ("capacity", Jsonx.Int t.cap);
          ] );
    ]
