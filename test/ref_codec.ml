(* The Jsonx-tree codecs of the WAL's two formats: the frame and the
   checkpoint snapshot, each built as a {!Jsonx} tree and printed, or
   parsed and read by member name. They specify the bytes the direct
   codecs in lib/storage write ({!Wal_record.encode},
   {!Checkpoint.write}) and read ({!Wal_record.decode},
   {!Checkpoint.scan}), and are the oracles of the codec properties in
   test_recovery.ml; the library itself ships only the direct codecs. *)

open Checkpoint

(* ------------------------------------------------------------------ *)
(* Checkpoint snapshot *)

let seg_version_json (v : seg_version) =
  Jsonx.Obj
    [
      ("rid", Jsonx.Int v.rid);
      ("vs", Jsonx.Int v.vs);
      ("ve", Jsonx.Int v.ve);
      ("vs_time", Jsonx.Int v.vs_time);
      ("ve_time", Jsonx.Int v.ve_time);
      ("bytes", Jsonx.Int v.bytes);
      ("value", Jsonx.Int v.value);
      ("lo", Jsonx.Int v.lo);
      ("hi", Jsonx.Int v.hi);
    ]

let seg_json s =
  Jsonx.Obj
    [
      ("seg", Jsonx.Int s.seg_id);
      ("cls", Jsonx.Str s.cls);
      ("hardened", Jsonx.Bool s.hardened);
      ("versions", Jsonx.Arr (List.map seg_version_json s.versions));
    ]

let row_json (r : row) =
  Jsonx.Obj
    [
      ("rid", Jsonx.Int r.rid);
      ("value", Jsonx.Int r.value);
      ("vs", Jsonx.Int r.vs);
      ("vs_time", Jsonx.Int r.vs_time);
      ("cts", Jsonx.Int r.cts);
    ]

let pending_json (p : pending) =
  Jsonx.Obj
    [
      ("tid", Jsonx.Int p.tid);
      ( "writes",
        Jsonx.Arr
          (List.map
             (fun w ->
               Jsonx.Obj
                 [
                   ("rid", Jsonx.Int w.rid);
                   ("value", Jsonx.Int w.value);
                   ("vs_time", Jsonx.Int w.vs_time);
                 ])
             p.writes) );
    ]

let outcome_json (tid, ts) = Jsonx.Arr [ Jsonx.Int tid; Jsonx.Int ts ]

let checkpoint_to_json t =
  (* The 2PC members are emitted only when non-empty: unsharded
     snapshots keep the pre-sharding byte format. *)
  let twopc =
    (if t.prepared = [] then []
     else [ ("prepared", Jsonx.Arr (List.map outcome_json t.prepared)) ])
    @
    if t.decisions = [] then []
    else [ ("decisions", Jsonx.Arr (List.map outcome_json t.decisions)) ]
  in
  Jsonx.Obj
    ([
       ("at", Jsonx.Int t.at);
       ("oracle_next", Jsonx.Int t.oracle_next);
       ("live", Jsonx.Arr (List.map (fun ts -> Jsonx.Int ts) t.live));
       ("committed", Jsonx.Arr (List.map outcome_json t.committed));
       ("aborted", Jsonx.Arr (List.map outcome_json t.aborted));
       ("rows", Jsonx.Arr (List.map row_json t.rows));
       ("pending", Jsonx.Arr (List.map pending_json t.pending));
       ("segments", Jsonx.Arr (List.map seg_json t.segments));
       ("next_seg_id", Jsonx.Int t.next_seg_id);
     ]
    @ twopc)

let ( let* ) = Result.bind

let int_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing int field %S" name)

let str_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_str with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string field %S" name)

let bool_field name obj =
  match Jsonx.member name obj with
  | Some (Jsonx.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing bool field %S" name)

let arr_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_arr with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing array field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let outcome_of_json = function
  | Jsonx.Arr [ Jsonx.Int tid; Jsonx.Int ts ] -> Ok (tid, ts)
  | _ -> Error "checkpoint: malformed outcome pair"

let seg_version_of_json j =
  let* rid = int_field "rid" j in
  let* vs = int_field "vs" j in
  let* ve = int_field "ve" j in
  let* vs_time = int_field "vs_time" j in
  let* ve_time = int_field "ve_time" j in
  let* bytes = int_field "bytes" j in
  let* value = int_field "value" j in
  let* lo = int_field "lo" j in
  let* hi = int_field "hi" j in
  Ok { rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }

let seg_of_json j =
  let* seg_id = int_field "seg" j in
  let* cls = str_field "cls" j in
  let* hardened = bool_field "hardened" j in
  let* versions = arr_field "versions" j in
  let* versions = map_result seg_version_of_json versions in
  Ok { seg_id; cls; hardened; versions }

let row_of_json j =
  let* rid = int_field "rid" j in
  let* value = int_field "value" j in
  let* vs = int_field "vs" j in
  let* vs_time = int_field "vs_time" j in
  let* cts = int_field "cts" j in
  Ok { rid; value; vs; vs_time; cts }

let pending_of_json j =
  let* tid = int_field "tid" j in
  let* writes = arr_field "writes" j in
  let* writes =
    map_result
      (fun w ->
        let* rid = int_field "rid" w in
        let* value = int_field "value" w in
        let* vs_time = int_field "vs_time" w in
        Ok { rid; value; vs_time })
      writes
  in
  Ok { tid; writes }

let checkpoint_of_json j =
  let* at = int_field "at" j in
  let* oracle_next = int_field "oracle_next" j in
  let* live = arr_field "live" j in
  let* live =
    map_result
      (function Jsonx.Int ts -> Ok ts | _ -> Error "checkpoint: malformed live entry")
      live
  in
  let* committed = arr_field "committed" j in
  let* committed = map_result outcome_of_json committed in
  let* aborted = arr_field "aborted" j in
  let* aborted = map_result outcome_of_json aborted in
  let* rows = arr_field "rows" j in
  let* rows = map_result row_of_json rows in
  let* pending = arr_field "pending" j in
  let* pending = map_result pending_of_json pending in
  let* segments = arr_field "segments" j in
  let* segments = map_result seg_of_json segments in
  let* next_seg_id = int_field "next_seg_id" j in
  let pairs_opt name =
    match Option.bind (Jsonx.member name j) Jsonx.to_arr with
    | None -> Ok []
    | Some items -> map_result outcome_of_json items
  in
  let* prepared = pairs_opt "prepared" in
  let* decisions = pairs_opt "decisions" in
  Ok
    {
      at;
      oracle_next;
      live;
      committed;
      aborted;
      rows;
      pending;
      segments;
      next_seg_id;
      prepared;
      decisions;
    }
(* ------------------------------------------------------------------ *)
(* WAL frame *)

open Wal_record

let payload_fields = function
  | Txn_begin { tid } -> [ ("tid", Jsonx.Int tid) ]
  | Txn_commit { tid; cts } -> [ ("tid", Jsonx.Int tid); ("cts", Jsonx.Int cts) ]
  | Txn_abort { tid; ats } -> [ ("tid", Jsonx.Int tid); ("ats", Jsonx.Int ats) ]
  | Version_insert { tid; rid; value } ->
      [ ("tid", Jsonx.Int tid); ("rid", Jsonx.Int rid); ("value", Jsonx.Int value) ]
  | Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      [
        ("rid", Jsonx.Int rid);
        ("vs", Jsonx.Int vs);
        ("ve", Jsonx.Int ve);
        ("vs_time", Jsonx.Int vs_time);
        ("ve_time", Jsonx.Int ve_time);
        ("bytes", Jsonx.Int bytes);
        ("value", Jsonx.Int value);
        ("seg", Jsonx.Int seg_id);
        ("cls", Jsonx.Str cls);
        ("lo", Jsonx.Int lo);
        ("hi", Jsonx.Int hi);
      ]
  | Seg_harden { seg_id } | Seg_drop { seg_id } | Seg_cut { seg_id } ->
      [ ("seg", Jsonx.Int seg_id) ]
  | Ckpt_begin -> []
  | Ckpt_end { snapshot } ->
      [ ("snapshot", match snapshot with Some ck -> checkpoint_to_json ck | None -> Jsonx.Null) ]
  | Prepare { tid; coord; shards } ->
      [
        ("tid", Jsonx.Int tid);
        ("coord", Jsonx.Int coord);
        ("shards", Jsonx.Arr (List.map (fun s -> Jsonx.Int s) shards));
      ]
  | Coord_commit { gid; cts; shards } ->
      [
        ("gid", Jsonx.Int gid);
        ("cts", Jsonx.Int cts);
        ("shards", Jsonx.Arr (List.map (fun s -> Jsonx.Int s) shards));
      ]
  | Coord_abort { gid } -> [ ("gid", Jsonx.Int gid) ]
  | Ack { gid; shard } -> [ ("gid", Jsonx.Int gid); ("shard", Jsonx.Int shard) ]
  | Forget { gid } -> [ ("gid", Jsonx.Int gid) ]
  | Promote { epoch; node } -> [ ("epoch", Jsonx.Int epoch); ("node", Jsonx.Int node) ]
  | Rep_ack { epoch; node; upto } ->
      [ ("epoch", Jsonx.Int epoch); ("node", Jsonx.Int node); ("upto", Jsonx.Int upto) ]

let body_fields t =
  (* The shard tag is emitted only when nonzero: shard 0 is the
     unsharded (single-pipeline) namespace and its frames must stay
     byte-identical to the pre-sharding format. *)
  let shard_field = if t.shard = 0 then [] else [ ("sh", Jsonx.Int t.shard) ] in
  [ ("lsn", Jsonx.Int t.lsn); ("at", Jsonx.Int t.at) ]
  @ shard_field
  @ [ ("kind", Jsonx.Str (kind_name t.payload)) ]
  @ payload_fields t.payload

let encode t =
  let fields = body_fields t in
  let crc = Crc32.string (Jsonx.to_string (Jsonx.Obj fields)) in
  Jsonx.to_string (Jsonx.Obj (fields @ [ ("crc", Jsonx.Int crc) ]))

let int_list_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_arr with
  | None -> Error (Printf.sprintf "missing array field %S" name)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match Jsonx.to_int x with
            | Some n -> go (n :: acc) rest
            | None -> Error (Printf.sprintf "non-int element in array field %S" name))
      in
      go [] items

let payload_of_json kind obj =
  match kind with
  | "txn-begin" ->
      let* tid = int_field "tid" obj in
      Ok (Txn_begin { tid })
  | "txn-commit" ->
      let* tid = int_field "tid" obj in
      let* cts = int_field "cts" obj in
      Ok (Txn_commit { tid; cts })
  | "txn-abort" ->
      let* tid = int_field "tid" obj in
      let* ats = int_field "ats" obj in
      Ok (Txn_abort { tid; ats })
  | "version-insert" ->
      let* tid = int_field "tid" obj in
      let* rid = int_field "rid" obj in
      let* value = int_field "value" obj in
      Ok (Version_insert { tid; rid; value })
  | "relocate" ->
      let* rid = int_field "rid" obj in
      let* vs = int_field "vs" obj in
      let* ve = int_field "ve" obj in
      let* vs_time = int_field "vs_time" obj in
      let* ve_time = int_field "ve_time" obj in
      let* bytes = int_field "bytes" obj in
      let* value = int_field "value" obj in
      let* seg_id = int_field "seg" obj in
      let* cls = str_field "cls" obj in
      let* lo = int_field "lo" obj in
      let* hi = int_field "hi" obj in
      Ok (Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi })
  | "seg-harden" ->
      let* seg_id = int_field "seg" obj in
      Ok (Seg_harden { seg_id })
  | "seg-drop" ->
      let* seg_id = int_field "seg" obj in
      Ok (Seg_drop { seg_id })
  | "seg-cut" ->
      let* seg_id = int_field "seg" obj in
      Ok (Seg_cut { seg_id })
  | "ckpt-begin" -> Ok Ckpt_begin
  | "ckpt-end" -> (
      (* A snapshot that is no checkpoint still makes a record: analysis
         keeps it and skips it as an anchor. *)
      match Jsonx.member "snapshot" obj with
      | Some j -> Ok (Ckpt_end { snapshot = Result.to_option (checkpoint_of_json j) })
      | None -> Error "missing field \"snapshot\"")
  | "2pc-prepare" ->
      let* tid = int_field "tid" obj in
      let* coord = int_field "coord" obj in
      let* shards = int_list_field "shards" obj in
      Ok (Prepare { tid; coord; shards })
  | "2pc-commit" ->
      let* gid = int_field "gid" obj in
      let* cts = int_field "cts" obj in
      let* shards = int_list_field "shards" obj in
      Ok (Coord_commit { gid; cts; shards })
  | "2pc-abort" ->
      let* gid = int_field "gid" obj in
      Ok (Coord_abort { gid })
  | "2pc-ack" ->
      let* gid = int_field "gid" obj in
      let* shard = int_field "shard" obj in
      Ok (Ack { gid; shard })
  | "2pc-forget" ->
      let* gid = int_field "gid" obj in
      Ok (Forget { gid })
  | "rep-promote" ->
      let* epoch = int_field "epoch" obj in
      let* node = int_field "node" obj in
      Ok (Promote { epoch; node })
  | "rep-ack" ->
      let* epoch = int_field "epoch" obj in
      let* node = int_field "node" obj in
      let* upto = int_field "upto" obj in
      Ok (Rep_ack { epoch; node; upto })
  | k -> Error (Printf.sprintf "unknown record kind %S" k)

let decode ?(check_crc = true) repr =
  let* json =
    match Jsonx.of_string repr with Ok j -> Ok j | Error e -> Error ("bad frame: " ^ e)
  in
  let* fields =
    match json with Jsonx.Obj fields -> Ok fields | _ -> Error "frame is not an object"
  in
  let* () =
    if not check_crc then Ok ()
    else
      let* stored = int_field "crc" json in
      (* Recompute over the frame minus its crc member, in parsed member
         order — the encoder appends crc last, so a round-tripped frame
         reproduces the exact checksummed bytes. *)
      let body = Jsonx.Obj (List.filter (fun (k, _) -> k <> "crc") fields) in
      let computed = Crc32.string (Jsonx.to_string body) in
      if stored = computed then Ok ()
      else Error (Printf.sprintf "crc mismatch (stored %d, computed %d)" stored computed)
  in
  let* lsn = int_field "lsn" json in
  let* at = int_field "at" json in
  let shard = match Option.bind (Jsonx.member "sh" json) Jsonx.to_int with Some s -> s | None -> 0 in
  let* kind = str_field "kind" json in
  let* payload = payload_of_json kind json in
  Ok { lsn; at; shard; payload }