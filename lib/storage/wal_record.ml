type payload =
  | Txn_begin of { tid : int }
  | Txn_commit of { tid : int; cts : int }
  | Txn_abort of { tid : int; ats : int }
  | Version_insert of { tid : int; rid : int; value : int }
  | Relocate of {
      rid : int;
      vs : int;
      ve : int;
      vs_time : int;
      ve_time : int;
      bytes : int;
      value : int;
      seg_id : int;
      cls : string;
      lo : int;
      hi : int;
    }
  | Seg_harden of { seg_id : int }
  | Seg_drop of { seg_id : int }
  | Seg_cut of { seg_id : int }
  | Ckpt_begin
  | Ckpt_end of { snapshot : Checkpoint.t option }
  | Prepare of { tid : int; coord : int; shards : int list }
  | Coord_commit of { gid : int; cts : int; shards : int list }
  | Coord_abort of { gid : int }
  | Ack of { gid : int; shard : int }
  | Forget of { gid : int }
  | Promote of { epoch : int; node : int }
  | Rep_ack of { epoch : int; node : int; upto : int }

type t = { lsn : int; at : int; shard : int; payload : payload }

let kind_name = function
  | Txn_begin _ -> "txn-begin"
  | Txn_commit _ -> "txn-commit"
  | Txn_abort _ -> "txn-abort"
  | Version_insert _ -> "version-insert"
  | Relocate _ -> "relocate"
  | Seg_harden _ -> "seg-harden"
  | Seg_drop _ -> "seg-drop"
  | Seg_cut _ -> "seg-cut"
  | Ckpt_begin -> "ckpt-begin"
  | Ckpt_end _ -> "ckpt-end"
  | Prepare _ -> "2pc-prepare"
  | Coord_commit _ -> "2pc-commit"
  | Coord_abort _ -> "2pc-abort"
  | Ack _ -> "2pc-ack"
  | Forget _ -> "2pc-forget"
  | Promote _ -> "rep-promote"
  | Rep_ack _ -> "rep-ack"

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
      [ ("snapshot", match snapshot with Some ck -> Checkpoint.to_json ck | None -> Jsonx.Null) ]
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

(* ------------------------------------------------------------------ *)
(* Reference codec: the frame as a [Jsonx] tree *)

let body_fields t =
  (* The shard tag is emitted only when nonzero: shard 0 is the
     unsharded (single-pipeline) namespace and its frames must stay
     byte-identical to the pre-sharding format. *)
  let shard_field = if t.shard = 0 then [] else [ ("sh", Jsonx.Int t.shard) ] in
  [ ("lsn", Jsonx.Int t.lsn); ("at", Jsonx.Int t.at) ]
  @ shard_field
  @ [ ("kind", Jsonx.Str (kind_name t.payload)) ]
  @ payload_fields t.payload

let encode_reference t =
  let fields = body_fields t in
  let crc = Crc32.string (Jsonx.to_string (Jsonx.Obj fields)) in
  Jsonx.to_string (Jsonx.Obj (fields @ [ ("crc", Jsonx.Int crc) ]))

let int_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing int field %S" name)

let str_field name obj =
  match Option.bind (Jsonx.member name obj) Jsonx.to_str with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string field %S" name)

let ( let* ) = Result.bind

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
      | Some j -> Ok (Ckpt_end { snapshot = Result.to_option (Checkpoint.of_json j) })
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

let decode_reference ?(check_crc = true) repr =
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

(* ------------------------------------------------------------------ *)
(* Direct codec: the same bytes, written and scanned in place *)

let add_member = Canon.add_member

let add_shards buf key shards =
  Canon.add_string buf key;
  Canon.add_list buf Canon.add_int shards

let add_payload buf = function
  | Txn_begin { tid } -> add_member buf ",\"tid\":" tid
  | Txn_commit { tid; cts } ->
      add_member buf ",\"tid\":" tid;
      add_member buf ",\"cts\":" cts
  | Txn_abort { tid; ats } ->
      add_member buf ",\"tid\":" tid;
      add_member buf ",\"ats\":" ats
  | Version_insert { tid; rid; value } ->
      add_member buf ",\"tid\":" tid;
      add_member buf ",\"rid\":" rid;
      add_member buf ",\"value\":" value
  | Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      add_member buf ",\"rid\":" rid;
      add_member buf ",\"vs\":" vs;
      add_member buf ",\"ve\":" ve;
      add_member buf ",\"vs_time\":" vs_time;
      add_member buf ",\"ve_time\":" ve_time;
      add_member buf ",\"bytes\":" bytes;
      add_member buf ",\"value\":" value;
      add_member buf ",\"seg\":" seg_id;
      Canon.add_string buf ",\"cls\":";
      Canon.add_str buf cls;
      add_member buf ",\"lo\":" lo;
      add_member buf ",\"hi\":" hi
  | Seg_harden { seg_id } | Seg_drop { seg_id } | Seg_cut { seg_id } ->
      add_member buf ",\"seg\":" seg_id
  | Ckpt_begin -> ()
  | Ckpt_end { snapshot = Some ck } ->
      Canon.add_string buf ",\"snapshot\":";
      Checkpoint.write buf ck
  | Ckpt_end { snapshot = None } -> Canon.add_string buf ",\"snapshot\":null"
  | Prepare { tid; coord; shards } ->
      add_member buf ",\"tid\":" tid;
      add_member buf ",\"coord\":" coord;
      add_shards buf ",\"shards\":" shards
  | Coord_commit { gid; cts; shards } ->
      add_member buf ",\"gid\":" gid;
      add_member buf ",\"cts\":" cts;
      add_shards buf ",\"shards\":" shards
  | Coord_abort { gid } | Forget { gid } -> add_member buf ",\"gid\":" gid
  | Ack { gid; shard } ->
      add_member buf ",\"gid\":" gid;
      add_member buf ",\"shard\":" shard
  | Promote { epoch; node } ->
      add_member buf ",\"epoch\":" epoch;
      add_member buf ",\"node\":" node
  | Rep_ack { epoch; node; upto } ->
      add_member buf ",\"epoch\":" epoch;
      add_member buf ",\"node\":" node;
      add_member buf ",\"upto\":" upto

(* The checksum covers the body as a closed object: every byte before
   [,"crc":], then [}]. *)
let close_crc crc = Crc32.update_sub crc "}" 0 1
let body_crc s ~len = close_crc (Crc32.update_sub 0 s 0 len)

(* One buffer per domain, reused frame after frame: Domains mode logs
   from several domains at once. Only the finished frame is copied out. *)
let frame_buf = Domain.DLS.new_key (fun () -> Canon.out 256)

let frame ~crc_mask t =
  let buf = Domain.DLS.get frame_buf in
  Canon.clear buf;
  add_member buf "{\"lsn\":" t.lsn;
  add_member buf ",\"at\":" t.at;
  if t.shard <> 0 then add_member buf ",\"sh\":" t.shard;
  Canon.add_string buf ",\"kind\":\"";
  Canon.add_string buf (kind_name t.payload);
  Canon.add_char buf '"';
  add_payload buf t.payload;
  add_member buf ",\"crc\":" (close_crc (Canon.crc32 0 buf) lxor crc_mask);
  Canon.add_char buf '}';
  Canon.contents buf

let encode t = frame ~crc_mask:0 t

(* A deliberately stale checksum: the frame parses as JSON but fails
   verification — the shape of a torn sector whose payload bytes were
   written and whose trailing checksum was not. *)
let encode_with_bad_crc t = frame ~crc_mask:0x5a5a5a5a t

(* The scanner accepts only the bytes [frame] writes (with any crc), and
   raises [Canon.Not_canonical] on anything else, including a crc
   mismatch. *)
let expect = Canon.expect
let member = Canon.member
let str = Canon.str

let shards c key =
  expect c key;
  Canon.list c Canon.int

let snapshot c =
  if Canon.looking_at c "null" then begin
    expect c "null";
    None
  end
  else Some (Checkpoint.scan c)

(* Members are read with [let] in frame order: OCaml evaluates record
   fields in no fixed order. *)
let scan_payload c = function
  | "txn-begin" ->
      let tid = member c ",\"tid\":" in
      Txn_begin { tid }
  | "txn-commit" ->
      let tid = member c ",\"tid\":" in
      let cts = member c ",\"cts\":" in
      Txn_commit { tid; cts }
  | "txn-abort" ->
      let tid = member c ",\"tid\":" in
      let ats = member c ",\"ats\":" in
      Txn_abort { tid; ats }
  | "version-insert" ->
      let tid = member c ",\"tid\":" in
      let rid = member c ",\"rid\":" in
      let value = member c ",\"value\":" in
      Version_insert { tid; rid; value }
  | "relocate" ->
      let rid = member c ",\"rid\":" in
      let vs = member c ",\"vs\":" in
      let ve = member c ",\"ve\":" in
      let vs_time = member c ",\"vs_time\":" in
      let ve_time = member c ",\"ve_time\":" in
      let bytes = member c ",\"bytes\":" in
      let value = member c ",\"value\":" in
      let seg_id = member c ",\"seg\":" in
      expect c ",\"cls\":";
      let cls = str c in
      let lo = member c ",\"lo\":" in
      let hi = member c ",\"hi\":" in
      Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }
  | "seg-harden" -> Seg_harden { seg_id = member c ",\"seg\":" }
  | "seg-drop" -> Seg_drop { seg_id = member c ",\"seg\":" }
  | "seg-cut" -> Seg_cut { seg_id = member c ",\"seg\":" }
  | "ckpt-begin" -> Ckpt_begin
  | "ckpt-end" ->
      expect c ",\"snapshot\":";
      Ckpt_end { snapshot = snapshot c }
  | "2pc-prepare" ->
      let tid = member c ",\"tid\":" in
      let coord = member c ",\"coord\":" in
      let shards = shards c ",\"shards\":" in
      Prepare { tid; coord; shards }
  | "2pc-commit" ->
      let gid = member c ",\"gid\":" in
      let cts = member c ",\"cts\":" in
      let shards = shards c ",\"shards\":" in
      Coord_commit { gid; cts; shards }
  | "2pc-abort" -> Coord_abort { gid = member c ",\"gid\":" }
  | "2pc-ack" ->
      let gid = member c ",\"gid\":" in
      let shard = member c ",\"shard\":" in
      Ack { gid; shard }
  | "2pc-forget" -> Forget { gid = member c ",\"gid\":" }
  | "rep-promote" ->
      let epoch = member c ",\"epoch\":" in
      let node = member c ",\"node\":" in
      Promote { epoch; node }
  | "rep-ack" ->
      let epoch = member c ",\"epoch\":" in
      let node = member c ",\"node\":" in
      let upto = member c ",\"upto\":" in
      Rep_ack { epoch; node; upto }
  | _ -> raise Canon.Not_canonical

let scan ~check_crc s =
  let n = String.length s in
  if n = 0 || String.unsafe_get s (n - 1) <> '}' then raise Canon.Not_canonical;
  (* The crc suffix, read from the end: [,"crc":N}]. *)
  let i = ref (n - 2) in
  while !i >= 0 && Canon.is_digit (String.unsafe_get s !i) do
    decr i
  done;
  if !i >= 0 && String.unsafe_get s !i = '-' then decr i;
  let lim = !i + 1 - String.length ",\"crc\":" in
  if lim < 0 then raise Canon.Not_canonical;
  let stored = member { Canon.s; lim = n - 1; pos = lim } ",\"crc\":" in
  if check_crc && stored <> body_crc s ~len:lim then raise Canon.Not_canonical;
  let c = { Canon.s; lim; pos = 0 } in
  let lsn = member c "{\"lsn\":" in
  let at = member c ",\"at\":" in
  (* Either [,"sh":S,"kind":] with S nonzero, or [,"kind":]. *)
  expect c ",\"";
  let shard =
    if Canon.looking_at c "s" then begin
      let sh = member c "sh\":" in
      if sh = 0 then raise Canon.Not_canonical;
      expect c ",\"";
      sh
    end
    else 0
  in
  expect c "kind\":";
  let payload = scan_payload c (str c) in
  if c.pos <> lim then raise Canon.Not_canonical;
  { lsn; at; shard; payload }

let decode ?(check_crc = true) repr =
  match scan ~check_crc repr with
  | r -> Ok r
  | exception Canon.Not_canonical -> decode_reference ~check_crc repr

(* The kind member ends the frame header, which holds at most three
   ints of at most 20 characters, so it lies within the first 128
   bytes. *)
let has_key repr key =
  let k = String.length key and lim = min 128 (String.length repr) in
  let rec matches i j = j = k || (repr.[i + j] = key.[j] && matches i (j + 1)) in
  let rec at i = i + k <= lim && (matches i 0 || at (i + 1)) in
  at 0

let outcome_tid repr =
  if has_key repr "\"kind\":\"txn-commit\"" || has_key repr "\"kind\":\"txn-abort\"" then
    match decode repr with
    | Ok { payload = Txn_commit { tid; _ } | Txn_abort { tid; _ }; _ } -> Some tid
    | Ok _ | Error _ -> None
  else None
