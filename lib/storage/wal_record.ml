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

(* ------------------------------------------------------------------ *)
(* The frame, written and scanned in place *)

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

let snapshot c = if Canon.skip c "null" then None else Some (Checkpoint.scan c)
let kind = Canon.skip
let no_kind () = raise Canon.Not_canonical

(* The kind name is matched in place, closing quote included, so no
   string is built for it: its first byte picks the few names to try.
   Members are read with [let] in frame order: OCaml evaluates record
   fields in no fixed order. *)
let scan_payload c =
  if c.Canon.pos >= c.lim then no_kind ();
  match String.unsafe_get c.s c.pos with
  | 't' ->
      if kind c "txn-begin\"" then
        let tid = member c ",\"tid\":" in
        Txn_begin { tid }
      else if kind c "txn-commit\"" then
        let tid = member c ",\"tid\":" in
        let cts = member c ",\"cts\":" in
        Txn_commit { tid; cts }
      else if kind c "txn-abort\"" then
        let tid = member c ",\"tid\":" in
        let ats = member c ",\"ats\":" in
        Txn_abort { tid; ats }
      else no_kind ()
  | 'v' ->
      if kind c "version-insert\"" then
        let tid = member c ",\"tid\":" in
        let rid = member c ",\"rid\":" in
        let value = member c ",\"value\":" in
        Version_insert { tid; rid; value }
      else no_kind ()
  | 'r' ->
      if kind c "rep-ack\"" then
        let epoch = member c ",\"epoch\":" in
        let node = member c ",\"node\":" in
        let upto = member c ",\"upto\":" in
        Rep_ack { epoch; node; upto }
      else if kind c "relocate\"" then
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
      else if kind c "rep-promote\"" then
        let epoch = member c ",\"epoch\":" in
        let node = member c ",\"node\":" in
        Promote { epoch; node }
      else no_kind ()
  | '2' ->
      if kind c "2pc-prepare\"" then
        let tid = member c ",\"tid\":" in
        let coord = member c ",\"coord\":" in
        let shards = shards c ",\"shards\":" in
        Prepare { tid; coord; shards }
      else if kind c "2pc-commit\"" then
        let gid = member c ",\"gid\":" in
        let cts = member c ",\"cts\":" in
        let shards = shards c ",\"shards\":" in
        Coord_commit { gid; cts; shards }
      else if kind c "2pc-ack\"" then
        let gid = member c ",\"gid\":" in
        let shard = member c ",\"shard\":" in
        Ack { gid; shard }
      else if kind c "2pc-forget\"" then Forget { gid = member c ",\"gid\":" }
      else if kind c "2pc-abort\"" then Coord_abort { gid = member c ",\"gid\":" }
      else no_kind ()
  | 's' ->
      if kind c "seg-harden\"" then Seg_harden { seg_id = member c ",\"seg\":" }
      else if kind c "seg-drop\"" then Seg_drop { seg_id = member c ",\"seg\":" }
      else if kind c "seg-cut\"" then Seg_cut { seg_id = member c ",\"seg\":" }
      else no_kind ()
  | 'c' ->
      if kind c "ckpt-begin\"" then Ckpt_begin
      else if kind c "ckpt-end\"" then begin
        expect c ",\"snapshot\":";
        Ckpt_end { snapshot = snapshot c }
      end
      else no_kind ()
  | _ -> no_kind ()

(* One cursor per domain, like [frame_buf], pointed at each frame in
   turn. *)
let scan_cursor = Domain.DLS.new_key (fun () -> { Canon.s = ""; lim = 0; pos = 0 })

let scan_frame ~check_crc c s =
  let n = String.length s in
  if n = 0 || String.unsafe_get s (n - 1) <> '}' then raise Canon.Not_canonical;
  (* The crc suffix, read from the end: [,"crc":N}]. *)
  let i = ref (n - 2) in
  while !i >= 0 && Canon.is_digit (String.unsafe_get s !i) do
    decr i
  done;
  if !i >= 0 && String.unsafe_get s !i = '-' then decr i;
  let body = !i + 1 - String.length ",\"crc\":" in
  if body < 0 then raise Canon.Not_canonical;
  c.Canon.s <- s;
  c.lim <- n - 1;
  c.pos <- body;
  let stored = member c ",\"crc\":" in
  if check_crc && stored <> body_crc s ~len:body then raise Canon.Not_canonical;
  (* Then the body, which ends where the crc suffix begins. *)
  c.lim <- body;
  c.pos <- 0;
  let lsn = member c "{\"lsn\":" in
  let at = member c ",\"at\":" in
  (* Either [,"sh":S,"kind":] with S nonzero, or [,"kind":]. *)
  let shard =
    if Canon.skip c ",\"sh\":" then begin
      let sh = Canon.int c in
      if sh = 0 then raise Canon.Not_canonical;
      sh
    end
    else 0
  in
  expect c ",\"kind\":\"";
  let payload = scan_payload c in
  if c.pos <> c.lim then raise Canon.Not_canonical;
  { lsn; at; shard; payload }

(* The cursor lets go of the frame whether or not it scanned: a
   checkpoint frame can be hundreds of KB. *)
let scan ~check_crc s =
  let c = Domain.DLS.get scan_cursor in
  match scan_frame ~check_crc c s with
  | r ->
      c.s <- "";
      r
  | exception e ->
      c.s <- "";
      raise e

let decode ?(check_crc = true) repr =
  match scan ~check_crc repr with
  | r -> Ok r
  | exception Canon.Not_canonical -> Error "malformed frame, or its crc does not match"

(* The kind member ends the frame header, which holds at most three
   ints of at most 20 characters, so it lies within the first 128
   bytes. *)
let has_key repr key =
  let k = String.length key and lim = min 128 (String.length repr) in
  let i = ref 0 and j = ref 0 in
  while !j < k && !i + k <= lim do
    if String.unsafe_get repr (!i + !j) = String.unsafe_get key !j then incr j
    else begin
      incr i;
      j := 0
    end
  done;
  !j = k

let outcome_tid repr =
  if has_key repr "\"kind\":\"txn-commit\"" || has_key repr "\"kind\":\"txn-abort\"" then
    match scan ~check_crc:true repr with
    | { payload = Txn_commit { tid; _ } | Txn_abort { tid; _ }; _ } -> Some tid
    | _ | (exception Canon.Not_canonical) -> None
  else None
