(* A reference codec of the WAL's binary layout, written apart from the
   codecs in lib/storage ({!Wire}, {!Wal_record}, {!Checkpoint}) and
   slow on purpose: a frame is first a list of tokens and then bytes,
   reading walks a list of byte values and returns results instead of
   raising, and the checksum is computed bit by bit. It is the oracle
   of the codec properties in test_recovery.ml.

   The layout: a kind byte (the constructor's index in
   {!Wal_record.payload}), then [lsn], [at] and [shard], then the
   payload's fields in the constructor's order, then the CRC-32 of
   every byte before it in 4 bytes, least significant first. An int is
   the zigzag of its value in base 128, least significant group first,
   with the high bit set on every byte but the last; it has one
   spelling: at most nine bytes, and no last byte of 0 after the first.
   A string or a list is its count, an int, then its bytes or items; a
   boolean is one byte, 0 or 1. A [Ckpt_end] snapshot is a boolean
   (present or not), then the snapshot's members in the order of
   {!Checkpoint.t}'s fields. *)

(* ------------------------------------------------------------------ *)
(* Tokens: the values of a frame before they are bytes. The codec
   properties rewrite single tokens (a count inflated, an int spelled
   overlong) to build frames the direct codec must refuse. *)

type token = Byte of int | Int of int | Count of int | Raw of string

let str s = [ Count (String.length s); Raw s ]
let list f xs = Count (List.length xs) :: List.concat_map f xs
let ints = List.map (fun n -> Int n)
let pair (a, b) = ints [ a; b ]

let checkpoint_tokens (ck : Checkpoint.t) =
  let seg_version (v : Checkpoint.seg_version) =
    ints [ v.rid; v.vs; v.ve; v.vs_time; v.ve_time; v.bytes; v.value; v.lo; v.hi ]
  in
  let seg (s : Checkpoint.seg) =
    (Int s.seg_id :: str s.cls) @ (Byte (if s.hardened then 1 else 0) :: list seg_version s.versions)
  in
  let row (r : Checkpoint.row) = ints [ r.rid; r.value; r.vs; r.vs_time; r.cts ] in
  let write (w : Checkpoint.pending_write) = ints [ w.rid; w.value; w.vs_time ] in
  let pending (p : Checkpoint.pending) = Int p.tid :: list write p.writes in
  List.concat
    [
      ints [ ck.at; ck.oracle_next ];
      list (fun n -> [ Int n ]) ck.live;
      list pair ck.committed;
      list pair ck.aborted;
      list row ck.rows;
      list pending ck.pending;
      list seg ck.segments;
      [ Int ck.next_seg_id ];
      list pair ck.prepared;
      list pair ck.decisions;
    ]

let payload_tokens : Wal_record.payload -> int * token list = function
  | Txn_begin { tid } -> (0, ints [ tid ])
  | Txn_commit { tid; cts } -> (1, ints [ tid; cts ])
  | Txn_abort { tid; ats } -> (2, ints [ tid; ats ])
  | Version_insert { tid; rid; value } -> (3, ints [ tid; rid; value ])
  | Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi } ->
      (4, ints [ rid; vs; ve; vs_time; ve_time; bytes; value; seg_id ] @ str cls @ ints [ lo; hi ])
  | Seg_harden { seg_id } -> (5, ints [ seg_id ])
  | Seg_drop { seg_id } -> (6, ints [ seg_id ])
  | Seg_cut { seg_id } -> (7, ints [ seg_id ])
  | Ckpt_begin -> (8, [])
  | Ckpt_end { snapshot = None } -> (9, [ Byte 0 ])
  | Ckpt_end { snapshot = Some ck } -> (9, Byte 1 :: checkpoint_tokens ck)
  | Prepare { tid; coord; shards } -> (10, ints [ tid; coord ] @ list (fun s -> [ Int s ]) shards)
  | Coord_commit { gid; cts; shards } -> (11, ints [ gid; cts ] @ list (fun s -> [ Int s ]) shards)
  | Coord_abort { gid } -> (12, ints [ gid ])
  | Ack { gid; shard } -> (13, ints [ gid; shard ])
  | Forget { gid } -> (14, ints [ gid ])
  | Promote { epoch; node } -> (15, ints [ epoch; node ])
  | Rep_ack { epoch; node; upto } -> (16, ints [ epoch; node; upto ])

(* The tokens of a frame's body: everything before the checksum. *)
let frame_tokens (r : Wal_record.t) =
  let kind, payload = payload_tokens r.payload in
  Byte kind :: ints [ r.lsn; r.at; r.shard ] @ payload

(* ------------------------------------------------------------------ *)
(* Bytes *)

(* The 63-bit pattern an int is written as: 2n for n >= 0, and
   2(-n-1)+1 below. *)
let zigzag n = if n >= 0 then n lsl 1 else (lnot n lsl 1) lor 1

let rec groups z = if z lsr 7 = 0 then [ z ] else ((z land 127) lor 128) :: groups (z lsr 7)
let int_bytes n = groups (zigzag n)

let token_bytes = function
  | Byte b -> [ b ]
  | Int n | Count n -> int_bytes n
  | Raw s -> List.map Char.code (List.of_seq (String.to_seq s))

let string_of_byte_list bs = String.of_seq (List.to_seq (List.map Char.chr bs))
let bytes_of_tokens toks = string_of_byte_list (List.concat_map token_bytes toks)

(* CRC-32, IEEE polynomial, reflected, one bit at a time. *)
let crc32 s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xedb88320 else !c lsr 1
      done)
    s;
  !c lxor 0xffffffff

let le32 x = string_of_byte_list (List.init 4 (fun i -> (x lsr (8 * i)) land 255))

(* [body] followed by its checksum xored with [mask]. *)
let seal ?(mask = 0) body = body ^ le32 (crc32 body lxor mask)
let encode r = seal (bytes_of_tokens (frame_tokens r))
let checkpoint_to_bytes ck = bytes_of_tokens (checkpoint_tokens ck)

(* ------------------------------------------------------------------ *)
(* Reading: a parser takes the byte values left and returns a value and
   the bytes after it. *)

let ( let* ) = Result.bind

let byte = function b :: rest -> Ok (b, rest) | [] -> Error "out of bytes"

let bool bs =
  let* b, rest = byte bs in
  match b with 0 -> Ok (false, rest) | 1 -> Ok (true, rest) | _ -> Error "boolean not 0 or 1"

(* The groups of one int, least significant first: up to eight with
   the high bit set, then one without. *)
let rec int_groups acc bs =
  let* b, rest = byte bs in
  if b < 128 then Ok (List.rev (b :: acc), rest)
  else if List.length acc = 8 then Error "int past 63 bits"
  else int_groups (b :: acc) rest

let int bs =
  let* gs, rest = int_groups [] bs in
  if List.length gs > 1 && List.nth gs (List.length gs - 1) = 0 then Error "overlong int"
  else
    let z = List.fold_right (fun g z -> (z lsl 7) lor (g land 127)) gs 0 in
    Ok ((if z land 1 = 0 then z lsr 1 else lnot (z lsr 1)), rest)

let count bs =
  let* n, rest = int bs in
  if n < 0 then Error "negative count" else Ok (n, rest)

let string bs =
  let* n, rest = count bs in
  let rec take n acc bs =
    if n = 0 then Ok (string_of_byte_list (List.rev acc), bs)
    else
      let* b, bs = byte bs in
      take (n - 1) (b :: acc) bs
  in
  take n [] rest

let items elem bs =
  let* n, rest = count bs in
  let rec go n acc bs =
    if n = 0 then Ok (List.rev acc, bs)
    else
      let* x, bs = elem bs in
      go (n - 1) (x :: acc) bs
  in
  go n [] rest

(* [k] ints, in order. *)
let rec ints_of k bs =
  if k = 0 then Ok ([], bs)
  else
    let* x, bs = int bs in
    let* xs, bs = ints_of (k - 1) bs in
    Ok (x :: xs, bs)

let pair_of bs =
  let* xs, bs = ints_of 2 bs in
  match xs with [ a; b ] -> Ok ((a, b), bs) | _ -> assert false

let checkpoint bs : (Checkpoint.t * int list, string) result =
  let seg_version bs =
    let* xs, bs = ints_of 9 bs in
    match xs with
    | [ rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi ] ->
        Ok ({ Checkpoint.rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }, bs)
    | _ -> assert false
  in
  let seg bs =
    let* seg_id, bs = int bs in
    let* cls, bs = string bs in
    let* hardened, bs = bool bs in
    let* versions, bs = items seg_version bs in
    Ok ({ Checkpoint.seg_id; cls; hardened; versions }, bs)
  in
  let row bs =
    let* xs, bs = ints_of 5 bs in
    match xs with
    | [ rid; value; vs; vs_time; cts ] -> Ok ({ Checkpoint.rid; value; vs; vs_time; cts }, bs)
    | _ -> assert false
  in
  let write bs =
    let* xs, bs = ints_of 3 bs in
    match xs with
    | [ rid; value; vs_time ] -> Ok ({ Checkpoint.rid; value; vs_time }, bs)
    | _ -> assert false
  in
  let pending bs =
    let* tid, bs = int bs in
    let* writes, bs = items write bs in
    Ok ({ Checkpoint.tid; writes }, bs)
  in
  let* at, bs = int bs in
  let* oracle_next, bs = int bs in
  let* live, bs = items int bs in
  let* committed, bs = items pair_of bs in
  let* aborted, bs = items pair_of bs in
  let* rows, bs = items row bs in
  let* pending, bs = items pending bs in
  let* segments, bs = items seg bs in
  let* next_seg_id, bs = int bs in
  let* prepared, bs = items pair_of bs in
  let* decisions, bs = items pair_of bs in
  Ok
    ( {
        Checkpoint.at;
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
      },
      bs )

let payload kind bs : (Wal_record.payload * int list, string) result =
  let fields k bs = ints_of k bs in
  match kind with
  | 0 ->
      let* xs, bs = fields 1 bs in
      Ok (Wal_record.Txn_begin { tid = List.hd xs }, bs)
  | 1 -> (
      let* xs, bs = fields 2 bs in
      match xs with [ tid; cts ] -> Ok (Wal_record.Txn_commit { tid; cts }, bs) | _ -> assert false)
  | 2 -> (
      let* xs, bs = fields 2 bs in
      match xs with [ tid; ats ] -> Ok (Wal_record.Txn_abort { tid; ats }, bs) | _ -> assert false)
  | 3 -> (
      let* xs, bs = fields 3 bs in
      match xs with
      | [ tid; rid; value ] -> Ok (Wal_record.Version_insert { tid; rid; value }, bs)
      | _ -> assert false)
  | 4 -> (
      let* xs, bs = fields 8 bs in
      let* cls, bs = string bs in
      let* ys, bs = fields 2 bs in
      match (xs, ys) with
      | [ rid; vs; ve; vs_time; ve_time; bytes; value; seg_id ], [ lo; hi ] ->
          Ok (Wal_record.Relocate { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }, bs)
      | _ -> assert false)
  | 5 | 6 | 7 ->
      let* seg_id, bs = int bs in
      Ok
        ( (match kind with
          | 5 -> Wal_record.Seg_harden { seg_id }
          | 6 -> Wal_record.Seg_drop { seg_id }
          | _ -> Wal_record.Seg_cut { seg_id }),
          bs )
  | 8 -> Ok (Wal_record.Ckpt_begin, bs)
  | 9 ->
      let* present, bs = bool bs in
      if present then
        let* ck, bs = checkpoint bs in
        Ok (Wal_record.Ckpt_end { snapshot = Some ck }, bs)
      else Ok (Wal_record.Ckpt_end { snapshot = None }, bs)
  | 10 | 11 -> (
      let* xs, bs = fields 2 bs in
      let* shards, bs = items int bs in
      match xs with
      | [ a; b ] when kind = 10 -> Ok (Wal_record.Prepare { tid = a; coord = b; shards }, bs)
      | [ a; b ] -> Ok (Wal_record.Coord_commit { gid = a; cts = b; shards }, bs)
      | _ -> assert false)
  | 12 ->
      let* gid, bs = int bs in
      Ok (Wal_record.Coord_abort { gid }, bs)
  | 13 -> (
      let* xs, bs = fields 2 bs in
      match xs with [ gid; shard ] -> Ok (Wal_record.Ack { gid; shard }, bs) | _ -> assert false)
  | 14 ->
      let* gid, bs = int bs in
      Ok (Wal_record.Forget { gid }, bs)
  | 15 -> (
      let* xs, bs = fields 2 bs in
      match xs with [ epoch; node ] -> Ok (Wal_record.Promote { epoch; node }, bs) | _ -> assert false)
  | 16 -> (
      let* xs, bs = fields 3 bs in
      match xs with
      | [ epoch; node; upto ] -> Ok (Wal_record.Rep_ack { epoch; node; upto }, bs)
      | _ -> assert false)
  | k -> Error (Printf.sprintf "unknown kind byte %d" k)

let byte_list s = List.map Char.code (List.of_seq (String.to_seq s))

let whole parse s =
  let* v, rest = parse (byte_list s) in
  if rest = [] then Ok v else Error "bytes left after the value"

let checkpoint_of_bytes s = whole checkpoint s

let record bs =
  let* kind, bs = byte bs in
  let* xs, bs = ints_of 3 bs in
  let* payload, bs = payload kind bs in
  match xs with [ lsn; at; shard ] -> Ok ({ Wal_record.lsn; at; shard; payload }, bs) | _ -> assert false

let decode ?(check_crc = true) s =
  let n = String.length s in
  if n < 4 then Error "shorter than a checksum"
  else
    let body = String.sub s 0 (n - 4) in
    if check_crc && seal body <> s then Error "checksum does not match"
    else whole record body
