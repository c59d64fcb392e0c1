(* Crash-recovery tests: WAL record framing and CRC rejection, the
   durable-mode log semantics (LSNs, fsync frontier, power loss), the
   ["wal.fsync"] fail-point's conservative accounting, fuzzy
   checkpoints spanned by in-flight transactions, crash-at-every-LSN
   recovery through the real engine restart path, the torn-tail
   sabotage the honest invariants must catch, and the golden-metrics
   compatibility of non-crash runs. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Record framing *)

let sample_checkpoint =
  {
    Checkpoint.at = 40;
    oracle_next = 17;
    live = [ 12; 15 ];
    committed = [ (12, 16) ];
    aborted = [];
    rows = [ { Checkpoint.rid = 3; value = 42; vs = 7; vs_time = 100; cts = 9 } ];
    pending = [ { Checkpoint.tid = 15; writes = [ { Checkpoint.rid = 4; value = -1; vs_time = 120 } ] } ];
    segments =
      [
        {
          Checkpoint.seg_id = 2;
          cls = "rec";
          hardened = true;
          versions =
            [
              {
                Checkpoint.rid = 3;
                vs = 7;
                ve = 11;
                vs_time = 100;
                ve_time = 200;
                bytes = 64;
                value = 5;
                lo = 9;
                hi = 12;
              };
            ];
        };
      ];
    next_seg_id = 3;
    prepared = [];
    decisions = [];
  }

let sample_payloads : Wal_record.payload list =
  [
    Wal_record.Txn_begin { tid = 7 };
    Wal_record.Txn_commit { tid = 7; cts = 9 };
    Wal_record.Txn_abort { tid = 8; ats = 10 };
    Wal_record.Version_insert { tid = 7; rid = 3; value = 42 };
    Wal_record.Relocate
      {
        rid = 3;
        vs = 7;
        ve = 11;
        vs_time = 100;
        ve_time = 200;
        bytes = 64;
        value = 5;
        seg_id = 2;
        cls = "rec";
        lo = 9;
        hi = 12;
      };
    Wal_record.Seg_harden { seg_id = 2 };
    Wal_record.Seg_drop { seg_id = 3 };
    Wal_record.Seg_cut { seg_id = 2 };
    Wal_record.Ckpt_begin;
    Wal_record.Ckpt_end { snapshot = Some sample_checkpoint };
    Wal_record.Ckpt_end { snapshot = None };
  ]

let test_record_roundtrip () =
  List.iteri
    (fun i payload ->
      let r = { Wal_record.lsn = 10 + i; at = Clock.ms (1 + i); shard = 0; payload } in
      match Wal_record.decode (Wal_record.encode r) with
      | Ok r' ->
          check_bool (Printf.sprintf "roundtrip %s" (Wal_record.kind_name payload)) true (r = r')
      | Error e -> Alcotest.failf "roundtrip %s: %s" (Wal_record.kind_name payload) e)
    sample_payloads

let test_record_crc_rejects_flip () =
  let r =
    { Wal_record.lsn = 3; at = Clock.ms 2; shard = 0; payload = Wal_record.Version_insert { tid = 5; rid = 1; value = 42 } }
  in
  let frame = Wal_record.encode r in
  (* Swap one digit of the value — still valid JSON, but the body no
     longer matches the checksum. *)
  let needle = "\"value\":42" in
  let idx =
    let rec find i =
      if i + String.length needle > String.length frame then
        Alcotest.fail "value member not found in frame"
      else if String.sub frame i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let corrupt =
    String.mapi (fun i c -> if i = idx + String.length needle - 1 then '3' else c) frame
  in
  (match Wal_record.decode corrupt with
  | Ok _ -> Alcotest.fail "corrupt frame must be rejected"
  | Error _ -> ());
  (* The sabotage knob replays it blindly, seeing the flipped value. *)
  match Wal_record.decode ~check_crc:false corrupt with
  | Ok { Wal_record.payload = Wal_record.Version_insert { value; _ }; _ } ->
      check_int "sabotage decode sees the flip" 43 value
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.failf "check_crc:false must accept the frame: %s" e

let test_record_bad_crc_encoder () =
  let r = { Wal_record.lsn = 4; at = 0; shard = 0; payload = Wal_record.Txn_commit { tid = 9; cts = 12 } } in
  let frame = Wal_record.encode_with_bad_crc r in
  (match Wal_record.decode frame with
  | Ok _ -> Alcotest.fail "bad-crc frame must be rejected"
  | Error _ -> ());
  match Wal_record.decode ~check_crc:false frame with
  | Ok r' -> check_bool "payload intact under sabotage" true (r'.Wal_record.payload = r.Wal_record.payload)
  | Error e -> Alcotest.failf "check_crc:false must accept: %s" e

(* -------------------------------------------------------------------- *)
(* Codec equivalence: the direct codec against the Jsonx-tree reference
   in ref_codec.ml *)

let codec_int =
  QCheck.Gen.(
    frequency
      [
        (6, small_signed_int);
        (3, int);
        (1, return min_int);
        (1, return max_int);
        (1, return 0);
      ])

(* Strings that need every kind of escape, plus bytes Jsonx prints raw. *)
let codec_string =
  QCheck.Gen.(
    string_size ~gen:(frequency [ (6, printable); (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; '\127'; '\255' ]) ])
      (0 -- 8))

let codec_float =
  QCheck.Gen.(
    frequency
      [
        (4, float);
        (1, oneofl [ 0.; -0.; 1e15; -1e15; 0.1; 1e300; Float.nan; Float.infinity; 3. ]);
        (2, map float_of_int small_signed_int);
      ])

let codec_json =
  QCheck.Gen.(
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Jsonx.Null);
                 (1, map (fun b -> Jsonx.Bool b) bool);
                 (3, map (fun i -> Jsonx.Int i) codec_int);
                 (3, map (fun f -> Jsonx.Float f) codec_float);
                 (2, map (fun s -> Jsonx.Str s) codec_string);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> Jsonx.Arr xs) (list_size (0 -- 3) (self (n - 1))));
                 ( 1,
                   map
                     (fun ms -> Jsonx.Obj ms)
                     (list_size (0 -- 3) (pair codec_string (self (n - 1)))) );
               ]))

(* Every list empty or not, negative and 18-digit ints, the 2PC members
   absent and present. One checkpoint in four may also hold ints of 19
   digits, and one in four classes that need escapes. *)
let codec_checkpoint =
  QCheck.Gen.(
    let* wide = frequency [ (3, return false); (1, return true) ] in
    let* escapes = frequency [ (3, return false); (1, return true) ] in
    let i =
      frequency
        ([
           (8, small_signed_int);
           (2, 0 -- 1_000_000_000);
           (1, int_range 100_000_000_000_000_000 999_999_999_999_999_999);
           (1, int_range (-999_999_999_999_999_999) (-100_000_000_000_000_000));
         ]
        @ if wide then [ (2, codec_int) ] else [])
    in
    let cls =
      if escapes then codec_string
      else string_size ~gen:(oneofl [ 'a'; 'l'; 't'; '0'; '/'; ' '; '\127'; '\255' ]) (0 -- 8)
    in
    let some_list g = list_size (frequency [ (1, return 0); (3, 1 -- 4) ]) g in
    let pairs = some_list (pair i i) in
    let seg_version =
      map
        (function
          | [ rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi ] ->
              { Checkpoint.rid; vs; ve; vs_time; ve_time; bytes; value; lo; hi }
          | _ -> assert false)
        (list_repeat 9 i)
    in
    let seg =
      map
        (fun ((seg_id, cls), (hardened, versions)) -> { Checkpoint.seg_id; cls; hardened; versions })
        (pair (pair i cls) (pair bool (some_list seg_version)))
    in
    let row =
      map
        (function
          | [ rid; value; vs; vs_time; cts ] -> { Checkpoint.rid; value; vs; vs_time; cts }
          | _ -> assert false)
        (list_repeat 5 i)
    in
    let pending =
      map2
        (fun tid writes -> { Checkpoint.tid; writes })
        i
        (some_list (map3 (fun rid value vs_time -> { Checkpoint.rid; value; vs_time }) i i i))
    in
    map
      (fun ( (at, oracle_next, next_seg_id, live),
             (committed, aborted, prepared, decisions),
             (rows, pending, segments) ) ->
        {
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
        })
      (triple (quad i i i (some_list i)) (quad pairs pairs pairs pairs)
         (triple (some_list row) (some_list pending) (some_list seg))))

let codec_payload =
  QCheck.Gen.(
    let i = codec_int in
    let shards = list_size (0 -- 4) i in
    oneof
      [
        map (fun tid -> Wal_record.Txn_begin { tid }) i;
        map2 (fun tid cts -> Wal_record.Txn_commit { tid; cts }) i i;
        map2 (fun tid ats -> Wal_record.Txn_abort { tid; ats }) i i;
        map3 (fun tid rid value -> Wal_record.Version_insert { tid; rid; value }) i i i;
        map
          (fun (a, cls) ->
            match a with
            | [ rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; lo; hi ] ->
                Wal_record.Relocate
                  { rid; vs; ve; vs_time; ve_time; bytes; value; seg_id; cls; lo; hi }
            | _ -> assert false)
          (pair (list_repeat 10 i) codec_string);
        map (fun seg_id -> Wal_record.Seg_harden { seg_id }) i;
        map (fun seg_id -> Wal_record.Seg_drop { seg_id }) i;
        map (fun seg_id -> Wal_record.Seg_cut { seg_id }) i;
        return Wal_record.Ckpt_begin;
        map (fun snapshot -> Wal_record.Ckpt_end { snapshot }) (option codec_checkpoint);
        map3 (fun tid coord shards -> Wal_record.Prepare { tid; coord; shards }) i i shards;
        map3 (fun gid cts shards -> Wal_record.Coord_commit { gid; cts; shards }) i i shards;
        map (fun gid -> Wal_record.Coord_abort { gid }) i;
        map2 (fun gid shard -> Wal_record.Ack { gid; shard }) i i;
        map (fun gid -> Wal_record.Forget { gid }) i;
        map2 (fun epoch node -> Wal_record.Promote { epoch; node }) i i;
        map3 (fun epoch node upto -> Wal_record.Rep_ack { epoch; node; upto }) i i i;
      ])

let codec_record =
  QCheck.Gen.(
    map
      (fun (lsn, at, shard, payload) -> { Wal_record.lsn; at; shard; payload })
      (quad codec_int codec_int (frequency [ (1, return 0); (1, codec_int) ]) codec_payload))

let arb_record = QCheck.make ~print:Ref_codec.encode codec_record

(* [frame] split at its last crc member: the body bytes before it. *)
let crc_split frame =
  let key = ",\"crc\":" in
  let rec find i =
    if i < 0 then None
    else if String.sub frame i (String.length key) = key then Some i
    else find (i - 1)
  in
  if String.length frame < String.length key then None
  else find (String.length frame - String.length key)

(* The frame with its crc rewritten to match the raw bytes before it — a
   mutation the checksum alone cannot expose. *)
let restamp frame =
  match crc_split frame with
  | None -> frame
  | Some i ->
      let body = String.sub frame 0 i in
      Printf.sprintf "%s,\"crc\":%d}" body (Crc32.string (body ^ "}"))

(* [frame] is [encode r] but for the value of its crc. *)
let in_layout r frame =
  let enc = Wal_record.encode r in
  let j = Option.get (crc_split enc) + String.length ",\"crc\":" in
  let n = String.length frame in
  n > j + 1
  && String.sub frame 0 j = String.sub enc 0 j
  && frame.[n - 1] = '}'
  &&
  let text = String.sub frame j (n - j - 1) in
  match int_of_string_opt text with Some crc -> string_of_int crc = text | None -> false

(* [decode] is the reference restricted to the layout [encode] writes:
   it reads what the reference reads from a frame in that layout, and
   refuses every other frame. *)
let both_decoders_agree frame =
  List.for_all
    (fun check_crc ->
      let expected =
        match Ref_codec.decode ~check_crc frame with
        | Ok r when in_layout r frame -> Some r
        | Ok _ | Error _ -> None
      in
      Result.to_option (Wal_record.decode ~check_crc frame) = expected)
    [ true; false ]

let qcheck_codec_encode_matches_reference =
  QCheck.Test.make ~name:"encode = reference" ~count:3000
    arb_record (fun r ->
      let frame = Wal_record.encode r in
      if frame <> Ref_codec.encode r then
        QCheck.Test.fail_reportf "encode differs:\n%s\n%s" frame (Ref_codec.encode r);
      let i = Option.get (crc_split frame) in
      let body = String.sub frame 0 i in
      let crc = int_of_string (String.sub frame (i + 7) (String.length frame - i - 8)) in
      Wal_record.encode_with_bad_crc r = Printf.sprintf "%s,\"crc\":%d}" body (crc lxor 0x5a5a5a5a))

(* [outcome_tid] peeks at the header of a frame in the layout [encode]
   writes; its answer is the one a full decode gives. *)
let outcome_agrees frame =
  Wal_record.outcome_tid frame
  =
  match Ref_codec.decode frame with
  | Ok
      {
        Wal_record.payload = Wal_record.Txn_commit { tid; _ } | Wal_record.Txn_abort { tid; _ };
        _;
      } ->
      Some tid
  | Ok _ | Error _ -> None

let qcheck_codec_decode_clean =
  QCheck.Test.make ~name:"decode = ref, clean" ~count:3000 arb_record
    (fun r ->
      both_decoders_agree (Wal_record.encode r)
      && both_decoders_agree (Wal_record.encode_with_bad_crc r)
      && outcome_agrees (Wal_record.encode r)
      && outcome_agrees (Wal_record.encode_with_bad_crc r))

type mutation =
  | Bitflip of int  (** the chaos harness's xor-0x10 flip *)
  | Truncate of int
  | Whitespace of int * char
  | Reorder of int
  | Sh_zero
  | Leading_zero of int
  | Minus_zero of int
  | Digits_19 of int
  | Digit of int  (** one digit changed: canonical, but the crc is stale *)
  | Kind of kind_edit  (** the kind name misspelled: never a frame *)

and kind_edit = Change of int * int | Drop of int | Append of char | Escape

let show_mutation = function
  | Bitflip i -> Printf.sprintf "bitflip(%d)" i
  | Truncate i -> Printf.sprintf "truncate(%d)" i
  | Whitespace (i, c) -> Printf.sprintf "whitespace(%d,%C)" i c
  | Reorder i -> Printf.sprintf "reorder(%d)" i
  | Sh_zero -> "sh-zero"
  | Leading_zero i -> Printf.sprintf "leading-zero(%d)" i
  | Minus_zero i -> Printf.sprintf "minus-zero(%d)" i
  | Digits_19 i -> Printf.sprintf "digits-19(%d)" i
  | Digit i -> Printf.sprintf "digit(%d)" i
  | Kind (Change (i, x)) -> Printf.sprintf "kind-change(%d,%d)" i x
  | Kind (Drop i) -> Printf.sprintf "kind-drop(%d)" i
  | Kind (Append c) -> Printf.sprintf "kind-append(%C)" c
  | Kind Escape -> "kind-escape"

(* Start offsets of the int texts that follow a [:] — member values. *)
let int_offsets frame =
  let n = String.length frame in
  let acc = ref [] in
  for i = n - 2 downto 0 do
    if frame.[i] = ':' then
      match frame.[i + 1] with '0' .. '9' | '-' -> acc := (i + 1) :: !acc | _ -> ()
  done;
  !acc

let replace_int frame k f =
  match int_offsets frame with
  | [] -> frame
  | offs ->
      let start = List.nth offs (k mod List.length offs) in
      let stop = ref (start + 1) in
      while !stop < String.length frame && frame.[!stop] >= '0' && frame.[!stop] <= '9' do
        incr stop
      done;
      let text = String.sub frame start (!stop - start) in
      String.sub frame 0 start ^ f text ^ String.sub frame !stop (String.length frame - !stop)

(* Members of the frame, as the reference parser sees them. *)
let with_members frame f =
  match Jsonx.of_string frame with Ok (Jsonx.Obj ms) -> Jsonx.to_string (Jsonx.Obj (f ms)) | _ -> frame

(* The kind name's span in a frame: the bytes between the quotes of
   the kind member's value. *)
let kind_span frame =
  let key = ",\"kind\":\"" in
  let rec find i = if String.sub frame i (String.length key) = key then i + String.length key else find (i + 1) in
  let start = find 0 in
  (start, String.index_from frame start '"')

(* [name] with one byte changed (xored with 1..255), dropped or
   appended, or its first hyphen escaped as [\u002d] (the r of
   relocate, which has none, as [\u0072]). *)
let edit_kind name = function
  | Change (i, x) ->
      let i = i mod String.length name in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor (1 + (x mod 255))) else c) name
  | Drop i ->
      let i = i mod String.length name in
      String.sub name 0 i ^ String.sub name (i + 1) (String.length name - i - 1)
  | Append c -> name ^ String.make 1 c
  | Escape -> (
      match String.index_opt name '-' with
      | Some i -> String.sub name 0 i ^ "\\u002d" ^ String.sub name (i + 1) (String.length name - i - 1)
      | None -> "\\u0072" ^ String.sub name 1 (String.length name - 1))

let mutate_kind frame e =
  let start, stop = kind_span frame in
  String.sub frame 0 start
  ^ edit_kind (String.sub frame start (stop - start)) e
  ^ String.sub frame stop (String.length frame - stop)

let mutate frame = function
  | Bitflip i ->
      let i = i mod String.length frame in
      String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x10) else c) frame
  | Truncate i -> String.sub frame 0 (i mod String.length frame)
  | Whitespace (i, c) ->
      let i = i mod (String.length frame + 1) in
      String.sub frame 0 i ^ String.make 1 c ^ String.sub frame i (String.length frame - i)
  | Reorder k ->
      (* Swap two body members; the crc member stays last. *)
      with_members frame (fun ms ->
          let body = List.filter (fun (key, _) -> key <> "crc") ms in
          let crc = List.filter (fun (key, _) -> key = "crc") ms in
          let n = List.length body in
          let a = k mod n and b = (k / n) mod n in
          let arr = Array.of_list body in
          let x = arr.(a) in
          arr.(a) <- arr.(b);
          arr.(b) <- x;
          Array.to_list arr @ crc)
  | Sh_zero ->
      with_members frame (fun ms ->
          match ms with
          | lsn :: at :: ("sh", _) :: rest -> lsn :: at :: ("sh", Jsonx.Int 0) :: rest
          | lsn :: at :: rest -> lsn :: at :: ("sh", Jsonx.Int 0) :: rest
          | ms -> ms)
  | Leading_zero k -> replace_int frame k (fun text -> if text.[0] = '-' then "-0" ^ String.sub text 1 (String.length text - 1) else "0" ^ text)
  | Minus_zero k -> replace_int frame k (fun _ -> "-0")
  | Digits_19 k -> replace_int frame k (fun _ -> Printf.sprintf "1%018d" (k land 0xffff))
  | Kind e -> mutate_kind frame e
  | Digit k ->
      replace_int frame k (fun text ->
          let last = String.length text - 1 in
          String.mapi
            (fun j c -> if j = last then Char.chr (Char.code '0' + ((Char.code c - Char.code '0' + 1) mod 10)) else c)
            text)

let codec_mutation =
  QCheck.Gen.(
    let i = nat in
    oneof
      [
        map (fun i -> Bitflip i) i;
        map (fun i -> Truncate i) i;
        map2 (fun i c -> Whitespace (i, c)) i (oneofl [ ' '; '\t'; '\n'; '\r' ]);
        map (fun i -> Reorder i) i;
        return Sh_zero;
        map (fun i -> Leading_zero i) i;
        map (fun i -> Minus_zero i) i;
        map (fun i -> Digits_19 i) i;
        map (fun i -> Digit i) i;
      ])

(* A whole frame may also have its kind misspelt. *)
let frame_mutation =
  QCheck.Gen.(
    frequency
      [
        (9, codec_mutation);
        ( 1,
          map
            (fun e -> Kind e)
            (oneof
               [
                 map2 (fun i x -> Change (i, x)) nat nat;
                 map (fun i -> Drop i) nat;
                 map (fun c -> Append c) (oneofl [ 'a'; 's'; '-'; '"'; ' '; '\\' ]);
                 return Escape;
               ]) );
      ])

let qcheck_codec_decode_mutated =
  QCheck.Test.make ~name:"decode = ref, mutated" ~count:6000
    (QCheck.make
       ~print:(fun (r, m) -> Ref_codec.encode r ^ " " ^ show_mutation m)
       (QCheck.Gen.pair codec_record frame_mutation))
    (fun (r, m) ->
      let mutated = mutate (Wal_record.encode r) m in
      List.for_all
        (fun frame ->
          both_decoders_agree frame
          || QCheck.Test.fail_reportf "decoders differ on %S" frame)
        [ mutated; restamp mutated ]
      &&
      match m with
      | Kind _ ->
          Result.is_error (Wal_record.decode ~check_crc:false (restamp mutated))
          || QCheck.Test.fail_reportf "misspelt kind decodes: %S" (restamp mutated)
      | _ -> true)

(* One record of every kind. *)
let every_kind : Wal_record.t list =
  List.mapi
    (fun i payload -> { Wal_record.lsn = 10 + i; at = 1000 * i; shard = i mod 2; payload })
    (sample_payloads
    @ [
        Wal_record.Prepare { tid = 7; coord = 1; shards = [ 0; 1; 2 ] };
        Wal_record.Coord_commit { gid = 7; cts = 9; shards = [ 1; 0 ] };
        Wal_record.Coord_abort { gid = 8 };
        Wal_record.Ack { gid = 7; shard = 2 };
        Wal_record.Forget { gid = 7 };
        Wal_record.Promote { epoch = 3; node = 1 };
        Wal_record.Rep_ack { epoch = 3; node = 2; upto = 40 };
      ])

(* Every one-byte change, drop and append of every kind name, and the
   escaped spelling, each with a matching crc. *)
let test_kind_edits_rejected () =
  List.iter
    (fun (r : Wal_record.t) ->
      let frame = Wal_record.encode r in
      let start, stop = kind_span frame in
      let n = stop - start in
      let edits =
        (Escape :: List.map (fun c -> Append c) [ 'a'; 's'; '-'; '"' ])
        @ List.concat_map
            (fun i -> Drop i :: List.map (fun x -> Change (i, x)) [ 0; 1; 31; 127; 254 ])
            (List.init n Fun.id)
      in
      List.iter
        (fun e ->
          let bad = restamp (mutate_kind frame e) in
          if Result.is_ok (Wal_record.decode bad) || Result.is_ok (Wal_record.decode ~check_crc:false bad)
          then Alcotest.failf "misspelt kind decodes: %S" bad)
        edits)
    every_kind

(* The words one scan allocates are the words of the record it returns:
   the cursor, the kind name and the result box cost nothing. A
   checkpoint snapshot is left out, its lists being shared with nothing
   else either way. Holds in a native build. *)
let test_scan_allocates_only_its_record () =
  let calls = 10_000 in
  List.iter
    (fun (r : Wal_record.t) ->
      match r.payload with
      | Wal_record.Ckpt_end _ -> ()
      | _ ->
          let frame = Wal_record.encode r in
          let record = Wal_record.scan ~check_crc:true frame in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            ignore (Sys.opaque_identity (Wal_record.scan ~check_crc:true frame))
          done;
          let per_scan = (Gc.minor_words () -. before) /. float_of_int calls in
          let want = float_of_int (Obj.reachable_words (Obj.repr record)) in
          if Float.abs (per_scan -. want) >= 0.01 then
            Alcotest.failf "%s: %.3f words per scan, the record holds %.0f"
              (Wal_record.kind_name r.payload) per_scan want)
    every_kind

(* A [ckpt-end] frame for [r]'s header whose snapshot is [json] — valid
   JSON and a good CRC, but not necessarily a checkpoint. *)
let foreign_snapshot_frame (r : Wal_record.t) json =
  let frame = Wal_record.encode { r with payload = Wal_record.Ckpt_end { snapshot = None } } in
  let stop = Option.get (crc_split frame) in
  let start = stop - String.length "null" in
  restamp (String.sub frame 0 start ^ Jsonx.to_string json ^ String.sub frame stop (String.length frame - stop))

let qcheck_codec_foreign_snapshot =
  QCheck.Test.make ~name:"ckpt frame: foreign snapshot = ref" ~count:1000
    (QCheck.make ~print:Jsonx.to_string codec_json)
    (fun json ->
      let frame =
        foreign_snapshot_frame { Wal_record.lsn = 5; at = 6; shard = 0; payload = Wal_record.Ckpt_begin } json
      in
      both_decoders_agree frame
      &&
      match Wal_record.decode frame with
      | Ok { Wal_record.payload = Wal_record.Ckpt_end { snapshot }; _ } ->
          snapshot = Result.to_option (Ref_codec.checkpoint_of_json json)
      | Ok _ -> false
      | Error _ -> json <> Jsonx.Null)

(* -------------------------------------------------------------------- *)
(* Checkpoint codec: the direct writer and scanner against the Jsonx-tree
   reference in ref_codec.ml *)

let show_checkpoint ck = Jsonx.to_string (Ref_codec.checkpoint_to_json ck)
let arb_checkpoint = QCheck.make ~print:show_checkpoint codec_checkpoint

let checkpoint_bytes ck =
  let out = Canon.out 256 in
  Checkpoint.write out ck;
  Canon.contents out

let scan_checkpoint s =
  let c = { Canon.s; lim = String.length s; pos = 0 } in
  match Checkpoint.scan c with
  | ck when c.Canon.pos = c.Canon.lim -> Some ck
  | _ | (exception Canon.Not_canonical) -> None

(* What the scanner must return whenever it returns: the bytes print back
   unchanged, and the value is what the reference reads. *)
let scan_sound s =
  match scan_checkpoint s with
  | None -> true
  | Some ck -> (
      match Jsonx.of_string s with
      | Ok j -> Jsonx.to_string j = s && Ref_codec.checkpoint_of_json j = Ok ck
      | Error _ -> false)

let qcheck_checkpoint_encode =
  QCheck.Test.make ~name:"checkpoint codec = to_json/of_json" ~count:2000
    arb_checkpoint (fun ck ->
      let bytes = checkpoint_bytes ck in
      if bytes <> show_checkpoint ck then QCheck.Test.fail_reportf "write differs:\n%s" bytes;
      scan_sound bytes && scan_checkpoint bytes = Some ck)

(* The frame split around its snapshot: the bytes before it, the
   snapshot, and the crc suffix. *)
let snapshot_split frame =
  let key = ",\"snapshot\":" in
  let rec find i = if String.sub frame i (String.length key) = key then i + String.length key else find (i + 1) in
  let start = find 0 and stop = Option.get (crc_split frame) in
  ( String.sub frame 0 start,
    String.sub frame start (stop - start),
    String.sub frame stop (String.length frame - stop) )

let qcheck_checkpoint_decode_mutated =
  QCheck.Test.make ~name:"ckpt frame: mutated snapshot = ref" ~count:4000
    (QCheck.make
       ~print:(fun (ck, m) -> show_checkpoint ck ^ " " ^ show_mutation m)
       (QCheck.Gen.pair codec_checkpoint codec_mutation))
    (fun (ck, m) ->
      let frame =
        Wal_record.encode
          { Wal_record.lsn = 9; at = 1; shard = 0; payload = Wal_record.Ckpt_end { snapshot = Some ck } }
      in
      let before, snap, after = snapshot_split frame in
      let snap' = mutate snap m in
      let mutated = before ^ snap' ^ after in
      (scan_sound snap' || QCheck.Test.fail_reportf "scanner unsound on %S" snap')
      && List.for_all
           (fun frame -> both_decoders_agree frame || QCheck.Test.fail_reportf "decoders differ on %S" frame)
           [ mutated; restamp mutated ])

(* -------------------------------------------------------------------- *)
(* Durable-mode log semantics *)

let test_non_durable_log_is_noop () =
  let w = Wal.create () in
  check_bool "not durable" false (Wal.is_durable w);
  check_bool "log returns None" true (Wal.log w (Wal_record.Txn_begin { tid = 1 }) = None);
  check_int "no frames" 0 (List.length (Wal.frames w));
  check_int "no records" 0 (Wal.records w);
  check_bool "fsync trivially true" true (Wal.fsync w ())

let test_durable_lsns_and_crash () =
  let w = Wal.create () in
  Wal.enable_durability w;
  let lsn i = Wal.log w (Wal_record.Txn_begin { tid = i }) in
  for i = 1 to 5 do
    check_bool "sequential lsns" true (lsn i = Some i)
  done;
  check_int "max_lsn" 5 (Wal.max_lsn w);
  check_int "nothing flushed yet" 0 (Wal.flushed_lsn w);
  check_bool "fsync ok" true (Wal.fsync w ());
  check_int "frontier advanced" 5 (Wal.flushed_lsn w);
  ignore (lsn 6);
  ignore (lsn 7);
  (* Power loss: unflushed tail evaporates, LSNs are never reused. *)
  Wal.crash w ~keep_lsn:(Wal.flushed_lsn w);
  check_int "tail dropped" 5 (Wal.max_lsn w);
  check_int "lsns not reused" 8 (Wal.next_lsn w);
  check_int "crash counted" 1 (Wal.crashes w)

let test_fsync_failpoint_conservative () =
  Failpoint.with_scope (fun () ->
      let w = Wal.create () in
      Wal.enable_durability w;
      ignore (Wal.log w (Wal_record.Txn_begin { tid = 1 }));
      let errors_before = Wal.errors w in
      Failpoint.arm_fail_n "wal.fsync" 1;
      check_bool "failed fsync reports false" false (Wal.fsync w ());
      check_int "frontier not advanced" 0 (Wal.flushed_lsn w);
      check_int "failure counted into errors" (errors_before + 1) (Wal.errors w);
      check_int "failure counted" 1 (Wal.fsync_failures w);
      check_bool "next fsync passes" true (Wal.fsync w ());
      check_int "frontier catches up" (Wal.max_lsn w) (Wal.flushed_lsn w))

(* -------------------------------------------------------------------- *)
(* Tail reads and the incremental analysis, against their references *)

(* A random device history over a primary [p] and a mirror [m]: typed
   appends (2PC records, promotions, good and unparseable checkpoints),
   fsyncs, power losses (which leave LSN gaps), truncations, torn
   frames, bit flips, shipping into the mirror, state transfer both
   ways, and shard re-tagging. *)
type wal_op =
  | Log of bool * int * int
  | Fsync of bool
  | Crash of bool * int
  | Truncate of bool * int
  | Inject of bool * bool
  | Corrupt of bool * int
  | Receive of int
  | Adopt of bool
  | Set_shard of bool * int

let show_wal_op = function
  | Log (m, k, a) -> Printf.sprintf "log%s(%d,%d)" (if m then "@m" else "") k a
  | Fsync m -> Printf.sprintf "fsync%s" (if m then "@m" else "")
  | Crash (m, k) -> Printf.sprintf "crash%s(%d)" (if m then "@m" else "") k
  | Truncate (m, k) -> Printf.sprintf "truncate%s(%d)" (if m then "@m" else "") k
  | Inject (m, g) -> Printf.sprintf "inject%s(%b)" (if m then "@m" else "") g
  | Corrupt (m, k) -> Printf.sprintf "corrupt%s(%d)" (if m then "@m" else "") k
  | Receive k -> Printf.sprintf "receive(%d)" k
  | Adopt m -> Printf.sprintf "adopt(%s)" (if m then "m<-p" else "p<-m")
  | Set_shard (m, s) -> Printf.sprintf "set_shard%s(%d)" (if m then "@m" else "") s

let wal_op_gen =
  QCheck.Gen.(
    let side = frequency [ (4, return false); (1, return true) ] in
    frequency
      [
        (12, map3 (fun m k a -> Log (m, k, a)) side (int_bound 12) (int_range 1 8));
        (3, map (fun m -> Fsync m) side);
        (1, map2 (fun m k -> Crash (m, k)) side nat);
        (1, map2 (fun m k -> Truncate (m, k)) side nat);
        (1, map2 (fun m g -> Inject (m, g)) side bool);
        (1, map2 (fun m k -> Corrupt (m, k)) side nat);
        (4, map (fun k -> Receive k) (int_bound 2));
        (1, map (fun m -> Adopt m) bool);
        (1, map2 (fun m s -> Set_shard (m, s)) side (frequency [ (3, return 0); (1, return 1) ]));
      ])

let wal_history =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_wal_op ops))
    QCheck.Gen.(list_size (int_range 1 60) wal_op_gen)

let ckpt_snapshot ~tid ~coord =
  Some
    {
      Checkpoint.at = tid;
      oracle_next = tid + 1;
      live = [ tid ];
      committed = [ (tid - 1, tid) ];
      aborted = [];
      rows = [ { Checkpoint.rid = tid; value = tid; vs = tid - 1; vs_time = 0; cts = tid } ];
      pending = [];
      segments = [];
      next_seg_id = 0;
      prepared = [ (tid, coord) ];
      decisions = [ (tid + 1, tid + 2) ];
    }

let payload_of k a =
  match k with
  | 0 -> Wal_record.Txn_begin { tid = a }
  | 1 -> Wal_record.Txn_commit { tid = a; cts = a + 10 }
  | 2 -> Wal_record.Txn_abort { tid = a; ats = a + 10 }
  | 3 -> Wal_record.Version_insert { tid = a; rid = a mod 3; value = a }
  | 4 -> Wal_record.Prepare { tid = a; coord = a mod 2; shards = [ 0; 1 ] }
  | 5 -> Wal_record.Coord_commit { gid = a; cts = a + 10; shards = [ 0; 1 ] }
  | 6 -> Wal_record.Coord_abort { gid = a }
  | 7 -> Wal_record.Forget { gid = a }
  | 8 -> Wal_record.Promote { epoch = a; node = a mod 3 }
  | 9 -> Wal_record.Ckpt_end { snapshot = ckpt_snapshot ~tid:a ~coord:(a mod 2) }
  | 10 -> Wal_record.Ckpt_end { snapshot = None }
  | _ -> Wal_record.Ckpt_begin

let apply_wal_op p m op =
  let on b = if b then m else p in
  let pick w k = k mod (Wal.next_lsn w + 1) in
  match op with
  | Log (b, 12, a) ->
      let w = on b in
      ignore
        (Wal.inject_raw w
           (foreign_snapshot_frame
              { Wal_record.lsn = Wal.next_lsn w; at = a; shard = Wal.shard w; payload = Wal_record.Ckpt_begin }
              (Jsonx.Obj [ ("oracle_next", Jsonx.Int a); ("live", Jsonx.Arr []) ])))
  | Log (b, k, a) -> ignore (Wal.log (on b) (payload_of k a))
  | Fsync b -> ignore (Wal.fsync (on b) ())
  | Crash (b, k) -> Wal.crash (on b) ~keep_lsn:(pick (on b) k)
  | Truncate (b, k) -> Wal.truncate_to (on b) ~lsn:(pick (on b) k)
  | Inject (b, good) ->
      let w = on b in
      ignore
        (Wal.inject_raw w
           (if good then
              Wal_record.encode_with_bad_crc
                {
                  Wal_record.lsn = Wal.next_lsn w;
                  at = 0;
                  shard = Wal.shard w;
                  payload = Wal_record.Txn_commit { tid = 1; cts = 2 };
                }
            else "torn"))
  | Corrupt (b, k) ->
      let w = on b in
      ignore
        (Wal.corrupt_frame w ~lsn:(pick w k) (fun s ->
             String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s))
  | Receive k -> (
      match Wal.frames_from p ~lsn:(Wal.next_lsn m - 2 + k) with
      | [||] -> ()
      | frames -> ignore (Wal.receive m frames.(0)))
  | Adopt true -> Wal.adopt m ~src:p
  | Adopt false -> Wal.adopt p ~src:m
  | Set_shard (b, s) -> Wal.set_shard (on b) s

let fresh_wal () =
  let w = Wal.create () in
  Wal.enable_durability w;
  w

let tuples frames = List.map (fun (f : Wal.frame) -> (f.lsn, f.repr)) (Array.to_list frames)

let qcheck_frames_from_matches_fold =
  QCheck.Test.make ~name:"frames_from = reference fold over random histories" ~count:300
    wal_history (fun ops ->
      let p = fresh_wal () and m = fresh_wal () in
      List.for_all
        (fun op ->
          (match op with
          | Corrupt (b, k) ->
              let w = if b then m else p in
              let lsn = k mod (Wal.next_lsn w + 1) in
              let present = List.mem_assoc lsn (Wal.frames w) in
              if Wal.corrupt_frame w ~lsn Fun.id <> present then
                QCheck.Test.fail_reportf "corrupt_frame lsn %d: present=%b" lsn present
          | _ -> ());
          apply_wal_op p m op;
          List.for_all
            (fun w ->
              let probes = 0 :: Wal.next_lsn w :: List.map fst (Wal.frames w) in
              List.for_all
                (fun lsn ->
                  List.for_all
                    (fun lsn -> tuples (Wal.frames_from w ~lsn) = Ref_recovery.frames_from w ~lsn)
                    [ lsn - 1; lsn; lsn + 1 ])
                probes)
            [ p; m ])
        ops)

(* Shipping by reference against the copy-per-frame reference: three
   devices (0 the primary, 1 and 2 its mirrors, though any may ship to
   any, as a stale claimant does), each next to a {!Ref_recovery.mirror}
   model. A ship reads the tail past the target's watermark, moved by
   an offset: below it the first frames are duplicates, above it a gap. *)
type ship_op =
  | S_log of int * int * int
  | S_ship of int * int * int
  | S_crash of int * int
  | S_truncate of int * int
  | S_corrupt of int * int
  | S_adopt of int * int

let show_ship_op = function
  | S_log (d, k, a) -> Printf.sprintf "log@%d(%d,%d)" d k a
  | S_ship (s, d, off) -> Printf.sprintf "ship(%d->%d,%+d)" s d off
  | S_crash (d, k) -> Printf.sprintf "crash@%d(%d)" d k
  | S_truncate (d, k) -> Printf.sprintf "truncate@%d(%d)" d k
  | S_corrupt (d, k) -> Printf.sprintf "corrupt@%d(%d)" d k
  | S_adopt (d, s) -> Printf.sprintf "adopt(%d<-%d)" d s

let ship_history =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_ship_op ops))
    QCheck.Gen.(
      let dev = frequency [ (3, return 0); (1, return 1); (1, return 2) ] in
      let pair = map2 (fun a b -> (a, (a + 1 + b) mod 3)) dev (int_bound 1) in
      list_size (int_range 1 60)
        (frequency
           [
             (10, map3 (fun d k a -> S_log (d, k, a)) dev (int_bound 12) (int_range 1 8));
             ( 6,
               map2
                 (fun (s, d) off -> S_ship (s, d, off))
                 pair
                 (frequency [ (4, return 0); (1, int_range (-2) (-1)); (1, int_range 1 2) ]) );
             (1, map2 (fun d k -> S_crash (d, k)) dev nat);
             (1, map2 (fun d k -> S_truncate (d, k)) dev nat);
             (1, map2 (fun d k -> S_corrupt (d, k)) dev nat);
             (1, map (fun (s, d) -> S_adopt (d, s)) pair);
           ]))

let flip_byte s = String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s

let qcheck_shipping_matches_copying =
  QCheck.Test.make ~name:"shipping by reference = copy-per-frame reference" ~count:300
    ship_history (fun ops ->
      let devs = Array.init 3 (fun _ -> fresh_wal ()) in
      let refs = Array.init 3 (fun _ -> Ref_recovery.mirror ()) in
      let pick d k = k mod (Wal.next_lsn devs.(d) + 1) in
      List.for_all
        (fun op ->
          let target =
            match op with
            | S_log (d, _, _) | S_crash (d, _) | S_truncate (d, _) | S_corrupt (d, _) -> d
            | S_ship (_, d, _) | S_adopt (d, _) -> d
          in
          let before = Array.map Wal.frames devs in
          (match op with
          | S_log (d, k, a) ->
              ignore (Wal.log devs.(d) (payload_of k a));
              Ref_recovery.log refs.(d) ~shard:0 (payload_of k a)
          | S_ship (src, d, off) ->
              let lsn = Wal.next_lsn devs.(d) - 1 + off in
              let got =
                Array.to_list
                  (Array.map
                     (fun (fr : Wal.frame) ->
                       let res = Wal.receive devs.(d) fr in
                       if res = `Applied && (Wal.frames_from devs.(d) ~lsn:(fr.lsn - 1)).(0) != fr then
                         QCheck.Test.fail_reportf "lsn %d: the mirror holds a copy" fr.lsn;
                       res)
                     (Wal.frames_from devs.(src) ~lsn))
              in
              let want =
                List.map
                  (fun (lsn, repr) -> Ref_recovery.receive refs.(d) ~lsn ~repr)
                  (Ref_recovery.frames_from devs.(src) ~lsn)
              in
              if got <> want then QCheck.Test.fail_reportf "receive answers differ"
          | S_crash (d, k) ->
              let keep_lsn = pick d k in
              Wal.crash devs.(d) ~keep_lsn;
              Ref_recovery.crash refs.(d) ~keep_lsn
          | S_truncate (d, k) ->
              let lsn = pick d k in
              Wal.truncate_to devs.(d) ~lsn;
              Ref_recovery.truncate_to refs.(d) ~lsn
          | S_corrupt (d, k) ->
              let lsn = pick d k in
              if Wal.corrupt_frame devs.(d) ~lsn flip_byte <> Ref_recovery.corrupt_frame refs.(d) ~lsn flip_byte
              then QCheck.Test.fail_reportf "corrupt_frame lsn %d answers differ" lsn
          | S_adopt (d, src) ->
              Wal.adopt devs.(d) ~src:devs.(src);
              Ref_recovery.adopt refs.(d) ~src:devs.(src));
          Array.for_all Fun.id
            (Array.mapi
               (fun d w ->
                 (Wal.frames w = refs.(d).Ref_recovery.frames
                 && Wal.next_lsn w = refs.(d).Ref_recovery.next_lsn
                 || QCheck.Test.fail_reportf "device %d differs from its reference" d)
                 && (d = target || Wal.frames w = before.(d)
                    || QCheck.Test.fail_reportf "device %d changed by an operation on device %d" d target))
               devs))
        ops)

let expect_with_own_decisions a =
  let table = Wal_recovery.decisions a in
  Wal_recovery.expect ~resolve:(fun () ~tid ~coord:_ -> Hashtbl.find_opt table tid) a

(* Two cursors per device: one advanced after every operation, one only
   now and then, so it also folds several operations at once. The
   from-scratch analysis must also equal the reference formulation,
   which keeps the whole decoded log and walks back to its anchors. *)
let qcheck_cursor_matches_analyze =
  QCheck.Test.make ~name:"cursor advance = from-scratch analyze over random histories"
    ~count:300
    QCheck.(pair wal_history (make QCheck.Gen.(list_size (return 60) bool)))
    (fun (ops, observe) ->
      let p = fresh_wal () and m = fresh_wal () in
      let every = [ (p, Wal_recovery.cursor ()); (m, Wal_recovery.cursor ()) ] in
      let sometimes = [ (p, Wal_recovery.cursor ()); (m, Wal_recovery.cursor ()) ] in
      let agree (w, c) =
        let a = Wal_recovery.analyze w and got = Wal_recovery.advance c w in
        let r = Ref_recovery.analyze w in
        if a <> r then
          QCheck.Test.fail_reportf "analysis differs from the reference: survivors %d vs %d, records %d vs %d"
            a.Wal_recovery.survivors r.Wal_recovery.survivors
            (List.length a.Wal_recovery.records) (List.length r.Wal_recovery.records);
        if got <> a then
          QCheck.Test.fail_reportf "analysis differs: survivors %d vs %d, records %d vs %d"
            got.Wal_recovery.survivors a.Wal_recovery.survivors
            (List.length got.Wal_recovery.records) (List.length a.Wal_recovery.records);
        Wal_recovery.expect got = Wal_recovery.expect a
        && expect_with_own_decisions got = expect_with_own_decisions a
      in
      List.for_all2
        (fun op look ->
          apply_wal_op p m op;
          List.for_all agree every && ((not look) || List.for_all agree sometimes))
        ops
        (List.filteri (fun i _ -> i < List.length ops) observe))

(* -------------------------------------------------------------------- *)
(* Engine-level fixtures *)

let tiny_schema = { Schema.default with Schema.tables = 2; rows_per_table = 20; record_bytes = 64 }

let durable_engine ?(skip_tail_check = false) () =
  let cfg =
    { State.default_config with State.durable_wal = true; recovery_skip_tail_check = skip_tail_check }
  in
  Siro_engine.create ~driver_config:cfg ~flavor:`Pg tiny_schema

let wal_of eng =
  let st : State.t = Siro_engine.driver_exn eng in
  match st.State.wal with Some w -> w | None -> Alcotest.fail "durable engine has no wal"

(* A deterministic mini-history: [n] committed single-write txns, then
   [losers] left in flight (their begins carried past the durability
   frontier by the last commit's fsync as long as a commit follows). *)
let mini_history ?(n = 8) ?(losers = 2) eng =
  let now = ref (Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 200;
    !now
  in
  let records = Schema.records tiny_schema in
  let pending =
    List.init losers (fun i ->
        let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
        (match eng.Engine.write txn ~rid:((i * 7) mod records) ~payload:(-1) ~now:(tick ()) with
        | Engine.Committed_path _ | Engine.Conflict _ -> ());
        txn)
  in
  for i = 1 to n do
    let txn, _ = eng.Engine.begin_txn ~now:(tick ()) in
    (match eng.Engine.write txn ~rid:(i mod records) ~payload:(100 + i) ~now:(tick ()) with
    | Engine.Committed_path _ | Engine.Conflict _ -> ());
    ignore (eng.Engine.commit txn ~now:(tick ()))
  done;
  (pending, !now)

let restart_of eng =
  match eng.Engine.restart with Some f -> f | None -> Alcotest.fail "no restart closure"

let no_violations name vs =
  check_bool name true
    (match vs with
    | [] -> true
    | { Invariant.invariant; detail } :: _ ->
        Printf.printf "unexpected violation [%s] %s\n" invariant detail;
        false)

(* -------------------------------------------------------------------- *)
(* Fuzzy checkpoint spanned by an in-flight transaction *)

let test_checkpoint_spanning_commit_replays () =
  let eng = durable_engine () in
  let now = ref (Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 100;
    !now
  in
  let spanner, _ = eng.Engine.begin_txn ~now:(tick ()) in
  (match eng.Engine.write spanner ~rid:1 ~payload:111 ~now:(tick ()) with
  | Engine.Committed_path _ -> ()
  | Engine.Conflict _ -> Alcotest.fail "unexpected conflict");
  (* Checkpoint while the txn is in flight: its write must travel in the
     snapshot's pending set so the post-checkpoint commit suffices. *)
  (match eng.Engine.checkpoint with
  | Some ckpt -> ckpt ~now:(tick ())
  | None -> Alcotest.fail "durable engine has no checkpoint closure");
  ignore (eng.Engine.commit spanner ~now:(tick ()));
  let other, _ = eng.Engine.begin_txn ~now:(tick ()) in
  (match eng.Engine.write other ~rid:2 ~payload:222 ~now:(tick ()) with
  | Engine.Committed_path _ | Engine.Conflict _ -> ());
  ignore (eng.Engine.commit other ~now:(tick ()));
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  let info = restart_of eng ~now:(tick ()) in
  check_bool "replayed something past the checkpoint" true (info.Engine.replayed_records > 0);
  no_violations "post-recovery invariants" (Invariant.check_post_recovery (Siro_engine.driver_exn eng));
  let probe, _ = eng.Engine.begin_txn ~now:(tick ()) in
  let v1, _ = eng.Engine.read probe ~rid:1 ~now:(tick ()) in
  let v2, _ = eng.Engine.read probe ~rid:2 ~now:(tick ()) in
  check_int "spanning txn's write durable" 111 v1;
  check_int "post-checkpoint txn durable" 222 v2

(* -------------------------------------------------------------------- *)
(* Crash at every LSN of a short history *)

let qcheck_crash_at_every_lsn =
  QCheck.Test.make ~name:"crash at every WAL LSN recovers with clean invariants" ~count:3
    QCheck.(make Gen.(0 -- 1000))
    (fun seed ->
      let n = 4 + (seed mod 5) in
      let max_lsn =
        let eng = durable_engine () in
        ignore (mini_history ~n eng);
        Wal.max_lsn (wal_of eng)
      in
      let ok = ref true in
      for lsn = Wal.bootstrap_lsn to max_lsn do
        let eng = durable_engine () in
        let _, last = mini_history ~n eng in
        let wal = wal_of eng in
        Wal.crash wal ~keep_lsn:lsn;
        ignore (restart_of eng ~now:(last + Clock.ms 1));
        match Invariant.check_post_recovery (Siro_engine.driver_exn eng) with
        | [] -> ()
        | { Invariant.invariant; detail } :: _ ->
            Printf.printf "crash at lsn %d: [%s] %s\n" lsn invariant detail;
            ok := false
      done;
      !ok)

(* -------------------------------------------------------------------- *)
(* Torn-tail sabotage: a skipped tail check must be caught *)

let torn_tail_frame wal =
  let exp = Wal_recovery.expect (Wal_recovery.analyze ~check_crc:true wal) in
  let tid = exp.Wal_recovery.oracle_floor + 999983 in
  Wal_record.encode_with_bad_crc
    {
      Wal_record.lsn = Wal.next_lsn wal;
      at = 0;
      shard = Wal.shard wal;
      payload = Wal_record.Txn_commit { tid; cts = tid + 1 };
    }

let test_honest_restart_truncates_torn_tail () =
  let eng = durable_engine () in
  let _, last = mini_history eng in
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  ignore (Wal.inject_raw wal (torn_tail_frame wal));
  let info = restart_of eng ~now:(last + Clock.ms 1) in
  check_bool "torn frame refused" true (info.Engine.truncated_frames >= 1);
  no_violations "honest recovery is clean" (Invariant.check_post_recovery (Siro_engine.driver_exn eng))

let test_skipped_tail_check_is_caught () =
  let eng = durable_engine ~skip_tail_check:true () in
  let _, last = mini_history eng in
  let wal = wal_of eng in
  Wal.crash wal ~keep_lsn:(Wal.flushed_lsn wal);
  ignore (Wal.inject_raw wal (torn_tail_frame wal));
  ignore (restart_of eng ~now:(last + Clock.ms 1));
  (* The sabotaged restart replayed a corrupt commit the honest oracle
     refuses; the post-recovery invariants must flag the divergence. *)
  check_bool "sabotaged recovery flagged" true
    (Invariant.check_post_recovery (Siro_engine.driver_exn eng) <> [])

(* -------------------------------------------------------------------- *)
(* Non-crash runs: durability must be workload-invisible, and the
   canonical sim scenario must still match the committed golden. *)

let runner_cfg =
  {
    Exp_config.default with
    Exp_config.name = "recovery-test";
    seed = 23;
    duration_s = 0.4;
    workers = 4;
    reads_per_txn = 2;
    writes_per_txn = 1;
    schema = { Schema.default with Schema.tables = 2; rows_per_table = 50; record_bytes = 64 };
    llts = [ { Exp_config.start_s = 0.05; duration_s = 0.2; count = 1 } ];
    sample_period_s = 0.1;
    gc_period = Clock.ms 5;
  }

let comparable (r : Runner.result) =
  ( r.Runner.commits,
    r.Runner.conflicts,
    r.Runner.llt_reads,
    r.Runner.throughput,
    r.Runner.version_space,
    r.Runner.max_chain,
    r.Runner.chain_cdf,
    Histogram.cdf r.Runner.latency_us )

let test_durability_is_workload_invisible () =
  let bare =
    Runner.run ~engine:(fun s -> Siro_engine.create ~flavor:`Pg s) runner_cfg
  in
  let durable =
    Runner.run
      ~engine:(fun s ->
        Siro_engine.create
          ~driver_config:{ State.default_config with State.durable_wal = true }
          ~flavor:`Pg s)
      runner_cfg
  in
  check_bool "durable run, no crash plan: workload bit-identical" true
    (comparable bare = comparable durable);
  check_int "no crashes without a plan" 0 durable.Runner.crashes;
  check_bool "no recoveries" true (durable.Runner.recoveries = [])

(* Every frame a durable campaign with crash points and torn tails
   logged — checkpoints with LLT-wide commit-log windows among them —
   goes through the direct codec exactly as through the reference. A
   checkpoint recycles the log prefix below the previous one, so the
   engine's checkpoint is wrapped to collect the frames before each
   discard; the end of the run collects the rest. (A restart discards
   nothing, and collecting before it would pick up the torn tail it is
   about to truncate.) *)
let test_campaign_log_codec () =
  let wal = ref None in
  let seen = Hashtbl.create 4096 in
  let collect () =
    List.iter (fun (lsn, repr) -> Hashtbl.replace seen lsn repr) (Wal.frames (Option.get !wal))
  in
  let faults =
    Fault_plan.create ~seed:5
      ~crash_points:[ Wal.bootstrap_lsn + 300; Wal.bootstrap_lsn + 900 ]
      ~torn_tail:true ()
  in
  let r =
    Runner.run ~faults
      ~engine:(fun s ->
        let e =
          Siro_engine.create
            ~driver_config:{ State.default_config with State.durable_wal = true }
            ~flavor:`Pg s
        in
        wal := Some (wal_of e);
        {
          e with
          Engine.checkpoint =
            Option.map (fun ckpt ~now -> collect (); ckpt ~now) e.Engine.checkpoint;
        })
      { runner_cfg with Exp_config.ckpt_period_s = 0.05 }
  in
  collect ();
  check_int "crash-restarts" 2 r.Runner.crashes;
  check_bool "the log was recycled" true (Wal.discarded (Option.get !wal) > 0);
  let ckpts = ref 0 in
  List.iter
    (fun (lsn, repr) ->
      let decoded = Wal_record.decode repr in
      if Result.to_option decoded <> Result.to_option (Ref_codec.decode repr) then
        Alcotest.failf "lsn %d: decode differs" lsn;
      match decoded with
      | Ok r ->
          if Wal_record.encode r <> repr || Ref_codec.encode r <> repr then
            Alcotest.failf "lsn %d: encode differs" lsn;
          if (match r.Wal_record.payload with Wal_record.Ckpt_end { snapshot = Some _ } -> true | _ -> false)
          then incr ckpts
      | Error e -> Alcotest.failf "lsn %d: %s" lsn e)
    (List.sort compare (Hashtbl.fold (fun lsn repr acc -> (lsn, repr) :: acc) seen []));
  check_bool "several checkpoints" true (!ckpts >= 4)

(* -------------------------------------------------------------------- *)
(* Log recycling against an undiscarded shadow *)

(* A random history on a durable engine: transactions in four slots,
   checkpoints, maintenance passes, and power losses followed by the
   restart. A crash cuts the log at a seeded LSN among the frames the
   previous operation logged (the runner's crash points fire at every
   dispatch boundary, so they can cut no further back), or at the
   durability frontier, optionally leaving a torn tail. *)
type recycle_op =
  | R_begin of int
  | R_write of int * int * int
  | R_commit of int
  | R_abort of int
  | R_checkpoint
  | R_maintain
  | R_crash of int option * bool  (* keep offset (None: the frontier), torn tail *)

let show_recycle_op = function
  | R_begin i -> Printf.sprintf "begin(%d)" i
  | R_write (i, rid, v) -> Printf.sprintf "write(%d,r%d,%d)" i rid v
  | R_commit i -> Printf.sprintf "commit(%d)" i
  | R_abort i -> Printf.sprintf "abort(%d)" i
  | R_checkpoint -> "ckpt"
  | R_maintain -> "maintain"
  | R_crash (k, torn) ->
      Printf.sprintf "crash(%s%s)"
        (match k with Some k -> string_of_int k | None -> "flushed")
        (if torn then ",torn" else "")

let recycle_history =
  let slot = QCheck.Gen.int_bound 3 in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_recycle_op ops))
    QCheck.Gen.(
      list_size (int_range 10 120)
        (frequency
           [
             (4, map (fun i -> R_begin i) slot);
             ( 8,
               map3 (fun i rid v -> R_write (i, rid, v)) slot
                 (int_bound (Schema.records tiny_schema - 1))
                 (int_bound 999) );
             (4, map (fun i -> R_commit i) slot);
             (1, map (fun i -> R_abort i) slot);
             (3, return R_checkpoint);
             (1, return R_maintain);
             (2, map2 (fun k torn -> R_crash (k, torn)) (opt nat) bool);
           ]))

(* Copy the engine log's new frames onto the shadow. Both devices apply
   the same crashes and truncations, so their LSN cursors agree and
   every new frame is the shadow's next one. *)
let sync_shadow ~shadow wal =
  Array.iter
    (fun (fr : Wal.frame) ->
      match Wal.receive shadow fr with
      | `Applied -> ()
      | `Duplicate | `Gap -> QCheck.Test.fail_reportf "shadow lost sync at lsn %d" fr.lsn)
    (Wal.frames_from wal ~lsn:(Wal.next_lsn shadow - 1))

let same_recovery ~shadow wal what =
  let a = Wal_recovery.analyze wal and b = Wal_recovery.analyze shadow in
  if a <> b then
    QCheck.Test.fail_reportf
      "%s: analysis differs from the shadow's: survivors %d vs %d, truncated at %d vs %d, \
       anchor %s vs %s"
      what a.Wal_recovery.survivors b.Wal_recovery.survivors a.Wal_recovery.truncate_lsn
      b.Wal_recovery.truncate_lsn
      (match a.Wal_recovery.checkpoint with Some (l, _) -> string_of_int l | None -> "none")
      (match b.Wal_recovery.checkpoint with Some (l, _) -> string_of_int l | None -> "none");
  if Wal_recovery.expect a <> Wal_recovery.expect b then
    QCheck.Test.fail_reportf "%s: expectation differs from the shadow's" what

let run_recycle_history ops =
  let eng = durable_engine () in
  let wal = wal_of eng in
  let shadow = fresh_wal () in
  sync_shadow ~shadow wal;
  let slots = Array.make 4 None in
  let now = ref (Clock.ms 1) in
  let tick () =
    now := !now + Clock.us 100;
    !now
  in
  let finish i f =
    match slots.(i) with
    | Some txn ->
        slots.(i) <- None;
        ignore (f txn ~now:(tick ()))
    | None -> ()
  in
  (* The log's end before the previous operation: what a crash may cut
     back to. *)
  let mark = ref (Wal.max_lsn wal) in
  List.iter
    (fun op ->
      let before = Wal.max_lsn wal in
      (match op with
      | R_begin i ->
          if slots.(i) = None then slots.(i) <- Some (fst (eng.Engine.begin_txn ~now:(tick ())))
      | R_write (i, rid, payload) -> (
          match slots.(i) with
          | Some txn -> (
              match eng.Engine.write txn ~rid ~payload ~now:(tick ()) with
              | Engine.Committed_path _ -> ()
              | Engine.Conflict _ -> finish i eng.Engine.abort)
          | None -> ())
      | R_commit i -> finish i eng.Engine.commit
      | R_abort i -> finish i eng.Engine.abort
      | R_checkpoint -> (Option.get eng.Engine.checkpoint) ~now:(tick ())
      | R_maintain -> ignore (eng.Engine.maintenance ~now:(tick ()))
      | R_crash (k, torn) ->
          let keep =
            match k with
            | Some k -> !mark + (k mod (Wal.max_lsn wal - !mark + 1))
            | None -> Wal.flushed_lsn wal
          in
          Wal.crash wal ~keep_lsn:keep;
          Wal.crash shadow ~keep_lsn:keep;
          if torn then Wal_recovery.inject_torn_commit wal ~at:(tick ());
          sync_shadow ~shadow wal;
          same_recovery ~shadow wal "after the crash";
          Array.fill slots 0 4 None;
          let info = restart_of eng ~now:(tick ()) in
          Wal.truncate_to shadow ~lsn:info.Engine.recovered_to_lsn;
          sync_shadow ~shadow wal;
          same_recovery ~shadow wal "after the restart";
          match Invariant.check_post_recovery (Siro_engine.driver_exn eng) with
          | [] -> ()
          | { Invariant.invariant; detail } :: _ ->
              QCheck.Test.fail_reportf "post-recovery [%s] %s" invariant detail);
      sync_shadow ~shadow wal;
      mark := before)
    ops;
  same_recovery ~shadow wal "at the end";
  wal

let qcheck_recycled_log_matches_shadow =
  QCheck.Test.make ~name:"recycled log analyses = undiscarded shadow's" ~count:200
    recycle_history (fun ops ->
      ignore (run_recycle_history ops);
      true)

(* The property above is not vacuous: a fixed history recycles, and a
   crash that cuts the newest checkpoint falls back to the one kept. *)
let test_recycle_falls_back () =
  let c = R_checkpoint in
  let txn i = [ R_begin i; R_write (i, i, 7 * i); R_commit i ] in
  let wal =
    run_recycle_history
      (txn 0 @ [ c ] @ txn 1 @ [ c ] @ txn 2 @ [ c ] @ [ R_crash (Some 0, true) ] @ txn 3 @ [ c ])
  in
  check_bool "frames discarded" true (Wal.discarded wal > 0);
  check_bool "crash base moved past the bootstrap" true (Wal.crash_base wal > Wal.bootstrap_lsn)

(* Doubling a durable campaign leaves its log the same length: it holds
   the frames since the checkpoint before the last one, not the run. *)
let test_retained_frames_flat () =
  let retained duration_s =
    let wal = ref None in
    let cfg =
      { runner_cfg with Exp_config.duration_s; ckpt_period_s = 0.05; llts = [] }
    in
    let faults =
      Fault_plan.create ~seed:5
        ~crash_points:[ Wal.bootstrap_lsn + 300; Wal.bootstrap_lsn + 900 ]
        ~torn_tail:true ()
    in
    ignore
      (Runner.run ~faults
         ~engine:(fun s ->
           let e =
             Siro_engine.create
               ~driver_config:{ State.default_config with State.durable_wal = true }
               ~flavor:`Pg s
           in
           wal := Some (wal_of e);
           e)
         cfg);
    List.length (Wal.frames (Option.get !wal))
  in
  let one = retained 0.4 and two = retained 0.8 in
  if float_of_int two > 1.1 *. float_of_int one then
    Alcotest.failf "retained %d frames at 2x duration, %d at 1x" two one

let test_golden_metrics_unchanged () =
  (* The CI golden scenario: vdriver_sim run -e pg-vdriver -d 2 --llts 2
     --seed 42 (48x1000 schema, 16 workers, uniform access, LLT group at
     5 s — past the horizon, so it never starts). The metrics export
     must stay byte-identical to test/golden/obs_metrics.json. *)
  let cfg =
    {
      Exp_config.default with
      Exp_config.name = "pg-vdriver";
      seed = 42;
      duration_s = 2.;
      workers = 16;
      schema = { Schema.default with Schema.tables = 48; rows_per_table = 1000; record_bytes = 256 };
      phases = [ { Exp_config.at_s = 0.; pattern = Access.Uniform } ];
      llts = [ { Exp_config.start_s = 5.; duration_s = 10.; count = 2 } ];
    }
  in
  let reg = Metrics.create () in
  ignore
    (Metrics.with_registry reg (fun () ->
         Runner.run
           ~engine:(fun s -> Siro_engine.create ~driver_config:State.default_config ~flavor:`Pg s)
           cfg));
  let got = Jsonx.to_string (Metrics.to_json reg) ^ "\n" in
  let path =
    (* dune runtest runs in _build/default/test; a manual run from the
       repo root finds the file under test/. *)
    if Sys.file_exists "golden/obs_metrics.json" then "golden/obs_metrics.json"
    else "test/golden/obs_metrics.json"
  in
  let ic = open_in_bin path in
  let want =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_bool "golden obs_metrics.json unchanged by the durability layer" true (got = want)

let suites =
  [
    ( "recovery.record",
      [
        Alcotest.test_case "roundtrip every payload" `Quick test_record_roundtrip;
        Alcotest.test_case "crc rejects a bit flip" `Quick test_record_crc_rejects_flip;
        Alcotest.test_case "bad-crc encoder" `Quick test_record_bad_crc_encoder;
        QCheck_alcotest.to_alcotest qcheck_codec_encode_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_codec_decode_clean;
        QCheck_alcotest.to_alcotest qcheck_codec_decode_mutated;
        Alcotest.test_case "misspelt kinds rejected" `Quick test_kind_edits_rejected;
        Alcotest.test_case "scan allocates only its record" `Quick test_scan_allocates_only_its_record;
        QCheck_alcotest.to_alcotest qcheck_codec_foreign_snapshot;
        QCheck_alcotest.to_alcotest qcheck_checkpoint_encode;
        QCheck_alcotest.to_alcotest qcheck_checkpoint_decode_mutated;
        Alcotest.test_case "campaign log through both codecs" `Quick test_campaign_log_codec;
      ] );
    ( "recovery.wal",
      [
        Alcotest.test_case "non-durable log is a no-op" `Quick test_non_durable_log_is_noop;
        Alcotest.test_case "lsns, frontier, power loss" `Quick test_durable_lsns_and_crash;
        Alcotest.test_case "fsync failpoint conservative" `Quick test_fsync_failpoint_conservative;
        QCheck_alcotest.to_alcotest qcheck_frames_from_matches_fold;
        QCheck_alcotest.to_alcotest qcheck_shipping_matches_copying;
        QCheck_alcotest.to_alcotest qcheck_cursor_matches_analyze;
      ] );
    ( "recovery.restart",
      [
        Alcotest.test_case "checkpoint-spanning commit" `Quick test_checkpoint_spanning_commit_replays;
        QCheck_alcotest.to_alcotest qcheck_crash_at_every_lsn;
        Alcotest.test_case "honest restart truncates torn tail" `Quick
          test_honest_restart_truncates_torn_tail;
        Alcotest.test_case "skipped tail check is caught" `Quick test_skipped_tail_check_is_caught;
      ] );
    ( "recovery.recycle",
      [
        QCheck_alcotest.to_alcotest qcheck_recycled_log_matches_shadow;
        Alcotest.test_case "crash falls back to the kept checkpoint" `Quick
          test_recycle_falls_back;
        Alcotest.test_case "retained frames flat under doubling" `Quick test_retained_frames_flat;
      ] );
    ( "recovery.compat",
      [
        Alcotest.test_case "durability workload-invisible" `Quick test_durability_is_workload_invisible;
        Alcotest.test_case "golden metrics unchanged" `Slow test_golden_metrics_unchanged;
      ] );
  ]
