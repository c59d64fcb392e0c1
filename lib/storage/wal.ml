type frame = { lsn : int; repr : string }

type durable = {
  frames : frame Vec.t;
  mutable next_lsn : int;
  mutable flushed_lsn : int;
  mutable fsync_failures : int;
  mutable crashes : int;
  mutable mutations : int;
  mutable discarded : int;
  mutable crash_base : int;
}

type t = {
  mutable total : int;
  mutable records : int;
  mutable errors : int;
  mutable shard : int;
  mutable durable : durable option;
}

let create ?(shard = 0) () =
  if shard < 0 then invalid_arg "Wal.create: negative shard";
  { total = 0; records = 0; errors = 0; shard; durable = None }

let shard t = t.shard
let mutations t = match t.durable with None -> 0 | Some d -> d.mutations
let mutated d = d.mutations <- d.mutations + 1

let set_shard t shard =
  Option.iter mutated t.durable;
  t.shard <- shard

let append t ?at ~bytes () =
  if bytes < 0 then invalid_arg "Wal.append: negative size";
  match Failpoint.check "wal.append" with
  | `Fail ->
      t.errors <- t.errors + 1;
      Metrics.bump "wal.errors";
      if Trace.on () then begin
        match at with
        | Some at -> Trace.instant Trace.Wal "append-error" ~at [ ("bytes", Trace.I bytes) ]
        | None -> ()
      end
  | `Pass ->
      t.total <- t.total + bytes;
      t.records <- t.records + 1;
      Metrics.bump "wal.appends";
      Metrics.bump_by "wal.bytes" bytes;
      if Trace.on () then begin
        match at with
        | Some at ->
            Trace.instant Trace.Wal "append" ~at
              [ ("bytes", Trace.I bytes); ("total", Trace.I t.total) ]
        | None -> ()
      end

let total_bytes t = t.total
let records t = t.records
let errors t = t.errors

(* ------------------------------------------------------------------ *)
(* Durable mode: typed record frames with LSNs and an fsync frontier.  *)

(* The bootstrap checkpoint occupies LSNs 1-2 and is fsynced at engine
   creation; no crash may truncate below it or recovery would have no
   base image to replay from. A discard moves this base up to the
   checkpoint it keeps. *)
let bootstrap_lsn = 2

let enable_durability t =
  if t.durable = None then
    t.durable <-
      Some
        {
          frames = Vec.create ();
          next_lsn = 1;
          flushed_lsn = 0;
          fsync_failures = 0;
          crashes = 0;
          mutations = 0;
          discarded = 0;
          crash_base = bootstrap_lsn;
        }

let is_durable t = t.durable <> None

let log t ?(at = 0) payload =
  match t.durable with
  | None -> None
  | Some d -> (
      match Failpoint.check "wal.append" with
      | `Fail ->
          (* The simulated log device rejected the write: the record is
             lost before it gets an LSN, so the surviving log stays a
             gap-free prefix-of-intent; the loss is only visible in the
             conservative error count. *)
          t.errors <- t.errors + 1;
          Metrics.bump "wal.errors";
          if Trace.on () then
            Trace.instant Trace.Wal "log-error" ~at
              [ ("kind", Trace.S (Wal_record.kind_name payload)) ];
          None
      | `Pass ->
          let lsn = d.next_lsn in
          d.next_lsn <- lsn + 1;
          let repr = Wal_record.encode { Wal_record.lsn; at; shard = t.shard; payload } in
          Vec.push d.frames { lsn; repr };
          t.total <- t.total + String.length repr;
          t.records <- t.records + 1;
          Metrics.bump "wal.appends";
          Metrics.bump_by "wal.bytes" (String.length repr);
          if Trace.on () then
            Trace.instant Trace.Wal "log" ~at
              [ ("lsn", Trace.I lsn); ("kind", Trace.S (Wal_record.kind_name payload)) ];
          Some lsn)

let fsync t ?(at = 0) () =
  match t.durable with
  | None -> true
  | Some d -> (
      match Failpoint.check "wal.fsync" with
      | `Fail ->
          (* Like a rejected append, a rejected fsync is conservative:
             nothing new becomes durable and the failure is counted. *)
          t.errors <- t.errors + 1;
          d.fsync_failures <- d.fsync_failures + 1;
          Metrics.bump "wal.errors";
          if Trace.on () then
            Trace.instant Trace.Wal "fsync-error" ~at
              [ ("flushed", Trace.I d.flushed_lsn) ];
          false
      | `Pass ->
          d.flushed_lsn <- d.next_lsn - 1;
          Metrics.bump "wal.fsyncs";
          if Trace.on () then
            Trace.instant Trace.Wal "fsync" ~at [ ("flushed", Trace.I d.flushed_lsn) ];
          true)

let with_durable t name f =
  match t.durable with
  | None -> invalid_arg (Printf.sprintf "Wal.%s: durability not enabled" name)
  | Some d -> f d

let max_lsn t =
  match t.durable with
  | None -> 0
  | Some d -> (
      match Vec.length d.frames with 0 -> 0 | n -> (Vec.get d.frames (n - 1)).lsn)

let flushed_lsn t = match t.durable with None -> 0 | Some d -> d.flushed_lsn
let next_lsn t = match t.durable with None -> 1 | Some d -> d.next_lsn
let fsync_failures t = match t.durable with None -> 0 | Some d -> d.fsync_failures
let crashes t = match t.durable with None -> 0 | Some d -> d.crashes
let discarded t = match t.durable with None -> 0 | Some d -> d.discarded
let crash_base t = match t.durable with None -> bootstrap_lsn | Some d -> d.crash_base

let frames t =
  match t.durable with
  | None -> []
  | Some d -> Vec.fold_left (fun acc f -> (f.lsn, f.repr) :: acc) [] d.frames |> List.rev

(* Index of the first frame with an LSN above [lsn]. Frame LSNs strictly
   increase along the [Vec] — appends claim [next_lsn], crashes and
   truncations only cut the tail and discards only the head — though
   not contiguously: a crash leaves a gap, because [next_lsn] is never
   reset. *)
let first_above frames lsn =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if (Vec.get frames mid).lsn > lsn then go lo mid else go (mid + 1) hi
  in
  go 0 (Vec.length frames)

let crash t ~keep_lsn =
  with_durable t "crash" (fun d ->
      let keep = max keep_lsn d.crash_base in
      mutated d;
      Vec.filter_in_place (fun f -> f.lsn <= keep) d.frames;
      d.flushed_lsn <- min d.flushed_lsn keep;
      d.crashes <- d.crashes + 1;
      Metrics.bump "wal.crashes")

let truncate_to t ~lsn =
  with_durable t "truncate_to" (fun d ->
      mutated d;
      Vec.filter_in_place (fun f -> f.lsn <= lsn) d.frames;
      d.flushed_lsn <- min d.flushed_lsn lsn)

let discard_below t ~lsn ~anchor =
  with_durable t "discard_below" (fun d ->
      let n = first_above d.frames (lsn - 1) in
      if n > 0 then begin
        mutated d;
        Vec.drop_front d.frames n;
        d.discarded <- d.discarded + n
      end;
      d.crash_base <- max d.crash_base anchor)

let inject_raw t repr =
  (* A partially-written sector: it claimed its LSN on the device but
     never counted as a completed append, so records/bytes accounting
     stays conservative. *)
  with_durable t "inject_raw" (fun d ->
      mutated d;
      let lsn = d.next_lsn in
      d.next_lsn <- lsn + 1;
      Vec.push d.frames { lsn; repr };
      lsn)

(* ------------------------------------------------------------------ *)
(* Log shipping: the replica-side mirror face.                         *)

let frames_from t ~lsn =
  match t.durable with
  | None -> []
  | Some d ->
      let first = first_above d.frames lsn in
      let rec collect i acc =
        if i < first then acc
        else
          let f = Vec.get d.frames i in
          collect (i - 1) ((f.lsn, f.repr) :: acc)
      in
      collect (Vec.length d.frames - 1) []

let iter_from t ~lsn f =
  match t.durable with
  | None -> ()
  | Some d ->
      for i = first_above d.frames lsn to Vec.length d.frames - 1 do
        let fr = Vec.get d.frames i in
        f fr.lsn fr.repr
      done

let receive t ~lsn ~repr =
  with_durable t "receive" (fun d ->
      if lsn < d.next_lsn then `Duplicate
      else if lsn > d.next_lsn then `Gap
      else begin
        Vec.push d.frames { lsn; repr };
        d.next_lsn <- lsn + 1;
        (* A shipped frame is durable on the mirror as soon as it is
           acknowledged: backups replay from their own device at
           promotion, so the ack must imply survival. *)
        d.flushed_lsn <- lsn;
        t.total <- t.total + String.length repr;
        t.records <- t.records + 1;
        `Applied
      end)

let adopt t ~src =
  match src.durable with
  | None -> invalid_arg "Wal.adopt: source durability not enabled"
  | Some sd ->
      with_durable t "adopt" (fun d ->
          mutated d;
          Vec.clear d.frames;
          Vec.iter (fun f -> Vec.push d.frames f) sd.frames;
          d.next_lsn <- sd.next_lsn;
          d.flushed_lsn <- sd.flushed_lsn;
          d.discarded <- sd.discarded;
          d.crash_base <- sd.crash_base;
          t.total <- src.total;
          t.records <- src.records;
          t.shard <- src.shard)

let corrupt_frame t ~lsn f =
  with_durable t "corrupt_frame" (fun d ->
      let i = first_above d.frames (lsn - 1) in
      if i < Vec.length d.frames && (Vec.get d.frames i).lsn = lsn then begin
        mutated d;
        let fr = Vec.get d.frames i in
        Vec.set d.frames i { fr with repr = f fr.repr };
        true
      end
      else false)
