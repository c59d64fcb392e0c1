type step =
  | Prepared of { tid : int; shard : int }
  | Decided of { tid : int; cts : int }
  | Applied of { tid : int; shard : int }
  | Acked of { tid : int; shard : int }
  | Forgotten of { tid : int }

let step_name = function
  | Prepared _ -> "prepared"
  | Decided _ -> "decided"
  | Applied _ -> "applied"
  | Acked _ -> "acked"
  | Forgotten _ -> "forgotten"

type net_sabotage = Apply_on_timeout | Ack_forge

type outcome = Committed of Clock.time | Net_abort of Clock.time

exception Shard_down of int

(* Everything the coordinator/participant choreography says now rides
   the bus. [Abort_done] and the prepare votes are in-memory protocol
   traffic only — they never touch a WAL, matching the synchronous
   code's durable footprint exactly. *)
type msg =
  | Prepare_req of { tid : int; coord : int; parts : int list }
  | Prepare_ok of { tid : int; shard : int }
  | Decision_commit of { gid : int; cts : int }
  | Decision_abort of { gid : int; ats : int }
  | Abort_done of { gid : int; shard : int }
  | Ack_msg of { gid : int; shard : int }
  | Query_decision of { tid : int; shard : int }
  | Decision_reply of { tid : int; verdict : verdict }
  | Epoch_msg of { epoch : int; zones : Zone_set.t; ts : Timestamp.t }

and verdict = V_commit of int | V_abort of int

type pending_commit = {
  pc_coord : int;
  pc_cts : int;
  pc_parts : int list;
  mutable pc_next : Clock.time; (* next resend sweep *)
}

type pending_abort = {
  pa_coord : int;
  pa_ats : int;
  mutable pa_remaining : int list;
  mutable pa_next : Clock.time;
}

type t = {
  n : int;
  costs : Costs.t;
  schema : Schema.t; (* global layout; shard s holds rids congruent to s mod n *)
  mgr : Txn_manager.t;
  epoch : Epoch.t;
  shards : Shard.t array;
  participants : (int, int list ref) Hashtbl.t; (* tid -> shards written *)
  prepared_now : (int, int) Hashtbl.t array; (* per shard: tid -> coord *)
  decisions_now : (int, int) Hashtbl.t array; (* per coord: gid -> cts *)
  mutable steps : int; (* durable 2PC micro-steps taken, globally *)
  mutable on_step : (int -> step -> unit) option;
  mutable skip_coord_decision : bool;
  mutable single_commits : int;
  mutable cross_commits : int;
  (* --- network fabric --- *)
  net : msg Bus.t;
  net_cfg : Net_fault.config;
  rto : Clock.time; (* per-attempt vote wait *)
  indoubt_after : Clock.time; (* participant termination timeout *)
  resend_period : Clock.time; (* coordinator decision resend sweep *)
  mutable net_sabotage : net_sabotage option;
  backoffs : (int * int, Backoff.t) Hashtbl.t; (* (src,dst) channel policies *)
  txn_of : (int, Txn.t) Hashtbl.t; (* in-flight txn objects for deferred apply *)
  votes : (int * int, unit) Hashtbl.t; (* coordinator: (tid, shard) prepare votes *)
  acks : (int * int, unit) Hashtbl.t; (* coordinator: (gid, shard) commit acks *)
  inflight : (int, unit) Hashtbl.t; (* coordinator mid-protocol, pre-decision *)
  decided_all : (int, int) Hashtbl.t; (* durable commit decisions, never pruned *)
  aborted_all : (int, int) Hashtbl.t; (* abort decisions (gid -> ats) *)
  pending_commits : (int, pending_commit) Hashtbl.t;
  pending_aborts : (int, pending_abort) Hashtbl.t;
  prepared_at : (int, Clock.time) Hashtbl.t array; (* per shard: tid -> prepare time *)
  query_at : (int, Clock.time) Hashtbl.t array; (* per shard: tid -> next query time *)
  done_t : (int, unit) Hashtbl.t array; (* per shard: locally resolved (dedup) *)
  shard_epoch : int array; (* per shard: last applied broadcast epoch *)
  shard_zones : Zone_set.t array; (* per shard: zones of that epoch *)
  mutable net_aborts : int; (* cross commits failed fast as unreachable *)
  mutable indoubt_max : Clock.time; (* longest prepared->resolved residence *)
  mutable indoubt_sum : Clock.time;
  mutable indoubt_n : int;
  (* --- replication (None = unreplicated; every path below is then
     untouched, keeping the single-copy run byte-identical) --- *)
  mutable repl : Replica.t option;
  poisoned : (int, unit) Hashtbl.t; (* open txns that lost writes to a failover *)
  fence_at : Clock.time array; (* per shard: last promotion time (0 = never) *)
  acked_log : (int * int * int list) Vec.t; (* (tid, cts, parts) acked to the client *)
}

let shard_of t ~rid = rid mod t.n
let local_rid t ~rid = rid / t.n
let global_rid t ~sid ~local = (local * t.n) + sid
let local_records ~shards ~records ~sid = (records - sid + shards - 1) / shards

let svc t = t.n (* epoch/control service endpoint *)

let passthrough t =
  Net_fault.is_none t.net_cfg && t.net_sabotage = None && t.repl = None

(* Replication seams: with no replica layer attached every one of these
   is the identity, and the commit paths reduce to the single-copy
   code. *)
let shard_up t s = match t.repl with None -> true | Some r -> Replica.shard_up r ~sid:s

let rep_sync t ~s ~now =
  match t.repl with None -> `Quorum | Some r -> Replica.replicate r ~sid:s ~now

let record_acked t ~tid ~cts parts = Vec.push t.acked_log (tid, cts, parts)

let step t s =
  t.steps <- t.steps + 1;
  Metrics.bump ("twopc.step." ^ step_name s);
  match t.on_step with Some f -> f t.steps s | None -> ()

let backoff_for t ~src ~dst =
  match Hashtbl.find_opt t.backoffs (src, dst) with
  | Some b -> b
  | None ->
      let b =
        Backoff.channel ~base_ns:t.rto ~cap_ns:(8 * t.rto) ~max_attempts:4
          ~seed:t.net_cfg.Net_fault.seed
          ~channel:(Printf.sprintf "net:%d->%d" src dst)
          ()
      in
      Hashtbl.replace t.backoffs (src, dst) b;
      b

(* Participant-side resolution of a prepared (or not-yet-prepared but
   written-to) transaction. Guarded by the per-shard [done_t] table:
   duplicated or reordered decision frames are no-ops, live and at any
   interleaving. *)
let resolve_indoubt_residence t ~s ~tid ~now =
  match Hashtbl.find_opt t.prepared_at.(s) tid with
  | None -> ()
  | Some at ->
      Hashtbl.remove t.prepared_at.(s) tid;
      let res = now - at in
      if res > 0 then begin
        if res > t.indoubt_max then t.indoubt_max <- res;
        t.indoubt_sum <- t.indoubt_sum + res;
        t.indoubt_n <- t.indoubt_n + 1
      end

let apply_commit_at t ~s ~coord ~gid ~cts ~now =
  if not (Hashtbl.mem t.done_t.(s) gid) then begin
    match Hashtbl.find_opt t.txn_of gid with
    | None -> ()
    | Some txn -> (
        match t.net_sabotage with
        | Some Ack_forge when s <> coord ->
            (* Sabotage: roll the local work back, lie with an ack. The
               coordinator forgets a transaction one shard aborted — the
               cross-shard atomicity oracle must catch this from the
               logs alone. *)
            t.shards.(s).Shard.twopc.Engine.apply_abort txn ~ats:0 ~now;
            Hashtbl.remove t.prepared_now.(s) gid;
            resolve_indoubt_residence t ~s ~tid:gid ~now;
            Hashtbl.replace t.done_t.(s) gid ();
            Bus.send t.net ~src:s ~dst:coord ~now (Ack_msg { gid; shard = s })
        | _ ->
            t.shards.(s).Shard.twopc.Engine.apply_commit txn ~cts ~now;
            Hashtbl.remove t.prepared_now.(s) gid;
            resolve_indoubt_residence t ~s ~tid:gid ~now;
            Hashtbl.replace t.done_t.(s) gid ();
            step t (Applied { tid = gid; shard = s });
            (* Participant apply replicates lazily: the decision is
               already quorum-durable at the coordinator, so a backup
               missing this frame recovers it through the termination
               query. A kill inside this ship still must not ack. *)
            ignore (rep_sync t ~s ~now);
            if shard_up t s then
              Bus.send t.net ~src:s ~dst:coord ~now (Ack_msg { gid; shard = s }))
  end
  else if shard_up t s then
    (* Already resolved here: the first ack was lost, or a
       promotion-time restart resolved it unseen by the coordinator.
       Re-acking on the duplicate decision is how the coordinator gets
       to forget, replicated or not. *)
    Bus.send t.net ~src:s ~dst:coord ~now (Ack_msg { gid; shard = s })

let apply_abort_at t ~s ~coord ~gid ~ats ~now =
  if not (Hashtbl.mem t.done_t.(s) gid) then begin
    (match Hashtbl.find_opt t.txn_of gid with
    | None -> ()
    | Some txn -> t.shards.(s).Shard.twopc.Engine.apply_abort txn ~ats ~now);
    Hashtbl.remove t.prepared_now.(s) gid;
    resolve_indoubt_residence t ~s ~tid:gid ~now;
    Hashtbl.replace t.done_t.(s) gid ()
  end;
  (* Always confirm: the first confirmation may have been lost. *)
  Bus.send t.net ~src:s ~dst:coord ~now (Abort_done { gid; shard = s })

let all_acked t ~gid parts = List.for_all (fun s -> Hashtbl.mem t.acks (gid, s)) parts

let handle t ~ep ~now ~src msg =
  let s = ep in
  (* A dead shard processes nothing: its primary is gone and the
     promoted successor rebuilds protocol state from the device. *)
  if not (shard_up t s) then ()
  else
  match msg with
  | Prepare_req { tid; coord; parts } ->
      if not (Hashtbl.mem t.done_t.(s) tid) then begin
        if not (Hashtbl.mem t.prepared_now.(s) tid) then begin
          t.shards.(s).Shard.twopc.Engine.log_prepare ~tid ~coord ~shards:parts ~now;
          Hashtbl.replace t.prepared_now.(s) tid coord;
          Hashtbl.replace t.prepared_at.(s) tid now;
          step t (Prepared { tid; shard = s })
        end;
        (* Re-voting on a duplicate request is how a lost vote heals.
           Under replication the vote is a durability promise, so it is
           withheld until the prepare frame itself is quorum-replicated
           — and never given by a shard that died during that ship. *)
        if rep_sync t ~s ~now = `Quorum && shard_up t s then
          Bus.send t.net ~src:s ~dst:coord ~now (Prepare_ok { tid; shard = s })
      end
  | Prepare_ok { tid; shard } -> Hashtbl.replace t.votes (tid, shard) ()
  | Decision_commit { gid; cts } -> apply_commit_at t ~s ~coord:src ~gid ~cts ~now
  | Decision_abort { gid; ats } -> apply_abort_at t ~s ~coord:src ~gid ~ats ~now
  | Abort_done { gid; shard } -> (
      match Hashtbl.find_opt t.pending_aborts gid with
      | None -> ()
      | Some pa ->
          pa.pa_remaining <- List.filter (fun x -> x <> shard) pa.pa_remaining;
          if pa.pa_remaining = [] then begin
            Hashtbl.remove t.pending_aborts gid;
            Hashtbl.remove t.txn_of gid
          end)
  | Ack_msg { gid; shard } ->
      if not (Hashtbl.mem t.acks (gid, shard)) then begin
        Hashtbl.replace t.acks (gid, shard) ();
        let cwal = t.shards.(s).Shard.wal in
        ignore (Wal.log cwal ~at:now (Wal_record.Ack { gid; shard }));
        step t (Acked { tid = gid; shard });
        match Hashtbl.find_opt t.pending_commits gid with
        | Some pc when all_acked t ~gid pc.pc_parts ->
            ignore (Wal.log cwal ~at:now (Wal_record.Forget { gid }));
            Hashtbl.remove t.decisions_now.(s) gid;
            Hashtbl.remove t.pending_commits gid;
            Hashtbl.remove t.txn_of gid;
            List.iter
              (fun x ->
                Hashtbl.remove t.acks (gid, x);
                Hashtbl.remove t.votes (gid, x))
              pc.pc_parts;
            step t (Forgotten { tid = gid })
        | _ -> ()
      end
  | Query_decision { tid; shard } ->
      (* In-doubt termination: answer only from what this coordinator
         durably knows. Mid-protocol transactions get silence (the
         decision is coming); otherwise a durable [Coord_commit] means
         commit, and anything else is presumed abort — exactly the rule
         recovery applies to the same log. *)
      if not (Hashtbl.mem t.inflight tid) then begin
        let verdict =
          match Hashtbl.find_opt t.decided_all tid with
          | Some cts -> V_commit cts
          | None -> (
              match Hashtbl.find_opt t.aborted_all tid with
              | Some ats -> V_abort ats
              | None -> V_abort 0)
        in
        Bus.send t.net ~src:s ~dst:shard ~now (Decision_reply { tid; verdict })
      end
  | Decision_reply { tid; verdict } -> (
      match verdict with
      | V_commit cts -> apply_commit_at t ~s ~coord:src ~gid:tid ~cts ~now
      | V_abort ats -> apply_abort_at t ~s ~coord:src ~gid:tid ~ats ~now)
  | Epoch_msg { epoch; zones; ts = _ } ->
      (* Monotone application: duplicates and reorderings are no-ops,
         staleness only under-prunes. *)
      if epoch > t.shard_epoch.(s) then begin
        t.shard_epoch.(s) <- epoch;
        t.shard_zones.(s) <- zones
      end

(* One in-doubt lookup per [Wal_recovery.expect] call: each coordinator
   log is analyzed at most once, on its first query. The scan is always
   honest (CRC on): recovery may not trust a torn decision. *)
let decision_resolver t () =
  let tables = Array.make t.n None in
  fun ~tid ~coord ->
    if coord < 0 || coord >= t.n then None
    else
      let table =
        match tables.(coord) with
        | Some table -> table
        | None ->
            let table =
              Wal_recovery.decisions
                (Wal_recovery.analyze ~check_crc:true t.shards.(coord).Shard.wal)
            in
            tables.(coord) <- Some table;
            table
      in
      Hashtbl.find_opt table tid

let create ?costs ?driver_config ?(flavor = `Pg) ?(net = Net_fault.none) ?net_rto
    ?net_indoubt_after ~shards:n schema =
  if n < 1 then invalid_arg "Shard_group.create: need at least one shard";
  let costs = match costs with Some c -> c | None -> Costs.default in
  let mgr = Txn_manager.create () in
  let epoch = Epoch.create mgr in
  let records = Schema.records schema in
  let shards =
    Array.init n (fun sid ->
        (* Local layout: the shard's slice of the keyspace as one flat
           table. Global rid [r] lives on shard [r mod n] at local rid
           [r / n]. *)
        let local_schema =
          {
            schema with
            Schema.tables = 1;
            rows_per_table = max 1 (local_records ~shards:n ~records ~sid);
          }
        in
        Shard.create ~costs ?driver_config ~mgr ~sid ~flavor local_schema)
  in
  let rto =
    match net_rto with
    | Some r ->
        if r < 1 then invalid_arg "Shard_group.create: net_rto must be positive";
        r
    | None -> max (Clock.us 200) (net.Net_fault.min_delay + net.Net_fault.max_delay)
  in
  let indoubt_after =
    match net_indoubt_after with
    | Some r ->
        if r < 1 then invalid_arg "Shard_group.create: net_indoubt_after must be positive";
        r
    | None -> 8 * rto
  in
  let t =
    {
      n;
      costs;
      schema;
      mgr;
      epoch;
      shards;
      participants = Hashtbl.create 256;
      prepared_now = Array.init n (fun _ -> Hashtbl.create 16);
      decisions_now = Array.init n (fun _ -> Hashtbl.create 16);
      steps = 0;
      on_step = None;
      skip_coord_decision = false;
      single_commits = 0;
      cross_commits = 0;
      net = Bus.create ~faults:net ~endpoints:(n + 1) ();
      net_cfg = net;
      rto;
      indoubt_after;
      resend_period = 4 * rto;
      net_sabotage = None;
      backoffs = Hashtbl.create 16;
      txn_of = Hashtbl.create 64;
      votes = Hashtbl.create 64;
      acks = Hashtbl.create 64;
      inflight = Hashtbl.create 16;
      decided_all = Hashtbl.create 256;
      aborted_all = Hashtbl.create 256;
      pending_commits = Hashtbl.create 16;
      pending_aborts = Hashtbl.create 16;
      prepared_at = Array.init n (fun _ -> Hashtbl.create 16);
      query_at = Array.init n (fun _ -> Hashtbl.create 16);
      done_t = Array.init n (fun _ -> Hashtbl.create 256);
      shard_epoch = Array.make n 0;
      shard_zones = Array.make n (Epoch.current epoch);
      net_aborts = 0;
      indoubt_max = 0;
      indoubt_sum = 0;
      indoubt_n = 0;
      repl = None;
      poisoned = Hashtbl.create 16;
      fence_at = Array.make n 0;
      acked_log = Vec.create ();
    }
  in
  for ep = 0 to n - 1 do
    Bus.set_handler t.net ~ep (fun ~now ~src msg -> handle t ~ep ~now ~src msg)
  done;
  (* Commit-log horizon floor: an in-doubt participant's transaction
     stays exact in the shared log until it resolves, and any outcome
     until it is quorum-durable — the promotion fixup asks for its exact
     status ({!Txn_manager.rollback_unreplicated}). A decision not yet
     applied at some participant needs no floor here: that participant
     still holds the write set its engine registers. *)
  Txn_manager.register_floor mgr (fun () ->
      let m = ref Timestamp.infinity in
      Array.iter (Hashtbl.iter (fun tid _ -> if tid < !m then m := tid)) t.prepared_now;
      match t.repl with Some r -> min !m (Replica.unreplicated_floor r) | None -> !m);
  Array.iter
    (fun (sh : Shard.t) ->
      let d = sh.Shard.driver in
      let sid = sh.Shard.sid in
      (* Dead zones come from the epoch broadcast as delivered over the
         fabric, never from a direct live-table read: each shard prunes
         against the last broadcast that {e reached} it, and staleness
         (delay, loss, partition) only under-prunes (see {!Epoch}). *)
      d.State.zone_source <- Some (fun () -> t.shard_zones.(sid));
      (* Fuzzy checkpoints persist the shard's in-doubt window and the
         coordinator's decided-but-unforgotten window, so a crash
         between a checkpoint and the decision recovers right. *)
      d.State.ckpt_indoubt <-
        Some
          (fun () ->
            let prep =
              Hashtbl.fold (fun tid coord acc -> (tid, coord) :: acc)
                t.prepared_now.(sh.Shard.sid) []
              |> List.sort compare
            in
            let dec =
              Hashtbl.fold (fun gid cts acc -> (gid, cts) :: acc)
                t.decisions_now.(sh.Shard.sid) []
              |> List.sort compare
            in
            (prep, dec));
      (* In-doubt resolution at restart: ask the coordinator's durable
         log — its trustworthy prefix plus its checkpoint's decision
         window. *)
      d.State.indoubt_resolver <- Some (decision_resolver t))
    shards;
  t

let shards t = t.shards
let mgr t = t.mgr
let epoch t = t.epoch
let wals t = Array.to_list (Array.map (fun sh -> (sh.Shard.sid, sh.Shard.wal)) t.shards)
let two_pc_steps t = t.steps
let single_commits t = t.single_commits
let cross_commits t = t.cross_commits
let set_on_step t f = t.on_step <- f
let set_skip_coord_decision t b = t.skip_coord_decision <- b
let set_net_sabotage t s = t.net_sabotage <- s
let net_indoubt_after t = t.indoubt_after
let net_stats t = Bus.stats t.net
let net_aborts t = t.net_aborts
let indoubt_count t ~sid = Hashtbl.length t.prepared_now.(sid)

let indoubt_total t =
  Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.prepared_now

let epoch_lag t ~sid = Epoch.epoch t.epoch - t.shard_epoch.(sid)
let max_indoubt_residence t = t.indoubt_max

let mean_indoubt_residence t =
  if t.indoubt_n = 0 then 0. else float_of_int t.indoubt_sum /. float_of_int t.indoubt_n

let net_pending t =
  Bus.pending t.net + Hashtbl.length t.pending_commits + Hashtbl.length t.pending_aborts

let broadcast ?(now = 0) t =
  let e = Epoch.broadcast t.epoch in
  let _, zones, ts = Epoch.snapshot t.epoch in
  for s = 0 to t.n - 1 do
    Bus.send t.net ~src:(svc t) ~dst:s ~now (Epoch_msg { epoch = e; zones; ts })
  done;
  e

let begin_txn t ~now =
  let txn = Txn_manager.begin_txn t.mgr ~now in
  (txn, now + t.costs.Costs.txn_begin)

(* A transaction that began before shard [s]'s last failover holds a
   snapshot of the dead primary's timeline; the promoted engine cannot
   honestly serve it (its versions may be gone). Fenced like a down
   shard: the worker aborts and retries on the new timeline. *)
let fenced t (txn : Txn.t) ~s = txn.Txn.begin_time < t.fence_at.(s)

let read t (txn : Txn.t) ~rid ~now =
  let s = shard_of t ~rid in
  if (not (shard_up t s)) || fenced t txn ~s then raise (Shard_down s);
  t.shards.(s).Shard.engine.Engine.read txn ~rid:(local_rid t ~rid) ~now

let write t (txn : Txn.t) ~rid ~payload ~now =
  let s = shard_of t ~rid in
  if (not (shard_up t s)) || fenced t txn ~s then raise (Shard_down s);
  let tid = txn.Txn.tid in
  (* First touch of this shard: log the per-shard Txn_begin, so a crash
     before any outcome leaves an honest shard-local loser. *)
  (match Hashtbl.find_opt t.participants tid with
  | Some l ->
      if not (List.mem s !l) then begin
        t.shards.(s).Shard.twopc.Engine.log_begin ~tid ~now;
        l := s :: !l
      end
  | None ->
      t.shards.(s).Shard.twopc.Engine.log_begin ~tid ~now;
      Hashtbl.replace t.participants tid (ref [ s ]));
  t.shards.(s).Shard.engine.Engine.write txn ~rid:(local_rid t ~rid) ~payload ~now

let take_participants t tid =
  match Hashtbl.find_opt t.participants tid with
  | None -> []
  | Some l ->
      Hashtbl.remove t.participants tid;
      List.sort_uniq compare !l

(* Bounded-retry vote collection. Passthrough never enters the wait
   loop (the inline prepare already voted), so no backoff stream is
   ever created or drawn from — the no-fault run stays byte-identical.
   Under faults the channel's own backoff paces resends; exhaustion
   means the participant is unreachable and the transaction fails
   fast. *)
let wait_vote t ~coord ~s ~tid ~parts tref =
  if Hashtbl.mem t.votes (tid, s) then true
  else begin
    let b = backoff_for t ~src:coord ~dst:s in
    Backoff.reset b;
    let rec go () =
      if Hashtbl.mem t.votes (tid, s) then true
      else
        match Backoff.next b with
        | None -> false
        | Some d ->
            tref := !tref + d;
            ignore (Bus.pump t.net ~now:!tref);
            if Hashtbl.mem t.votes (tid, s) then true
            else begin
              Bus.count_retry t.net;
              Bus.send t.net ~src:coord ~dst:s ~now:!tref (Prepare_req { tid; coord; parts });
              ignore (Bus.pump t.net ~now:!tref);
              go ()
            end
    in
    go ()
  end

(* Global abort with reliable (resent-until-confirmed) participant
   notification. Used by the conflict path and by a phase-1 that could
   not reach every participant. *)
let abort_cross t (txn : Txn.t) ~tid ~parts ~now =
  Txn_manager.abort t.mgr txn ~now;
  let ats =
    match Commit_log.status (Txn_manager.commit_log t.mgr) tid with
    | Some (Commit_log.Aborted_at a) -> a
    | _ -> 0
  in
  let coord = List.hd parts in
  (* Informational only — absence of a decision already means abort.
     Never forced, and never written through a detached device. *)
  if shard_up t coord then
    ignore (Wal.log t.shards.(coord).Shard.wal ~at:now (Wal_record.Coord_abort { gid = tid }));
  Hashtbl.replace t.aborted_all tid ats;
  Hashtbl.replace t.txn_of tid txn;
  Hashtbl.replace t.pending_aborts tid
    { pa_coord = coord; pa_ats = ats; pa_remaining = parts; pa_next = now + t.resend_period };
  List.iter (fun s -> Hashtbl.remove t.votes (tid, s)) parts;
  List.iter
    (fun s -> Bus.send t.net ~src:coord ~dst:s ~now (Decision_abort { gid = tid; ats }))
    parts;
  now + t.costs.Costs.txn_commit

let abort t (txn : Txn.t) ~now =
  let tid = txn.Txn.tid in
  match take_participants t tid with
  | [] ->
      Txn_manager.abort t.mgr txn ~now;
      now + t.costs.Costs.txn_commit
  | [ s ] -> t.shards.(s).Shard.engine.Engine.abort txn ~now
  | parts -> abort_cross t txn ~tid ~parts ~now

let commit_checked t (txn : Txn.t) ~now =
  let tid = txn.Txn.tid in
  if Hashtbl.mem t.poisoned tid then begin
    (* A shard holding this transaction's un-replicated writes failed
       over: those writes do not exist on the promoted timeline, so the
       only honest outcome is a clean global abort. *)
    Hashtbl.remove t.poisoned tid;
    Net_abort (abort t txn ~now)
  end
  else
  match take_participants t tid with
  | [] ->
      (* Read-only: commit in the shared order; no shard logged a
         begin, so no shard's recovery will ever ask about it. *)
      Txn_manager.commit t.mgr txn ~now;
      Committed (now + t.costs.Costs.txn_commit)
  | [ s ] -> (
      (* One participant: plain single-shard durability, no 2PC — and
         no fabric, so single-shard traffic keeps committing under any
         partition. *)
      match t.repl with
      | None ->
          t.single_commits <- t.single_commits + 1;
          Committed (t.shards.(s).Shard.engine.Engine.commit txn ~now)
      | Some _ when not (shard_up t s) ->
          t.net_aborts <- t.net_aborts + 1;
          Net_abort (t.shards.(s).Shard.engine.Engine.abort txn ~now)
      | Some _ -> (
          let at = t.shards.(s).Shard.engine.Engine.commit txn ~now in
          (* The commit frame is forced locally; the client may only
             hear "committed" once it is quorum-durable and the shard
             survived the ship. *)
          match rep_sync t ~s ~now with
          | `Quorum when shard_up t s ->
              t.single_commits <- t.single_commits + 1;
              let cts =
                match Commit_log.commit_ts_of (Txn_manager.commit_log t.mgr) tid with
                | Some c -> c
                | None -> 0
              in
              record_acked t ~tid ~cts [ s ];
              Committed at
          | _ -> Net_abort at))
  | parts -> (
      (* Presumed-abort 2PC over the fabric. The coordinator is the
         smallest participant; each durable micro-step still fires the
         [on_step] hook — the crash campaign's way of dying at every
         point of the protocol. *)
      let coord = List.hd parts in
      if t.repl <> None && not (List.for_all (fun s -> shard_up t s) parts) then begin
        (* Fail fast without entering phase 1: some participant has no
           primary right now. Prepared nobody, promised nobody. *)
        t.net_aborts <- t.net_aborts + 1;
        Net_abort (abort_cross t txn ~tid ~parts ~now)
      end
      else begin
      let tref = ref now in
      Hashtbl.replace t.inflight tid ();
      Hashtbl.replace t.txn_of tid txn;
      (* Phase 1: prepare everywhere, with per-channel timeout+retry.
         The coordinator's self-send is inline and lossless, so its own
         prepare always lands first. *)
      let unreachable =
        List.exists
          (fun s ->
            Bus.send t.net ~src:coord ~dst:s ~now:!tref (Prepare_req { tid; coord; parts });
            not (wait_vote t ~coord ~s ~tid ~parts tref))
          parts
      in
      Hashtbl.remove t.inflight tid;
      if unreachable then begin
        (* Fail fast: some participant is unreachable (lost votes past
           the retry budget, or a partition). Globally abort; prepared
           participants resolve through the abort resend or the
           termination query, both of which answer presumed-abort. *)
        t.net_aborts <- t.net_aborts + 1;
        Net_abort (abort_cross t txn ~tid ~parts ~now:!tref)
      end
      else begin
        (* The in-memory decision: global snapshot order commits once. *)
        Txn_manager.commit t.mgr txn ~now:!tref;
        let cts =
          match Commit_log.commit_ts_of (Txn_manager.commit_log t.mgr) tid with
          | Some c -> c
          | None -> 0
        in
        let cwal = t.shards.(coord).Shard.wal in
        if t.skip_coord_decision then Metrics.bump "twopc.decisions_skipped"
        else begin
          (* The commit point: the decision must be durable before any
             participant applies. *)
          ignore
            (Wal.log cwal ~at:!tref
               (Wal_record.Coord_commit { gid = tid; cts; shards = parts }));
          ignore (Wal.fsync cwal ~at:!tref ());
          Hashtbl.replace t.decisions_now.(coord) tid cts;
          Hashtbl.replace t.decided_all tid cts
        end;
        step t (Decided { tid; cts });
        Hashtbl.replace t.pending_commits tid
          {
            pc_coord = coord;
            pc_cts = cts;
            pc_parts = parts;
            pc_next = !tref + t.resend_period;
          };
        (* The decision frame must itself survive the coordinator: only
           a quorum-replicated [Coord_commit] may be acknowledged. A
           coordinator that dies during this ship leaves the decision
           durable on its own disk at most — the promoted timeline
           rules, and in-doubt participants terminate against it. *)
        let rep_ok =
          match t.repl with
          | None -> true
          | Some _ -> rep_sync t ~s:coord ~now:!tref = `Quorum && shard_up t coord
        in
        if rep_ok then begin
          (* Phase 2: the decision is durable, so delivery may be lazy —
             each send is fire-and-forget here, and the resend sweep plus
             the termination protocol guarantee eventual application.
             Inline (no-fault) delivery applies, acks and forgets in
             exactly the synchronous order. *)
          List.iter
            (fun s ->
              Bus.send t.net ~src:coord ~dst:s ~now:!tref (Decision_commit { gid = tid; cts }))
            parts;
          t.cross_commits <- t.cross_commits + 1;
          Metrics.bump "twopc.cross_commits";
          record_acked t ~tid ~cts parts;
          Committed (!tref + ((1 + List.length parts) * t.costs.Costs.txn_commit))
        end
        else begin
          (* No client ack and no eager phase 2. Whatever the promoted
             timeline says becomes the outcome: if the decision survived
             it will be re-armed and resent; if not, presumed abort
             terminates every prepared participant. *)
          Net_abort (!tref + ((1 + List.length parts) * t.costs.Costs.txn_commit))
        end
      end
      end)

let commit t txn ~now =
  match commit_checked t txn ~now with Committed at -> at | Net_abort at -> at

(* The resolver sweep: deliver due traffic, resend unacknowledged
   decisions, and run the termination protocol for in-doubt
   participants. A no-op in passthrough — the synchronous choreography
   never leaves residue. *)
let tick t ~now =
  if not (passthrough t) then begin
    ignore (Bus.pump t.net ~now);
    (* Coordinator resends: any decided transaction still missing acks,
       any abort not yet confirmed everywhere. *)
    let pcs =
      Hashtbl.fold (fun gid pc acc -> (gid, pc) :: acc) t.pending_commits []
      |> List.sort compare
    in
    List.iter
      (fun (gid, pc) ->
        if now >= pc.pc_next && shard_up t pc.pc_coord then begin
          pc.pc_next <- now + t.resend_period;
          List.iter
            (fun s ->
              if not (Hashtbl.mem t.acks (gid, s)) then begin
                Bus.count_retry t.net;
                Bus.send t.net ~src:pc.pc_coord ~dst:s ~now
                  (Decision_commit { gid; cts = pc.pc_cts })
              end)
            pc.pc_parts
        end)
      pcs;
    let pas =
      Hashtbl.fold (fun gid pa acc -> (gid, pa) :: acc) t.pending_aborts []
      |> List.sort compare
    in
    List.iter
      (fun (gid, pa) ->
        if now >= pa.pa_next && shard_up t pa.pa_coord then begin
          pa.pa_next <- now + t.resend_period;
          List.iter
            (fun s ->
              Bus.count_retry t.net;
              Bus.send t.net ~src:pa.pa_coord ~dst:s ~now
                (Decision_abort { gid; ats = pa.pa_ats }))
            pa.pa_remaining
        end)
      pas;
    (* Participant termination: a prepare that has sat in doubt past the
       timeout asks its coordinator for the durable verdict (rate
       limited per transaction). Under the apply-on-timeout sabotage the
       participant instead applies unilaterally — the catalogue must
       catch the fabricated commit from the logs. *)
    for s = 0 to t.n - 1 do
      let prepared =
        if not (shard_up t s) then [] (* a dead shard asks no questions *)
        else
          Hashtbl.fold (fun tid coord acc -> (tid, coord) :: acc) t.prepared_now.(s) []
          |> List.sort compare
      in
      List.iter
        (fun (tid, coord) ->
          let born =
            match Hashtbl.find_opt t.prepared_at.(s) tid with Some a -> a | None -> now
          in
          if now - born >= t.indoubt_after then
            match t.net_sabotage with
            | Some Apply_on_timeout -> (
                match Hashtbl.find_opt t.txn_of tid with
                | Some txn ->
                    t.shards.(s).Shard.twopc.Engine.apply_commit txn ~cts:tid ~now;
                    Hashtbl.remove t.prepared_now.(s) tid;
                    resolve_indoubt_residence t ~s ~tid ~now;
                    Hashtbl.replace t.done_t.(s) tid ()
                | None -> ())
            | _ ->
                let due =
                  match Hashtbl.find_opt t.query_at.(s) tid with Some q -> now >= q | None -> true
                in
                if due then begin
                  Hashtbl.replace t.query_at.(s) tid (now + t.indoubt_after);
                  Bus.send t.net ~src:s ~dst:coord ~now (Query_decision { tid; shard = s })
                end)
        prepared
    done;
    ignore (Bus.pump t.net ~now)
  end

(* Post-horizon settlement: tick (and keep broadcasting epochs) until
   every in-doubt transaction resolved and the fabric drained, or the
   budget runs out (a partition that never heals legitimately pins
   residue — the liveness checks below skip unreachable pairs). *)
let quiesce t ~now =
  if passthrough t then now
  else begin
    let stride = max t.resend_period t.indoubt_after in
    let tn = ref now in
    let budget = ref 64 in
    let i = ref 0 in
    while !budget > 0 && (indoubt_total t > 0 || net_pending t > 0) do
      decr budget;
      tn := !tn + stride;
      (* Re-broadcast the epoch only every 8th stride: each broadcast
         queues fresh delayed frames, and a fabric whose delay floor
         exceeds the stride would otherwise never look drained — the
         gaps give in-flight frames room to land so [net_pending] can
         actually reach zero. *)
      if !i mod 8 = 0 then ignore (broadcast ~now:!tn t);
      incr i;
      (* Pending failovers must complete for doubt to drain: promotion
         restores the coordinator the termination queries need. *)
      (match t.repl with Some r -> Replica.sweep r ~now:!tn | None -> ());
      tick t ~now:!tn
    done;
    !tn
  end

(* In-doubt liveness: after the fabric heals, every prepared
   transaction must resolve within a bound. Entries whose coordinator
   is still unreachable are excluded — a partition that never heals is
   allowed to pin doubt (that is the under-prune degradation, not a
   bug). *)
let check_indoubt_liveness t ~now =
  let bound = 8 * t.indoubt_after in
  let heal =
    List.fold_left
      (fun acc p -> if p.Net_fault.heal_t <= now then max acc p.Net_fault.heal_t else acc)
      0 t.net_cfg.Net_fault.partitions
  in
  let acc = ref [] in
  for s = 0 to t.n - 1 do
    Hashtbl.iter
      (fun tid coord ->
        if Bus.reachable t.net ~src:s ~dst:coord ~now && shard_up t s && shard_up t coord
        then begin
          let born =
            match Hashtbl.find_opt t.prepared_at.(s) tid with Some a -> a | None -> now
          in
          let since = now - max born heal in
          if since > bound then
            acc :=
              ( "in-doubt-liveness",
                Printf.sprintf
                  "tid %d prepared on shard %d unresolved %dns after heal (bound %dns)" tid s
                  since bound )
              :: !acc
        end)
      t.prepared_now.(s)
  done;
  List.sort compare !acc

(* Bounded reclamation lag after heal: once the fabric is whole, every
   shard's applied epoch must track the broadcaster within a small
   number of broadcasts (each broadcast is an independent delivery;
   staleness in between only under-prunes). *)
let check_epoch_lag ?(bound = 12) t ~now =
  if Net_fault.active_at t.net_cfg ~now then []
  else begin
    let acc = ref [] in
    for s = 0 to t.n - 1 do
      let lag = epoch_lag t ~sid:s in
      if lag > bound then
        acc :=
          ( "reclamation-lag-after-heal",
            Printf.sprintf "shard %d applied epoch lags the broadcast by %d (> %d) after heal"
              s lag bound )
          :: !acc
    done;
    List.sort compare !acc
  end

let maintenance t ~now =
  Array.fold_left
    (fun acc (sh : Shard.t) -> max acc (sh.Shard.engine.Engine.maintenance ~now))
    now t.shards

let finish t ~now = Array.iter (fun (sh : Shard.t) -> sh.Shard.engine.Engine.finish ~now) t.shards

let sample t =
  Array.fold_left
    (fun (acc : Engine.sample) (sh : Shard.t) ->
      let s = sh.Shard.engine.Engine.sample () in
      {
        Engine.version_bytes = acc.Engine.version_bytes + s.Engine.version_bytes;
        redo_bytes = acc.Engine.redo_bytes + s.Engine.redo_bytes;
        max_chain = max acc.Engine.max_chain s.Engine.max_chain;
        splits = acc.Engine.splits + s.Engine.splits;
        truncations = acc.Engine.truncations + s.Engine.truncations;
        latch_wait = acc.Engine.latch_wait + s.Engine.latch_wait;
        wal_errors = acc.Engine.wal_errors + s.Engine.wal_errors;
      })
    {
      Engine.version_bytes = 0;
      redo_bytes = 0;
      max_chain = 0;
      splits = 0;
      truncations = 0;
      latch_wait = 0;
      wal_errors = 0;
    }
    t.shards

let total_lsn t =
  Array.fold_left (fun acc (sh : Shard.t) -> acc + Wal.max_lsn sh.Shard.wal) 0 t.shards

let clear_inflight t =
  Hashtbl.reset t.participants;
  Array.iter Hashtbl.reset t.prepared_now;
  Array.iter Hashtbl.reset t.decisions_now;
  (* The fabric forgets with the power: in-flight frames, votes, acks,
     resend queues, per-shard dedup state — all of it is volatile.
     Durable truth lives only in the WALs, which is exactly what the
     restart resolution reads. *)
  Bus.clear t.net;
  Hashtbl.reset t.txn_of;
  Hashtbl.reset t.votes;
  Hashtbl.reset t.acks;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.pending_commits;
  Hashtbl.reset t.pending_aborts;
  Array.iter Hashtbl.reset t.prepared_at;
  Array.iter Hashtbl.reset t.query_at;
  Array.iter Hashtbl.reset t.done_t;
  Hashtbl.reset t.poisoned

let crash_all ?keep t =
  (* Whole-system power loss: every shard's device keeps only what it
     fsynced (or what the per-shard [keep] override says survived). *)
  Array.iter
    (fun (sh : Shard.t) ->
      let keep_lsn =
        match keep with
        | Some f -> f sh.Shard.sid
        | None -> Wal.flushed_lsn sh.Shard.wal
      in
      Wal.crash sh.Shard.wal ~keep_lsn)
    t.shards;
  clear_inflight t

let restart_all t ~now =
  (* Safe re-entry: drop whatever volatile residue is still around, so
     a restart that was not preceded by a crash (or a second restart
     after one) starts from the same clean slate. After [crash_all]
     every one of these tables is already empty and this is a no-op. *)
  clear_inflight t;
  (* One shared snapshot order: reset it once, then let each shard merge
     its recovered outcomes in ([crash_recover ~reset:false] inside the
     engine restart). Ascending sid order means a coordinator restarts
     no later than any shard it coordinates for — though resolution
     reads the coordinator's log directly, so order is a nicety, not a
     correctness requirement. *)
  Txn_manager.reset_for_recovery t.mgr;
  let infos =
    Array.to_list
      (Array.map
         (fun (sh : Shard.t) ->
           match sh.Shard.engine.Engine.restart with
           | Some restart -> restart ~now
           | None -> assert false (* shards are durable by construction *))
         t.shards)
  in
  (* Fresh global picture for every pipeline before work resumes (a
     shard behind a still-active partition keeps its stale — merely
     under-pruning — snapshot until heal). *)
  ignore (broadcast ~now t);
  infos

(* Failover fixup, called by the replica layer at the end of each
   promotion: the shard's device was just adopted from the
   highest-caught-up backup and fenced under a new epoch. Everything
   volatile the old primary held is gone with it; everything the
   promoted timeline proves is rebuilt from the device — a restart,
   scoped to one shard of a running group. *)
let promote_fixup t ~sid:s ~now =
  (* 0. Fence the old timeline's readers: any transaction that began
     before this instant holds a snapshot the promoted engine may no
     longer be able to serve — {!read}/{!write} turn it away. *)
  t.fence_at.(s) <- now;
  (* 1. Worker transactions with un-replicated writes on this shard are
     poisoned: those writes do not exist on the promoted timeline, so
     their only honest outcome is a global abort at commit time. *)
  Hashtbl.iter
    (fun tid l -> if List.mem s !l then Hashtbl.replace t.poisoned tid ())
    t.participants;
  (* 2. Volatile per-shard protocol state died with the old primary —
     including the coordinator role's resend queues, which are re-armed
     below from what the surviving log proves. *)
  Hashtbl.reset t.prepared_now.(s);
  Hashtbl.reset t.prepared_at.(s);
  Hashtbl.reset t.query_at.(s);
  Hashtbl.reset t.decisions_now.(s);
  Hashtbl.reset t.done_t.(s);
  let drop_where tbl pred =
    Hashtbl.fold (fun gid v acc -> if pred v then (gid, v) :: acc else acc) tbl []
  in
  List.iter
    (fun (gid, pc) ->
      List.iter (fun x -> Hashtbl.remove t.acks (gid, x)) pc.pc_parts;
      Hashtbl.remove t.pending_commits gid)
    (drop_where t.pending_commits (fun pc -> pc.pc_coord = s));
  List.iter
    (fun (gid, _) -> Hashtbl.remove t.pending_aborts gid)
    (drop_where t.pending_aborts (fun pa -> pa.pa_coord = s));
  (* 3. Read the promoted timeline. Always honest (CRC on); in-doubt
     entries resolve against the other shards' devices, which the
     replica layer has already settled (its promotion pass adopts every
     failing-over device before any fixup runs). *)
  let wal = t.shards.(s).Shard.wal in
  let analysis = Wal_recovery.analyze ~check_crc:true wal in
  let exp = Wal_recovery.expect ~resolve:(decision_resolver t) analysis in
  (* 4. Decisions the dead primary made that never reached a quorum:
     the shared commit log says committed, the surviving timeline says
     the transaction never happened. Flip them back with compensating
     aborts before the engine replays the log. *)
  List.iter
    (fun tid ->
      match Txn_manager.rollback_unreplicated t.mgr ~tid with
      | Some ats -> ignore (Wal.log wal ~at:now (Wal_record.Txn_abort { tid; ats }))
      | None -> ())
    exp.Wal_recovery.losers;
  ignore (Wal.fsync wal ~at:now ());
  (* 5. Restart the engine on the promoted timeline. Shared manager:
     outcomes merge in, first (durable) outcome winning. *)
  (match t.shards.(s).Shard.engine.Engine.restart with
  | Some restart -> ignore (restart ~now)
  | None -> assert false);
  (* 6. Every transaction with a durable prepare on the new timeline
     was locally resolved by that restart — applied if a decision
     survived somewhere, rolled back as presumed-abort otherwise. Mark
     them done so late decision frames re-ack instead of re-applying. *)
  let mark tid = Hashtbl.replace t.done_t.(s) tid () in
  (match analysis.Wal_recovery.checkpoint with
  | Some (_, ck) -> List.iter (fun (tid, _) -> mark tid) ck.Checkpoint.prepared
  | None -> ());
  List.iter (fun (tid, _) -> mark tid) analysis.Wal_recovery.prepares;
  let forgotten = Hashtbl.create 16 in
  List.iter (fun gid -> Hashtbl.replace forgotten gid ()) analysis.Wal_recovery.forgets;
  List.iter
    (fun gid -> if not (Hashtbl.mem t.aborted_all gid) then Hashtbl.replace t.aborted_all gid 0)
    (List.rev analysis.Wal_recovery.coord_aborts);
  (* 7. Re-arm the coordinator role: durable decisions without a Forget
     still owe phase 2 — resends and re-acks converge them. *)
  List.iter
    (fun (gid, cts) ->
      if not (Hashtbl.mem forgotten gid) then begin
        Hashtbl.replace t.decided_all gid cts;
        Hashtbl.replace t.decisions_now.(s) gid cts
      end)
    exp.Wal_recovery.decisions;
  List.iter
    (fun (gid, cts, parts) ->
      if (not (Hashtbl.mem forgotten gid)) && not (Hashtbl.mem t.pending_commits gid) then
        Hashtbl.replace t.pending_commits gid
          { pc_coord = s; pc_cts = cts; pc_parts = parts; pc_next = now + t.resend_period })
    (List.rev analysis.Wal_recovery.coord_commits);
  Metrics.bump "twopc.promote_fixups"

let attach_replicas t r =
  if t.repl <> None then invalid_arg "Shard_group.attach_replicas: already attached";
  if Replica.shard_count r <> t.n then
    invalid_arg "Shard_group.attach_replicas: shard count mismatch";
  t.repl <- Some r;
  Replica.set_on_promote r (fun ~sid ~node:_ ~now -> promote_fixup t ~sid ~now)

let acked t = List.sort compare (Vec.to_list t.acked_log)
let acked_from t n =
  List.init (max 0 (Vec.length t.acked_log - n)) (fun i -> Vec.get t.acked_log (n + i))

let shard_is_up = shard_up
