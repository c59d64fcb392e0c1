(* Shard replication: deterministic WAL log-shipping with lease-based
   failover (DESIGN §4j).

   Each shard owns one authoritative device — the [gwal] the engine
   logs to — attached to whichever node currently holds the shard's
   primary lease. Every node additionally keeps a private mirror
   [nwal], maintained as an exact prefix of the primary's log by
   shipping typed CRC'd frames over a per-group {!Bus} (fault-free:
   replication transport is in-process and synchronous; the chaos
   surface is node death, injected through {!kill}). A commit may be
   acknowledged to the client only once {!replicate} reports [`Quorum]:
   the decision frame is durable on at least [quorum] of the
   [replicas + 1] nodes.

   Failover is deterministic. Killing the primary snapshots the device
   into the dead node's mirror (its coffin — what a revived node will
   find on its disk), detaches the device, and lets the shard's
   {!Lease} run out of heartbeats. {!sweep} then promotes the
   highest-caught-up live backup: bump the replication epoch, adopt the
   candidate's mirror as the device, force a {!Wal_record.Promote}
   fencing marker, resync the remaining backups, and re-grant the
   lease. A revived stale primary still ships under its old epoch and
   every frame is refused ([fencings]).

   Determinism: no randomness and no wall clock — every decision is a
   function of the caller-supplied [now] and the kill/revive schedule,
   so Sim and Domains runs of the same seed agree. *)

type sabotage = Ack_before_replicate | Stale_primary_writes

type rstep =
  | R_ship of { sid : int; node : int; frames : int }
  | R_ack of { sid : int; node : int; upto : int }
  | R_quorum of { sid : int }
  | R_promote of { sid : int; node : int }

let rstep_sid = function
  | R_ship { sid; _ } | R_ack { sid; _ } | R_quorum { sid } | R_promote { sid; _ } -> sid

type rmsg =
  | Ship of { repoch : int; frames : (int * string) list }
  | Ship_ack of { repoch : int; node : int; upto : int }

type node = {
  node_id : int;
  nwal : Wal.t;  (* private mirror: exact prefix of the primary's log *)
  mutable alive : bool;
  mutable acked_upto : int;  (* primary-side view of this backup's watermark *)
  mutable claims_primary : bool;
  mutable was_primary : bool;  (* held the device when it died *)
  mutable fence_epoch : int;  (* epoch it last held authority under *)
}

type group = {
  sid : int;
  gwal : Wal.t;  (* the shard's device, attached to the current primary *)
  nodes : node array;  (* replicas + 1; node 0 starts as primary *)
  mutable primary : int;  (* index into [nodes]; -1 while primaryless *)
  mutable repoch : int;
  bus : rmsg Bus.t;
  mutable killed_at : Clock.time option;  (* pending-failover start *)
  mutable promotions : int;
  mutable fencings : int;
  mutable stale_counter : int;
}

type t = {
  groups : group array;  (* indexed by shard id *)
  quorum : int;
  lease : Clock.time;
  leases : Lease.t;  (* primary leases, keyed by shard id *)
  mutable on_step : (now:Clock.time -> rstep -> unit) option;
  mutable on_promote : (sid:int -> node:int -> now:Clock.time -> unit) option;
  mutable sabotage : sabotage option;
  mutable kills : int;
  mutable revives : int;
  mutable dead : (int * int) list;  (* (sid, node), oldest kill first *)
  mutable stale_acks : (int * int * int list) list;  (* fabricated (tid, cts, shards) acks *)
  mutable lags : (int * Clock.time) list;  (* (sid, failover lag), oldest first *)
}

let fire_step t ~now step =
  match t.on_step with Some f -> f ~now step | None -> ()

let primary_node g = if g.primary < 0 then None else Some g.nodes.(g.primary)

let primary_alive g =
  match primary_node g with Some nd -> nd.alive | None -> false

let group t ~sid =
  if sid < 0 || sid >= Array.length t.groups then
    invalid_arg "Replica: shard id out of range";
  t.groups.(sid)

(* Backup side of a [Ship]: refuse anything from a fenced epoch, then
   append contiguously into the mirror. [`Gap] cannot happen from an
   honest primary (frames are shipped from the backup's own watermark)
   but a stale primary's divergent tail is dropped either way. *)
let handle_ship t g ~ep ~now ~repoch ~frames =
  let nd = g.nodes.(ep) in
  if not nd.alive then ()
  else if repoch < g.repoch then begin
    g.fencings <- g.fencings + 1;
    Metrics.bump "replica.fencings"
  end
  else begin
    List.iter
      (fun (lsn, repr) ->
        match Wal.receive nd.nwal ~lsn ~repr with
        | `Applied | `Duplicate | `Gap -> ())
      frames;
    let upto = Wal.max_lsn nd.nwal in
    fire_step t ~now (R_ack { sid = g.sid; node = ep; upto });
    (* The step hook may have killed this node: a replica that dies
       while acking never acks. *)
    if nd.alive && g.primary >= 0 then
      Bus.send g.bus ~src:ep ~dst:g.primary ~now
        (Ship_ack { repoch = g.repoch; node = ep; upto })
  end

(* Primary side of a [Ship_ack]: advance the backup's watermark and
   journal it (unforced) so the audit trail of what was replicated when
   survives in the log itself. *)
let handle_ship_ack t g ~ep ~now ~repoch ~node ~upto =
  ignore t;
  if ep = g.primary && repoch = g.repoch && primary_alive g then begin
    let nd = g.nodes.(node) in
    if upto > nd.acked_upto then begin
      nd.acked_upto <- upto;
      ignore (Wal.log g.gwal ~at:now (Wal_record.Rep_ack { epoch = g.repoch; node; upto }))
    end
  end

let install_handlers t g =
  Array.iteri
    (fun ep _ ->
      Bus.set_handler g.bus ~ep (fun ~now ~src:_ msg ->
          match msg with
          | Ship { repoch; frames } -> handle_ship t g ~ep ~now ~repoch ~frames
          | Ship_ack { repoch; node; upto } ->
              handle_ship_ack t g ~ep ~now ~repoch ~node ~upto))
    g.nodes

let create ?quorum ?(lease = Clock.ms 50) ~replicas ~wals () =
  if replicas < 1 then invalid_arg "Replica.create: need at least one replica";
  if lease <= 0 then invalid_arg "Replica.create: lease must be positive";
  let q =
    match quorum with Some q -> q | None -> ((replicas + 1) / 2) + 1
  in
  if q < 1 || q > replicas + 1 then
    invalid_arg "Replica.create: quorum out of range";
  let wals = List.sort (fun (a, _) (b, _) -> compare a b) wals in
  let leases = Lease.create () in
  let groups =
    List.mapi
      (fun i (sid, gwal) ->
        if sid <> i then invalid_arg "Replica.create: shard ids must be 0..n-1";
        if not (Wal.is_durable gwal) then
          invalid_arg "Replica.create: shard wal must be durable";
        let nodes =
          Array.init (replicas + 1) (fun node_id ->
              let nwal = Wal.create ~shard:sid () in
              Wal.enable_durability nwal;
              Wal.adopt nwal ~src:gwal;
              {
                node_id;
                nwal;
                alive = true;
                acked_upto = Wal.max_lsn gwal;
                claims_primary = node_id = 0;
                was_primary = false;
                fence_epoch = 0;
              })
        in
        let bus = Bus.create ~endpoints:(replicas + 1) () in
        Lease.grant_primary leases ~tid:sid ~lease ~now:0;
        {
          sid;
          gwal;
          nodes;
          primary = 0;
          repoch = 0;
          bus;
          killed_at = None;
          promotions = 0;
          fencings = 0;
          stale_counter = 0;
        })
      wals
  in
  let t =
    {
      groups = Array.of_list groups;
      quorum = q;
      lease;
      leases;
      on_step = None;
      on_promote = None;
      sabotage = None;
      kills = 0;
      revives = 0;
      dead = [];
      stale_acks = [];
      lags = [];
    }
  in
  Array.iter (fun g -> install_handlers t g) t.groups;
  t

let set_on_step t f = t.on_step <- Some f
let set_on_promote t f = t.on_promote <- Some f
let set_sabotage t s = t.sabotage <- s
let quorum t = t.quorum
let shard_count t = Array.length t.groups
let primary t ~sid = let g = group t ~sid in if g.primary < 0 then None else Some g.primary
let shard_up t ~sid = primary_alive (group t ~sid)
let epoch t ~sid = (group t ~sid).repoch

(* Ship the primary's backlog to one lagging backup. Steps fire before
   the send so a kill schedule can land between "about to replicate"
   and "replicated". *)
let ship_to t g ~now nd =
  let p_alive () = primary_alive g in
  if p_alive () && nd.alive && nd.node_id <> g.primary then begin
    let frames = Wal.frames_from g.gwal ~lsn:nd.acked_upto in
    if frames <> [] then begin
      fire_step t ~now (R_ship { sid = g.sid; node = nd.node_id; frames = List.length frames });
      if p_alive () && nd.alive then
        Bus.send g.bus ~src:g.primary ~dst:nd.node_id ~now
          (Ship { repoch = g.repoch; frames })
    end
  end

let quorum_met t g ~target =
  primary_alive g
  && 1
     + Array.fold_left
         (fun acc nd ->
           if nd.alive && nd.node_id <> g.primary && nd.acked_upto >= target then acc + 1
           else acc)
         0 g.nodes
     >= t.quorum

let replicate t ~sid ~now =
  let g = group t ~sid in
  match t.sabotage with
  | Some Ack_before_replicate ->
      (* The lie under test: claim quorum durability without shipping a
         single frame. The sweep's catch-up path will ship the backlog
         later — a kill inside that window loses acknowledged commits,
         which is exactly what [no-committed-loss] must catch. *)
      if primary_alive g then `Quorum else `Degraded
  | _ ->
      if not (primary_alive g) then `Degraded
      else begin
        (* Capture the target before shipping: acks journal [Rep_ack]
           frames on the device, so the live max advances underneath
           the loop and must not move the goalposts. *)
        let target = Wal.max_lsn g.gwal in
        Array.iter (fun nd -> ship_to t g ~now nd) g.nodes;
        Lease.note_progress t.leases ~tid:sid ~now;
        fire_step t ~now (R_quorum { sid });
        if quorum_met t g ~target then `Quorum else `Degraded
      end

let kill t ~sid ~node ~now =
  let g = group t ~sid in
  if node < 0 || node >= Array.length g.nodes then false
  else
    let nd = g.nodes.(node) in
    if (not nd.alive) || Array.exists (fun o -> not o.alive) g.nodes then
      (* One dead node per group at a time: the campaign budget that
         keeps every honest kill schedule recoverable. *)
      false
    else begin
      nd.alive <- false;
      t.kills <- t.kills + 1;
      t.dead <- t.dead @ [ (sid, node) ];
      Metrics.bump "replica.kills";
      if node = g.primary then begin
        (* Coffin snapshot: whatever the device held at death is what a
           revived node finds on its own disk. *)
        Wal.adopt nd.nwal ~src:g.gwal;
        nd.was_primary <- true;
        nd.fence_epoch <- g.repoch;
        g.primary <- -1;
        g.killed_at <- Some now
      end;
      true
    end

let revive t ~sid ~node ~now =
  ignore now;
  let g = group t ~sid in
  if node < 0 || node >= Array.length g.nodes then false
  else
    let nd = g.nodes.(node) in
    if nd.alive then false
    else
      match (t.sabotage, nd.was_primary) with
      | Some Stale_primary_writes, true ->
          if g.primary < 0 then
            (* The stale ex-primary resurfaces only once a successor
               holds the shard — that is the split-brain under test. *)
            false
          else begin
            nd.alive <- true;
            nd.claims_primary <- true;
            (* Keeps its coffin state and its old epoch: it refuses to
               acknowledge that it was fenced. *)
            t.revives <- t.revives + 1;
            t.dead <- List.filter (fun d -> d <> (sid, node)) t.dead;
            true
          end
      | _ ->
          nd.alive <- true;
          nd.claims_primary <- false;
          nd.was_primary <- false;
          (* State transfer — but only from a node that can serve one.
             With a live primary, rejoin as a fully caught-up backup of
             the authoritative device (this is also the fencing step: a
             returning ex-primary's divergent suffix is truncated onto
             the promoted timeline here). While the shard is
             primaryless there is nobody to transfer from: the node
             rejoins with whatever its own disk holds — for a dead
             ex-primary that is its coffin, so a node that returns
             before the lease expires can still win candidacy and
             honestly rescue the un-shipped tail of its timeline. *)
          if primary_alive g then begin
            Wal.adopt nd.nwal ~src:g.gwal;
            nd.fence_epoch <- g.repoch
          end;
          nd.acked_upto <- Wal.max_lsn nd.nwal;
          t.revives <- t.revives + 1;
          t.dead <- List.filter (fun d -> d <> (sid, node)) t.dead;
          true

(* Highest-caught-up live backup; ties break to the lowest node id so
   promotion is deterministic. A stale claimant is never a candidate —
   its log diverged from the acknowledged timeline. *)
let candidate g =
  Array.fold_left
    (fun best nd ->
      if (not nd.alive) || nd.node_id = g.primary || nd.claims_primary then best
      else
        match best with
        | Some b when Wal.max_lsn b.nwal >= Wal.max_lsn nd.nwal -> best
        | _ -> Some nd)
    None g.nodes

let promote t g cand ~now =
  ignore (Wal.log g.gwal ~at:now (Wal_record.Promote { epoch = g.repoch; node = cand.node_id }));
  ignore (Wal.fsync g.gwal ~at:now ());
  g.primary <- cand.node_id;
  cand.claims_primary <- true;
  cand.was_primary <- false;
  cand.fence_epoch <- g.repoch;
  cand.acked_upto <- Wal.max_lsn g.gwal;
  (* Resync the other live backups onto the promoted timeline: their
     mirrors may hold frames the candidate never saw (a longer but
     un-acked tail) and divergence is not allowed to linger. *)
  Array.iter
    (fun nd ->
      if nd.alive && nd.node_id <> cand.node_id && not nd.claims_primary then begin
        Wal.adopt nd.nwal ~src:g.gwal;
        nd.acked_upto <- Wal.max_lsn nd.nwal
      end)
    g.nodes;
  g.promotions <- g.promotions + 1;
  Metrics.bump "replica.promotions";
  (match g.killed_at with
  | Some k -> t.lags <- t.lags @ [ (g.sid, now - k) ]
  | None -> ());
  g.killed_at <- None;
  Lease.grant_primary t.leases ~tid:g.sid ~lease:t.lease ~now;
  fire_step t ~now (R_promote { sid = g.sid; node = cand.node_id });
  match t.on_promote with
  | Some f -> f ~sid:g.sid ~node:cand.node_id ~now
  | None -> ()

(* Fabricate unreplicated commits from a revived stale primary and try
   to ship them: the epoch fence must refuse every frame, and the
   fabricated "acks" land in the stale ledger the loss invariant is
   checked against. *)
let stale_primary_noise t g ~now =
  Array.iter
    (fun nd ->
      if nd.alive && nd.claims_primary && nd.node_id <> g.primary then begin
        let tid = 900_000_000 + (g.sid * 1_000_000) + g.stale_counter in
        g.stale_counter <- g.stale_counter + 1;
        ignore (Wal.log nd.nwal ~at:now (Wal_record.Txn_commit { tid; cts = tid }));
        t.stale_acks <- (tid, tid, [ g.sid ]) :: t.stale_acks;
        Metrics.bump "replica.stale_acks";
        let frames = Wal.frames_from nd.nwal ~lsn:(Wal.max_lsn nd.nwal - 1) in
        Array.iter
          (fun other ->
            if other.node_id <> nd.node_id then
              Bus.send g.bus ~src:nd.node_id ~dst:other.node_id ~now
                (Ship { repoch = nd.fence_epoch; frames }))
          g.nodes;
        (* It also still answers clients: votes and acks under the old
           epoch. The group-side fence refuses those too; here we only
           record that it tried. *)
        ignore (Bus.pump g.bus ~now)
      end)
    g.nodes

let sweep t ~now =
  (* Heartbeats: a live primary renews its lease; a dead one goes
     silent and the lease runs out. *)
  Array.iter
    (fun g -> if primary_alive g then Lease.note_progress t.leases ~tid:g.sid ~now)
    t.groups;
  let expired = Lease.expired t.leases ~now in
  let promotable =
    Array.to_list t.groups
    |> List.filter_map (fun g ->
           if g.primary >= 0 || not (List.mem g.sid expired) then None
           else match candidate g with None -> None | Some c -> Some (g, c))
  in
  (* Two-phase promote-all: adopt every device first, then finalize.
     The finalize step re-reads *other* shards' devices (the in-doubt
     resolver consults coordinator logs), so no resolver may observe a
     device that is still about to be rolled onto a shorter timeline. *)
  List.iter
    (fun (g, c) ->
      g.repoch <- g.repoch + 1;
      Wal.adopt g.gwal ~src:c.nwal)
    promotable;
  List.iter (fun (g, c) -> promote t g c ~now) promotable;
  (* Catch-up shipping: lagging live backups (including the backlog an
     ack-before-replicate primary silently accumulated) converge here. *)
  Array.iter
    (fun g -> if primary_alive g then Array.iter (fun nd -> ship_to t g ~now nd) g.nodes)
    t.groups;
  if t.sabotage = Some Stale_primary_writes then
    Array.iter (fun g -> stale_primary_noise t g ~now) t.groups

let dead_nodes t = t.dead
(* A promotion adopts the mirror of some live backup, so any outcome
   frame past the shortest live mirror may still be lost to a failover
   — and the promotion fixup then needs the exact status of its tid. *)
let unreplicated_floor t =
  Array.fold_left
    (fun acc g ->
      let from = ref max_int in
      Array.iteri
        (fun i nd -> if nd.alive && i <> g.primary then from := min !from (Wal.max_lsn nd.nwal))
        g.nodes;
      let floor = ref acc in
      if !from <> max_int then
        Wal.iter_from g.gwal ~lsn:!from (fun _ repr ->
            match Wal_record.outcome_tid repr with
            | Some tid -> if tid < !floor then floor := tid
            | None -> ());
      !floor)
    Timestamp.infinity t.groups

let stale_acked t = List.rev t.stale_acks
let promotions t ~sid = (group t ~sid).promotions
let fencings t ~sid = (group t ~sid).fencings
let kills t = t.kills
let revives t = t.revives
let stale_ack_count t = List.length t.stale_acks
let lags t = t.lags

let node_alive t ~sid ~node =
  let g = group t ~sid in
  node >= 0 && node < Array.length g.nodes && g.nodes.(node).alive

let mirror t ~sid ~node =
  let g = group t ~sid in
  if node < 0 || node >= Array.length g.nodes then
    invalid_arg "Replica.mirror: node out of range";
  g.nodes.(node).nwal

let check_no_split_brain t =
  Array.fold_left
    (fun acc g ->
      let claimants =
        Array.fold_left
          (fun l nd -> if nd.alive && nd.claims_primary then nd.node_id :: l else l)
          [] g.nodes
        |> List.rev
      in
      if List.length claimants > 1 then
        ( "no-split-brain",
          Printf.sprintf "shard %d epoch %d: %d live primaries (nodes %s)" g.sid
            g.repoch (List.length claimants)
            (String.concat "," (List.map string_of_int claimants)) )
        :: acc
      else acc)
    [] t.groups
  |> List.rev

let check_failover_lag t ~bound ~now =
  let recorded =
    List.filter_map
      (fun (sid, lag) ->
        if lag > bound then
          Some
            ( "bounded-failover-lag",
              Printf.sprintf "shard %d: failover took %d > bound %d" sid lag bound )
        else None)
      t.lags
  in
  let overdue =
    Array.fold_left
      (fun acc g ->
        match g.killed_at with
        | Some k when now - k > bound && candidate g <> None ->
            ( "bounded-failover-lag",
              Printf.sprintf
                "shard %d: primaryless for %d > bound %d with a live backup" g.sid
                (now - k) bound )
            :: acc
        | _ -> acc)
      [] t.groups
    |> List.rev
  in
  recorded @ overdue
