type t =
  | Zone_widen
  | Quota_ignore
  | Skip_tail_check
  | Discard_past_checkpoint
  | Clog_over_truncate
  | No_watchdog
  | Gc of Gc_backend.kind
  | Skip_coord_decision
  | Net of Shard_group.net_sabotage
  | Failover of Replica.sabotage
  | Stale_cursor

let all =
  [
    Zone_widen;
    Quota_ignore;
    Skip_tail_check;
    Discard_past_checkpoint;
    Clog_over_truncate;
    No_watchdog;
  ]
  @ List.map (fun k -> Gc k) Gc_backend.all_kinds
  @ [
      Skip_coord_decision;
      Net Shard_group.Apply_on_timeout;
      Net Shard_group.Ack_forge;
      Failover Replica.Ack_before_replicate;
      Failover Replica.Stale_primary_writes;
      Stale_cursor;
    ]

let name = function
  | Zone_widen -> "zone-widen"
  | Quota_ignore -> "quota-ignore"
  | Skip_tail_check -> "skip-tail-check"
  | Discard_past_checkpoint -> "discard-past-checkpoint"
  | Clog_over_truncate -> "clog-over-truncate"
  | No_watchdog -> "no-watchdog"
  | Gc k -> "gc-" ^ Gc_backend.kind_name k
  | Skip_coord_decision -> "skip-coord-decision"
  | Net Shard_group.Apply_on_timeout -> "apply-on-timeout"
  | Net Shard_group.Ack_forge -> "ack-forge"
  | Failover Replica.Ack_before_replicate -> "ack-before-replicate"
  | Failover Replica.Stale_primary_writes -> "stale-primary-writes"
  | Stale_cursor -> "stale-cursor"

let of_name s = List.find_opt (fun t -> name t = s) all

let caught_by = function
  | Zone_widen | Gc Gc_backend.Range -> [ "prune-soundness" ]
  | Quota_ignore -> [ "space-quota" ]
  | Skip_tail_check ->
      [ "recovery-durability"; "recovery-phantom"; "recovery-atomicity"; "recovery-inrow" ]
  | Discard_past_checkpoint -> [ "recovery-base" ]
  | Clog_over_truncate -> [ "clog-horizon"; "prune-soundness" ]
  | No_watchdog -> [ "reclamation-lag" ]
  | Gc (Gc_backend.Vcutter | Gc_backend.Bounded) -> [ "gc-backend" ]
  | Skip_coord_decision -> [ "2pc-decision-missing" ]
  | Net Shard_group.Apply_on_timeout -> [ "cross-shard-atomicity"; "2pc-decision-missing" ]
  | Net Shard_group.Ack_forge -> [ "cross-shard-atomicity" ]
  | Failover Replica.Ack_before_replicate -> [ "no-committed-loss" ]
  | Failover Replica.Stale_primary_writes -> [ "no-split-brain"; "no-committed-loss" ]
  | Stale_cursor -> [ "analysis-cursor" ]

let sharded = function
  | Zone_widen | Quota_ignore | Skip_tail_check | Discard_past_checkpoint | Clog_over_truncate
  | No_watchdog | Gc _ ->
      false
  | Skip_coord_decision | Net _ | Failover _ | Stale_cursor -> true

let driver_config s (c : State.config) =
  match s with
  | Some Zone_widen -> { c with State.zone_widen_sabotage = 1 }
  | Some Quota_ignore ->
      { c with State.governor = { c.State.governor with Governor.quota_ignore_sabotage = true } }
  | Some Skip_tail_check -> { c with State.durable_wal = true; recovery_skip_tail_check = true }
  | Some Discard_past_checkpoint ->
      { c with State.durable_wal = true; recovery_discard_past_checkpoint = true }
  | Some Clog_over_truncate -> { c with State.clog_over_truncate_sabotage = true }
  | _ -> c

let watchdog s (w : Watchdog.config) =
  if s = Some No_watchdog then { w with Watchdog.enabled = false } else w

let gc_config s (c : Gc_backend.config) =
  match s with Some (Gc kind) -> { c with Gc_backend.kind; sabotage = true } | _ -> c

let arm_group s g =
  Shard_group.set_skip_coord_decision g (s = Some Skip_coord_decision);
  Shard_group.set_net_sabotage g (match s with Some (Net n) -> Some n | _ -> None)

let arm_replica s r =
  Replica.set_sabotage r (match s with Some (Failover f) -> Some f | _ -> None)

let cursor s () = Wal_recovery.cursor ~stale:(s = Some Stale_cursor) ()
