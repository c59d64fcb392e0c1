type config = {
  segment_bytes : int;
  vbuffer_bytes : int;
  classifier : Classifier.t;
  zone_refresh_period : Clock.time;
  store_cache_segments : int;
  classification : [ `Three_way | `Single_class ];
  pruning : [ `Dead_zones | `Oldest_active ];
  zone_widen_sabotage : int;
  governor : Governor.config;
  durable_wal : bool;
  recovery_skip_tail_check : bool;
  recovery_discard_past_checkpoint : bool;
  clog_over_truncate_sabotage : bool;
}

let default_config =
  {
    segment_bytes = 64 * 1024;
    vbuffer_bytes = 8 * 1024 * 1024;
    classifier = Classifier.create ();
    zone_refresh_period = Clock.ms 2;
    store_cache_segments = 128;
    classification = `Three_way;
    pruning = `Dead_zones;
    zone_widen_sabotage = 0;
    governor = Governor.default_config;
    durable_wal = false;
    recovery_skip_tail_check = false;
    recovery_discard_past_checkpoint = false;
    clog_over_truncate_sabotage = false;
  }

type prune_origin = [ `Prune1 | `Prune2 | `Cut ]

(* Flat counters for one GC pass, mode-independent. State cannot
   reference Vsorter/Vcutter result records (they are defined above it
   in the module order), so the backend hook reports a plain-int record
   that Driver converts back into the pipeline's native result types. *)
type gc_step = {
  gs_segments_dropped : int;
  gs_versions_pruned : int;
  gs_segments_flushed : int;
  gs_versions_stored : int;
  gs_segments_cut : int;
  gs_versions_cut : int;
  gs_bytes_reclaimed : int;
  gs_segments_scanned : int;
}

type gc_hook = {
  gh_name : string;
  gh_id : int;
  gh_step : now:Clock.time -> budget:int -> gc_step;
  gh_frontier : unit -> Timestamp.t;
  gh_check : unit -> string list;
  gh_gauges : unit -> (string * int) list;
}

type t = {
  config : config;
  txns : Txn_manager.t;
  llb : Llb.t;
  store : Version_store.t;
  store_cache : Buffer_pool.t;
  stats : Prune_stats.t;
  mutable zones : Zone_set.t;
  mutable zone_views : Read_view.t list;
  mutable llt_views : Read_view.t list;
  mutable last_refresh : Clock.time;
  mutable delta_llt_effective : Clock.time;
  open_segments : Segment.t option array;
  sealed : Segment.t Vec.t;
  seg_index : (int, Segment.t) Hashtbl.t;
  mutable next_seg_id : int;
  mutable zone_refreshes : int;
  mutable prune_audit :
    (now:Clock.time -> origin:prune_origin -> lo:Timestamp.t -> hi:Timestamp.t -> unit) option;
  governor : Governor.t;
  mutable shed_hook : (tid:Timestamp.t -> now:Clock.time -> bool) option;
  mutable post_maintain_space : (Clock.time * int) option;
  mutable wal : Wal.t option;
  mutable inrow_probe : (unit -> (int * int * Timestamp.t) list) option;
  mutable watchdog : Watchdog.t option;
  mutable shard_id : int;
  mutable zone_source : (unit -> Zone_set.t) option;
  mutable shared_mgr : bool;
  mutable indoubt_resolver : (unit -> tid:int -> coord:int -> int option) option;
  mutable ckpt_indoubt : (unit -> (int * int) list * (int * int) list) option;
  mutable gc_backend : gc_hook option;
}

let create ?(config = default_config) txns =
  if config.clog_over_truncate_sabotage then Txn_manager.set_clog_over_truncate txns true;
  {
    config;
    txns;
    llb = Llb.create ();
    store = Version_store.create ();
    store_cache =
      Buffer_pool.create ~name:"version-store" ~capacity_blocks:config.store_cache_segments;
    stats = Prune_stats.create ();
    zones = Zone_set.of_txn_manager txns;
    zone_views = [];
    llt_views = [];
    last_refresh = 0;
    delta_llt_effective = config.classifier.Classifier.delta_llt;
    open_segments = Array.make Vclass.count None;
    sealed = Vec.create ();
    seg_index = Hashtbl.create 256;
    next_seg_id = 0;
    zone_refreshes = 0;
    prune_audit = None;
    governor = Governor.create ~config:config.governor ();
    shed_hook = None;
    post_maintain_space = None;
    wal = None;
    inrow_probe = None;
    watchdog = None;
    shard_id = 0;
    zone_source = None;
    shared_mgr = false;
    indoubt_resolver = None;
    ckpt_indoubt = None;
    gc_backend = None;
  }

let gc_backend_name t =
  match t.gc_backend with Some h -> h.gh_name | None -> "vcutter"

(* The pruning policy, shared by vSorter (per-version and per-sealed-
   segment prunes) and vCutter (hardened-segment covers check). [lo, hi]
   is a commit-time visibility interval or a segment's [v_min, v_max]
   descriptor.

   [zone_widen_sabotage] deliberately weakens the containment test so
   that chaos campaigns can prove the invariant checker catches an
   over-eager rule; it must stay 0 in real runs. The sound test blocks
   pruning on any live boundary in the closed [lo, hi] — one unit of
   slack per side beyond strict visibility, since timestamps are unique
   integers. Sabotage level [w] blocks only boundaries in
   [lo+w+1, hi-w-1]: already at [w = 1] a transaction that began
   adjacent to an interval edge (its begin ts strictly inside the
   version's visibility interval) no longer blocks, so the rule is
   genuinely unsound — the paper's "widen the zone by one" mistake. *)
let interval_dead t ~lo ~hi =
  let w = t.config.zone_widen_sabotage in
  match t.config.pruning with
  | `Dead_zones ->
      if w = 0 then Zone_set.covers t.zones ~lo ~hi
      else
        let lo = lo + w + 1 and hi = hi - w - 1 in
        lo > hi || Zone_set.covers t.zones ~lo ~hi
  | `Oldest_active -> hi - w < Zone_set.oldest_boundary t.zones

let audit_prune t ~now ~origin ~lo ~hi =
  match t.prune_audit with Some f -> f ~now ~origin ~lo ~hi | None -> ()

let refresh_zones t ~now =
  (* Sharded instances take their zone snapshot from the global epoch
     broadcast instead of reading the live table directly — staleness is
     conservative (a broadcast's [now_ts] upper-bounds every interval it
     can cover, and transactions born later have begin timestamps at or
     above it), so a stale snapshot only under-prunes, never over-prunes. *)
  (t.zones <-
     (match t.zone_source with
     | Some source -> source ()
     | None -> Zone_set.of_txn_manager t.txns));
  t.zone_views <- Txn_manager.live_views t.txns;
  t.llt_views <- Txn_manager.llt_views t.txns ~now ~delta_llt:t.delta_llt_effective;
  t.last_refresh <- now;
  t.zone_refreshes <- t.zone_refreshes + 1

let maybe_refresh t ~now =
  if now - t.last_refresh >= t.config.zone_refresh_period then refresh_zones t ~now

let fresh_segment t ~cls ~now =
  let seg =
    Segment.create ~id:t.next_seg_id ~cls ~cap_bytes:t.config.segment_bytes ~now
  in
  Hashtbl.replace t.seg_index seg.Segment.id seg;
  t.next_seg_id <- t.next_seg_id + 1;
  seg

let log_wal t ~now payload =
  match t.wal with
  | Some wal when Wal.is_durable wal -> ignore (Wal.log wal ~at:now payload)
  | Some _ | None -> ()

let drop_segment t seg = Hashtbl.remove t.seg_index seg.Segment.id
let find_segment t id = Hashtbl.find_opt t.seg_index id

let open_bytes t =
  Array.fold_left
    (fun acc -> function Some s -> acc + s.Segment.used_bytes | None -> acc)
    0 t.open_segments

let buffered_bytes t =
  open_bytes t + Vec.fold_left (fun acc s -> acc + s.Segment.used_bytes) 0 t.sealed

let pop_oldest_sealed t =
  if Vec.is_empty t.sealed then None
  else begin
    let seg = Vec.get t.sealed 0 in
    Vec.drop_front t.sealed 1;
    Some seg
  end

let space_bytes t = buffered_bytes t + Version_store.live_bytes t.store
