type state = {
  flavor : [ `Pg | `Mysql ];
  costs : Costs.t;
  schema : Schema.t;
  mgr : Txn_manager.t;
  wal : Wal.t;
  heap : Heap.t;
  pool : Buffer_pool.t; (* data pages; fixed footprint keeps it warm *)
  slots : Siro.t array;
  driver : Driver.t;
  write_sets : (Timestamp.t, int list ref) Hashtbl.t;
}


let fetch_page st page ~now =
  match Buffer_pool.access st.pool ~block:page.Page.id with
  | `Hit -> now
  | `Miss -> now + st.costs.Costs.io_latency

let read st (txn : Txn.t) ~rid ~now =
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_page st page ~now in
  (* Copy the requested tuple under a short latch (§4.1): the in-row
     pair answers most reads. The PostgreSQL flavor pays the switch from
     returning a locator to copying the tuple (§4.1). *)
  let copy_cost = match st.flavor with `Pg -> st.costs.Costs.version_hop * 2 | `Mysql -> 0 in
  let t =
    Resource.acquire page.Page.latch ~now ~hold:(st.costs.Costs.read_base + copy_cost)
  in
  match Siro.read_inrow st.slots.(rid) txn.Txn.view with
  | Some v ->
      (* In-row hit: the scan touched only the slot pair. *)
      Metrics.observe "scan.chain_length" 1;
      (v.Version.payload, t + st.costs.Costs.think)
  | None -> (
      (* Off-row lookup through LLB and the version buffer — no page
         latch held while walking. *)
      match Driver.read st.driver txn.Txn.view ~rid with
      | Some (v, source, hops) ->
          (* Both in-row versions were checked before the chain walk. *)
          Metrics.observe "scan.chain_length" (2 + hops);
          (match source with
          | Driver.From_vbuffer -> Metrics.bump "read.vbuffer"
          | Driver.From_store_cached -> Metrics.bump "read.store_cached"
          | Driver.From_store_io -> Metrics.bump "read.store_io");
          let cost =
            st.costs.Costs.llb_lookup
            + (hops * st.costs.Costs.version_hop)
            +
            match source with
            | Driver.From_vbuffer -> 0
            | Driver.From_store_cached -> st.costs.Costs.version_hop
            | Driver.From_store_io -> st.costs.Costs.io_latency
          in
          (v.Version.payload, t + cost + st.costs.Costs.think)
      | None -> failwith "siro: snapshot read unreachable")

let note_write st (txn : Txn.t) rid =
  match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some l -> l := rid :: !l
  | None -> Hashtbl.replace st.write_sets txn.Txn.tid (ref [ rid ])

(* The commit timestamp of the slot's current creator: its stamp, or
   the commit log for a creator that has not been stamped here yet —
   one in flight, or a 2PC decision this shard has not applied. Both
   still hold a write set, which is this engine's horizon floor, so
   the log answers exactly; a commit found there is stamped. *)
let current_cts st slot =
  match Siro.current_cts slot with
  | c when c <> Timestamp.infinity -> c
  | _ ->
      let vs = (Siro.current slot).Version.vs in
      let c = Commit_log.commit_ts (Txn_manager.commit_log st.mgr) vs in
      if c <> Timestamp.infinity then Siro.stamp slot ~tid:vs ~cts:c;
      c

(* A checkpoint row: the committed image [v] of record [rid], whose
   creator committed at [cts]. *)
let image ~rid (v : Version.t) ~cts =
  { Checkpoint.rid; value = v.Version.payload; vs = v.Version.vs; vs_time = v.Version.vs_time; cts }

(* Stamp every slot the committed transaction wrote and retire its
   write set. *)
let stamp_writes st (txn : Txn.t) ~cts =
  (match Hashtbl.find st.write_sets txn.Txn.tid with
  | rids -> List.iter (fun rid -> Siro.stamp st.slots.(rid) ~tid:txn.Txn.tid ~cts) !rids
  | exception Not_found -> ());
  Hashtbl.remove st.write_sets txn.Txn.tid

let write st (txn : Txn.t) ~rid ~payload ~now =
  let slot = st.slots.(rid) in
  let cur = Siro.current slot in
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_page st page ~now in
  if
    Cc.write_conflict_stamped st.mgr txn ~current_vs:cur.Version.vs
      ~current_cts:(Siro.current_cts slot)
  then Engine.Conflict (Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.read_base)
  else begin
    (* The current creator closes the version this update may displace:
       stamp it first if it committed unseen here, so the update hands
       back a fully stamped interval. *)
    ignore (current_cts st slot);
    let r =
      Siro.update slot ~vs:txn.Txn.tid ~vs_time:now ~payload ~bytes:st.schema.Schema.record_bytes
    in
    if cur.Version.vs <> txn.Txn.tid then note_write st txn rid;
    Wal.append st.wal ~at:now ~bytes:st.schema.Schema.record_bytes ();
    (* Durable mode: the uncommitted write is logged ARIES-style at
       write time; replay applies it only if the owner commits. A WAL
       in byte-counting mode gets no record, so none is built. *)
    if Wal.is_durable st.wal then
      ignore
        (Wal.log st.wal ~at:now
           (Wal_record.Version_insert { tid = txn.Txn.tid; rid; value = payload }));
    let reloc_cost =
      match r with
      | Siro.Kept -> 0
      | Siro.Relocated { version; lo; hi } ->
          let g = Driver.governor st.driver in
          let assists_before = Governor.assists g in
          let base = st.costs.Costs.zone_check + st.costs.Costs.segment_append in
          let outcome = Driver.relocate st.driver version ~lo ~hi ~now in
          let c =
            match outcome with
            | Vsorter.Pruned_first _ -> base
            | Vsorter.Buffered _ -> base + st.costs.Costs.segment_append
          in
          let assisted = Governor.assists g > assists_before in
          if Trace.on () then
            Trace.instant Trace.Engine "relocate" ~at:now
              [
                ("rid", Trace.I rid);
                ( "outcome",
                  Trace.S
                    (match outcome with
                    | Vsorter.Pruned_first cls -> "pruned-first:" ^ Vclass.to_string cls
                    | Vsorter.Buffered cls -> "buffered:" ^ Vclass.to_string cls) );
                ("assisted", Trace.I (if assisted then 1 else 0));
              ];
          (* Emergency backpressure: when the governor made this writer
             run a synchronous maintenance pass, the writer pays for it
             (sync-flush-point semantics). *)
          if assisted then c + st.costs.Costs.gc_page_scan + st.costs.Costs.io_latency else c
    in
    (* The MySQL flavor still writes an undo log (kept until commit,
       recycled without touching the global history list — the temporal
       redundancy of §4.2). *)
    let undo_cost = match st.flavor with `Mysql -> st.costs.Costs.undo_header / 4 | `Pg -> 0 in
    let t = Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.write_base in
    Engine.Committed_path (t + reloc_cost + undo_cost + st.costs.Costs.think)
  end

let rollback_writes st (txn : Txn.t) =
  (match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some rids ->
      List.iter
        (fun rid ->
          let slot = st.slots.(rid) in
          Siro.abort_undo slot ~t_aborted:txn.Txn.tid;
          (* The commit log's frozen answer below its horizon is
             "committed": sound only while no version survives its
             aborted creator. *)
          assert ((Siro.current slot).Version.vs <> txn.Txn.tid))
        !rids;
      Driver.abort_cleanup st.driver
  | None -> ());
  Hashtbl.remove st.write_sets txn.Txn.tid

let maintenance st ~now =
  let swept, cut = Driver.maintain st.driver ~now in
  let cost =
    (cut.Vcutter.segments_scanned * st.costs.Costs.zone_check)
    + (cut.Vcutter.segments_cut * st.costs.Costs.gc_page_scan)
    + ((swept.Vsorter.segments_dropped + swept.Vsorter.segments_flushed)
      * st.costs.Costs.zone_check)
    + (swept.Vsorter.versions_stored * st.costs.Costs.version_hop)
    + (swept.Vsorter.segments_flushed * st.costs.Costs.io_latency)
  in
  now + st.costs.Costs.zone_check + cost

let create ?driver_config ?mgr ?(shard = 0) ~flavor schema =
  let costs = Costs.default in
  (* A sharded deployment shares one transaction manager (the global
     snapshot order) across per-shard engine instances; each instance
     still owns its pipeline, heap, slots and WAL — the shard tag keeps
     the log a private LSN namespace. *)
  let mgr = match mgr with Some m -> m | None -> Txn_manager.create () in
  let wal = Wal.create ~shard () in
  (* SIRO reserves the placeholder: two slots per record, never split. *)
  let heap =
    Heap.create ~page_bytes:schema.Schema.page_bytes
      ~slot_bytes:(2 * schema.Schema.record_bytes)
      ~records:(Schema.records schema) ~fill_factor:schema.Schema.fill_factor ~wal
  in
  let driver =
    match driver_config with
    | Some config -> Driver.create ~config mgr
    | None -> Driver.create mgr
  in
  let pool =
    Buffer_pool.create ~capacity_blocks:(((3 * Heap.page_count heap) / 2) + 8)
  in
  let st =
    {
      flavor;
      costs;
      schema;
      mgr;
      wal;
      heap;
      pool;
      slots =
        Array.init (Schema.records schema) (fun rid ->
            Siro.create ~rid ~bytes:schema.Schema.record_bytes ~payload:rid ~vs:0 ~vs_time:0);
      driver;
      write_sets = Hashtbl.create 256;
    }
  in
  driver.State.shard_id <- shard;
  (* Every unstamped current version belongs to a transaction that still
     holds a write set here, so keeping the log exact from the oldest
     one on keeps {!current_cts} exact. *)
  Txn_manager.register_floor mgr (fun () ->
      Hashtbl.fold (fun tid _ acc -> min tid acc) st.write_sets Timestamp.infinity);
  let durable = (Driver.config driver).State.durable_wal in
  (* Fuzzy checkpoint image: everything redo needs, captured without
     waiting for in-flight transactions (see {!Checkpoint}). *)
  let build_snapshot ~now =
    let clog = Txn_manager.commit_log mgr in
    let live_global = Txn_manager.live_begin_ts mgr in
    let prepared, decisions =
      match driver.State.ckpt_indoubt with Some f -> f () | None -> ([], [])
    in
    (* With a shared manager the global live table lists transactions
       that never touched this shard; snapshotting them here would turn
       them into phantom shard-local losers at replay. The shard's live
       set is the transactions with writes (or a prepare) here. *)
    let live =
      if driver.State.shared_mgr then
        List.filter
          (fun tid -> Hashtbl.mem st.write_sets tid || List.mem_assoc tid prepared)
          live_global
      else live_global
    in
    (* Bounded commit-log window: outcomes older than the oldest live
       begin ts are only needed through data that carries them (row
       [cts], relocation [(lo, hi)]), so they are not snapshotted. The
       floor stays global — any live transaction anywhere may still
       come reading. *)
    let floor =
      match live_global with t0 :: _ -> t0 | [] -> Txn_manager.oracle mgr
    in
    let committed, aborted =
      Commit_log.fold_from clog ~floor
        (fun tid status (cs, abs_) ->
          match status with
          | Commit_log.Committed_at ts -> ((tid, ts) :: cs, abs_)
          | Commit_log.Aborted_at ts -> (cs, (tid, ts) :: abs_))
        ([], [])
    in
    let rows = ref [] in
    for rid = Schema.records schema - 1 downto 0 do
      let slot = st.slots.(rid) in
      let cur = Siro.current slot in
      (* Each row carries its creator's commit timestamp from the slot's
         stamps, never from the log. *)
      let row =
        match current_cts st slot with
        | cts when cts <> Timestamp.infinity -> image ~rid cur ~cts
        | _ -> (
            (* fuzzy: the current version is an in-flight write; the
               in-row old version is the last committed image *)
            match Siro.previous slot with
            | Some prev -> image ~rid prev ~cts:(Siro.previous_cts slot)
            | None -> { Checkpoint.rid; value = rid; vs = 0; vs_time = 0; cts = 0 })
      in
      rows := row :: !rows
    done;
    let pending =
      Hashtbl.fold (fun tid rids acc -> (tid, List.sort_uniq compare !rids) :: acc)
        st.write_sets []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (tid, rids) ->
             let writes =
               List.filter_map
                 (fun rid ->
                   let cur = Siro.current st.slots.(rid) in
                   if cur.Version.vs = tid then
                     Some
                       {
                         Checkpoint.rid;
                         value = cur.Version.payload;
                         vs_time = cur.Version.vs_time;
                       }
                   else None)
                 rids
             in
             { Checkpoint.tid; writes })
    in
    let seg_image (seg : Segment.t) ~hardened =
      let versions = ref [] in
      Vec.iter
        (fun (n : Chain.node) ->
          if not n.Chain.deleted then
            let v = n.Chain.version in
            versions :=
              {
                Checkpoint.rid = v.Version.rid;
                vs = v.Version.vs;
                ve = v.Version.ve;
                vs_time = v.Version.vs_time;
                ve_time = v.Version.ve_time;
                bytes = v.Version.bytes;
                value = v.Version.payload;
                lo = n.Chain.prune_lo;
                hi = n.Chain.prune_hi;
              }
              :: !versions)
        seg.Segment.nodes;
      {
        Checkpoint.seg_id = seg.Segment.id;
        cls = Vclass.to_string seg.Segment.cls;
        hardened;
        versions = List.rev !versions;
      }
    in
    let segs = ref [] in
    Array.iter
      (function Some s -> segs := seg_image s ~hardened:false :: !segs | None -> ())
      driver.State.open_segments;
    Vec.iter (fun s -> segs := seg_image s ~hardened:false :: !segs) driver.State.sealed;
    Version_store.iter_hardened (Driver.store driver) (fun s ->
        segs := seg_image s ~hardened:true :: !segs);
    {
      Checkpoint.at = now;
      oracle_next = Txn_manager.oracle mgr;
      live;
      committed = List.rev committed;
      aborted = List.rev aborted;
      rows = !rows;
      pending;
      segments =
        List.sort (fun (a : Checkpoint.seg) b -> compare a.seg_id b.seg_id) !segs;
      next_seg_id = driver.State.next_seg_id;
      prepared;
      decisions;
    }
  in
  (* Log recycling (unsharded logs only): [retained] holds the
     [Ckpt_begin] LSN and [Ckpt_end] LSN of the newest complete
     checkpoint. When the next one completes, everything below the
     previous one's begin goes: recovery reads a checkpoint plus the
     log after it, and keeping the previous checkpoint as well means a
     crash that cuts the newest one still finds a base. A restart
     forgets it, since the crash may have cut that checkpoint; the
     restart's own checkpoint then discards nothing. Sharded logs keep
     their whole prefix: their oracles read whole-prefix 2PC facts. *)
  let retained = ref None in
  let do_checkpoint ~now =
    let begin_lsn = Wal.next_lsn wal in
    ignore (Wal.log wal ~at:now Wal_record.Ckpt_begin);
    let snap = build_snapshot ~now in
    let end_lsn = Wal.log wal ~at:now (Wal_record.Ckpt_end { snapshot = Some snap }) in
    ignore (Wal.fsync wal ~at:now ());
    (match end_lsn with
    | Some end_lsn when not driver.State.shared_mgr ->
        (match !retained with
        | Some _ when (Driver.config driver).State.recovery_discard_past_checkpoint ->
            Wal.discard_below wal ~lsn:(end_lsn + 1) ~anchor:end_lsn
        | Some (prev_begin, prev_end) -> Wal.discard_below wal ~lsn:prev_begin ~anchor:prev_end
        | None -> ());
        retained := Some (begin_lsn, end_lsn)
    | _ -> ());
    Metrics.bump "recovery.checkpoints";
    if Trace.on () then
      Trace.instant Trace.Wal "checkpoint" ~at:now
        [ ("lsn", Trace.I (Wal.max_lsn wal)) ]
  in
  (* ARIES-lite restart: truncate the untrustworthy tail, replay redo
     from the last checkpoint, rebuild in-row and off-row state, roll
     back losers with compensating aborts, then checkpoint so the next
     restart starts clean. *)
  let do_restart ~now =
    let skip = (Driver.config driver).State.recovery_skip_tail_check in
    let analysis = Wal_recovery.analyze ~check_crc:(not skip) wal in
    let exp = Wal_recovery.expect ?resolve:driver.State.indoubt_resolver analysis in
    Wal.truncate_to wal ~lsn:analysis.Wal_recovery.truncate_lsn;
    Driver.crash_restart driver;
    Hashtbl.reset st.write_sets;
    Buffer_pool.clear st.pool;
    let clrs =
      (* A shared manager is reset once by the group before the
         per-shard restarts; each shard then merges its outcomes in. *)
      Txn_manager.crash_recover ~reset:(not driver.State.shared_mgr) mgr
        ~committed:exp.Wal_recovery.committed
        ~aborted:exp.Wal_recovery.aborted ~losers:exp.Wal_recovery.losers
        ~oracle_floor:exp.Wal_recovery.oracle_floor
    in
    List.iter
      (fun (tid, ats) -> ignore (Wal.log wal ~at:now (Wal_record.Txn_abort { tid; ats })))
      clrs;
    ignore (Wal.fsync wal ~at:now ());
    for rid = 0 to Schema.records schema - 1 do
      st.slots.(rid) <-
        Siro.create ~rid ~bytes:schema.Schema.record_bytes ~payload:rid ~vs:0 ~vs_time:0
    done;
    List.iter
      (fun (r : Checkpoint.row) ->
        let slot =
          Siro.create ~rid:r.Checkpoint.rid ~bytes:schema.Schema.record_bytes
            ~payload:r.Checkpoint.value ~vs:r.Checkpoint.vs ~vs_time:r.Checkpoint.vs_time
        in
        (* Recovered rows are committed images: their [cts] (from the
           checkpoint or a replayed commit) is the creator's stamp. *)
        Siro.stamp slot ~tid:r.Checkpoint.vs ~cts:r.Checkpoint.cts;
        st.slots.(r.Checkpoint.rid) <- slot)
      exp.Wal_recovery.rows;
    let vres =
      Vrecovery.rebuild driver ~segments:exp.Wal_recovery.segments
        ~next_seg_id:exp.Wal_recovery.next_seg_id ~now
    in
    State.refresh_zones driver ~now;
    retained := None;
    do_checkpoint ~now;
    Metrics.bump "recovery.restarts";
    Metrics.bump_by "recovery.records_replayed" exp.Wal_recovery.replayed;
    Metrics.bump_by "recovery.frames_truncated" analysis.Wal_recovery.dropped;
    Metrics.bump_by "recovery.losers_rolled_back" (List.length clrs);
    let recovery_cost =
      (analysis.Wal_recovery.survivors * costs.Costs.version_hop)
      + (vres.Vrecovery.versions * costs.Costs.segment_append)
      + (vres.Vrecovery.segments * costs.Costs.io_latency)
      + (List.length clrs * costs.Costs.zone_check)
      + costs.Costs.io_latency
    in
    if Trace.on () then
      Trace.span Trace.Engine "restart" ~start:now ~dur:recovery_cost
        [
          ("replayed", Trace.I exp.Wal_recovery.replayed);
          ("versions", Trace.I vres.Vrecovery.versions);
          ("truncated", Trace.I analysis.Wal_recovery.dropped);
          ("losers", Trace.I (List.length clrs));
          ("to_lsn", Trace.I analysis.Wal_recovery.truncate_lsn);
        ];
    {
      Engine.replayed_records = exp.Wal_recovery.replayed;
      replayed_versions = vres.Vrecovery.versions;
      truncated_frames = analysis.Wal_recovery.dropped;
      losers_rolled_back = List.length clrs;
      recovered_to_lsn = analysis.Wal_recovery.truncate_lsn;
      recovery_cost;
    }
  in
  if durable then begin
    Wal.enable_durability wal;
    driver.State.wal <- Some wal;
    driver.State.inrow_probe <-
      Some
        (fun () ->
          let acc = ref [] in
          for rid = Schema.records schema - 1 downto 0 do
            let cur = Siro.current st.slots.(rid) in
            acc := (rid, cur.Version.payload, cur.Version.vs) :: !acc
          done;
          !acc);
    (* Bootstrap checkpoint (LSNs 1-2): recovery always has a base
       image, so a crash clamped to {!Wal.crash_base} replays the
       initial database rather than an empty one. *)
    do_checkpoint ~now:0
  end;
  let inrow_len rid =
    if Siro.previous st.slots.(rid) = None then 1 else 2
  in
  let name = match flavor with `Pg -> "postgres-vdriver" | `Mysql -> "mysql-vdriver" in
  {
    Engine.name;
    txns = mgr;
    begin_txn =
      (fun ~now ->
        let txn = Txn_manager.begin_txn mgr ~now in
        if Wal.is_durable wal then
          ignore (Wal.log wal ~at:now (Wal_record.Txn_begin { tid = txn.Txn.tid }));
        (txn, now + costs.Costs.txn_begin));
    read = (fun txn ~rid ~now -> read st txn ~rid ~now);
    write = (fun txn ~rid ~payload ~now -> write st txn ~rid ~payload ~now);
    commit =
      (fun txn ~now ->
        Txn_manager.commit mgr txn ~now;
        let cts = Option.value ~default:0 txn.Txn.commit_ts in
        stamp_writes st txn ~cts;
        if Wal.is_durable wal then begin
          ignore (Wal.log wal ~at:now (Wal_record.Txn_commit { tid = txn.Txn.tid; cts }));
          (* Group-commit-free model: every commit forces the log. A
             rejected fsync leaves the commit volatile — the crash
             oracle treats it as a loser, which is the conservative
             durability contract. *)
          ignore (Wal.fsync wal ~at:now ())
        end;
        now + costs.Costs.txn_commit);
    abort =
      (fun txn ~now ->
        rollback_writes st txn;
        Txn_manager.abort mgr txn ~now;
        if Wal.is_durable wal then begin
          let ats =
            match Commit_log.status (Txn_manager.commit_log mgr) txn.Txn.tid with
            | Some (Commit_log.Aborted_at a) -> a
            | _ -> 0
          in
          ignore (Wal.log wal ~at:now (Wal_record.Txn_abort { tid = txn.Txn.tid; ats }))
        end;
        now + costs.Costs.txn_commit);
    maintenance = (fun ~now -> maintenance st ~now);
    sample =
      (fun () ->
        {
          Engine.version_bytes = Driver.space_bytes driver;
          redo_bytes = Wal.total_bytes wal;
          max_chain = 2 + Driver.max_chain_length driver;
          splits = Heap.splits heap;
          truncations = 0;
          latch_wait = Heap.latch_wait heap;
          wal_errors = Wal.errors wal;
        });
    chain_histogram =
      (fun () ->
        let h = Histogram.create () in
        for rid = 0 to Schema.records schema - 1 do
          Histogram.add h (inrow_len rid + Driver.chain_length driver ~rid)
        done;
        h);
    finish = (fun ~now -> ignore (Driver.flush_all driver ~now));
    crash =
      (fun () ->
        (* Losers roll back by bit toggles (a few nanoseconds each);
           off-row state dies wholesale with the restart (§3.5) — the
           "instant recovery" property of in-row designs. *)
        let undo_ops = ref 0 in
        let losers = Hashtbl.fold (fun tid _ acc -> tid :: acc) st.write_sets [] in
        List.iter
          (fun tid ->
            match Hashtbl.find_opt st.write_sets tid with
            | Some rids ->
                List.iter
                  (fun rid ->
                    incr undo_ops;
                    Siro.abort_undo st.slots.(rid) ~t_aborted:tid)
                  !rids;
                Hashtbl.remove st.write_sets tid
            | None -> ())
          losers;
        Driver.crash_restart driver;
        !undo_ops * costs.Costs.zone_check);
    driver = Some driver;
    checkpoint = (if durable then Some (fun ~now -> do_checkpoint ~now) else None);
    restart = (if durable then Some (fun ~now -> do_restart ~now) else None);
    twopc =
      (if not durable then None
       else
         Some
           {
             Engine.log_begin =
               (fun ~tid ~now -> ignore (Wal.log wal ~at:now (Wal_record.Txn_begin { tid })));
             log_prepare =
               (fun ~tid ~coord ~shards ~now ->
                 ignore (Wal.log wal ~at:now (Wal_record.Prepare { tid; coord; shards }));
                 (* A prepare is a promise: it must be durable before
                    the coordinator may count this shard as ready. *)
                 ignore (Wal.fsync wal ~at:now ()));
             apply_commit =
               (fun txn ~cts ~now ->
                 stamp_writes st txn ~cts;
                 ignore
                   (Wal.log wal ~at:now (Wal_record.Txn_commit { tid = txn.Txn.tid; cts }));
                 ignore (Wal.fsync wal ~at:now ()));
             apply_abort =
               (fun txn ~ats ~now ->
                 rollback_writes st txn;
                 ignore
                   (Wal.log wal ~at:now (Wal_record.Txn_abort { tid = txn.Txn.tid; ats })));
             wal;
           });
  }

let driver_exn (engine : Engine.t) =
  match engine.Engine.driver with
  | Some d -> d
  | None -> invalid_arg "Siro_engine.driver_exn: engine has no vDriver"
