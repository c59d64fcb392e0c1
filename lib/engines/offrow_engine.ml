type vrec = { vs : Timestamp.t; mutable ve : Timestamp.t; payload : int; undo_page : int }

type state = {
  costs : Costs.t;
  schema : Schema.t;
  mgr : Txn_manager.t;
  wal : Wal.t;
  heap : Heap.t;
  current : vrec array;
  undo : vrec Vec.t array; (* oldest first; newest at the end *)
  pool : Buffer_pool.t; (* shared: data pages and undo pages compete *)
  rseg : Queue_model.t; (* global rollback-segment mutex *)
  undo_recs_per_page : int;
  mutable undo_seq : int;
  mutable undo_live_bytes : int;
  mutable undo_alloc_bytes : int;
  mutable truncations : int;
  mutable purge_cursor : int;
  purge_batch : int;
  truncate_threshold : int;
  gc : [ `Purge_prefix | `Interval_scan ];
  write_sets : (Timestamp.t, int list ref) Hashtbl.t;
}

let is_committed st vs = vs = 0 || Commit_log.is_committed (Txn_manager.commit_log st.mgr) vs

(* Undo pages use a disjoint block-id space in the shared pool. *)
let undo_block upage = 1_000_000 + upage

let fetch_data_page st page ~now =
  match Buffer_pool.access st.pool ~block:page.Page.id with
  | `Hit -> now
  | `Miss -> now + st.costs.Costs.io_latency

(* Walk from the newest version (roll-pointer order). The snapshot read
   is located by binary search, but the caller is charged the walk:
   [hops] chain steps and the undo-page fetches the walk would do.
   Because appends interleave across records, consecutive chain entries
   of one record live on distinct undo pages; we touch up to 32 of them
   in the pool and extrapolate the miss count. *)
let lookup st (txn : Txn.t) rid =
  let cur = st.current.(rid) in
  if Read_view.committed_before txn.Txn.view cur.vs then Some (cur.payload, 0, 0)
  else begin
    let vec = st.undo.(rid) in
    let n = Vec.length vec in
    match
      Mvcc_search.find_visible ~view:txn.Txn.view ~len:n ~vs_of:(fun i -> (Vec.get vec i).vs)
    with
    | None -> None
    | Some i ->
        let hops = n - i in
        let touched = min hops 32 in
        let missed = ref 0 in
        for k = 0 to touched - 1 do
          let v = Vec.get vec (n - 1 - k) in
          match Buffer_pool.access st.pool ~block:(undo_block v.undo_page) with
          | `Miss -> incr missed
          | `Hit -> ()
        done;
        let misses = if touched = 0 then 0 else !missed * hops / touched in
        Some ((Vec.get vec i).payload, hops, misses)
  end

let read st txn ~rid ~now =
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_data_page st page ~now in
  match lookup st txn rid with
  | None -> failwith "offrow: snapshot read unreachable"
  | Some (payload, hops, misses) ->
      (* The whole walk happens while holding the page latch — MySQL's
         collapse mechanism under LLTs (§2.1): chain steps plus undo
         I/O stretch the hold time. *)
      let hold =
        st.costs.Costs.read_base
        + (hops * st.costs.Costs.version_hop)
        + (misses * st.costs.Costs.io_latency)
      in
      let t = Resource.acquire page.Page.latch ~now ~hold in
      (payload, t + st.costs.Costs.think)

let note_write st (txn : Txn.t) rid =
  match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some l -> l := rid :: !l
  | None -> Hashtbl.replace st.write_sets txn.Txn.tid (ref [ rid ])

let write st (txn : Txn.t) ~rid ~payload ~now =
  let cur = st.current.(rid) in
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_data_page st page ~now in
  if cur.vs = txn.Txn.tid then begin
    let t = Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.write_base in
    st.current.(rid) <- { cur with payload };
    Engine.Committed_path (t + st.costs.Costs.think)
  end
  else if Cc.write_conflict st.mgr txn ~current_vs:cur.vs then
    Engine.Conflict (Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.read_base)
  else begin
    (* Displace the current version into undo space. *)
    cur.ve <- txn.Txn.tid;
    let bytes = st.schema.Schema.record_bytes in
    Vec.push st.undo.(rid) { cur with undo_page = st.undo_seq / st.undo_recs_per_page };
    st.undo_seq <- st.undo_seq + 1;
    st.undo_live_bytes <- st.undo_live_bytes + bytes;
    if st.undo_live_bytes > st.undo_alloc_bytes then st.undo_alloc_bytes <- st.undo_live_bytes;
    st.current.(rid) <- { vs = txn.Txn.tid; ve = Timestamp.infinity; payload; undo_page = -1 };
    note_write st txn rid;
    Wal.append st.wal ~at:now ~bytes ();
    (* Undo-log header bookkeeping rides the global rollback-segment
       mutex — stock MySQL's "giant latch" (§4.2). *)
    let t = Queue_model.service st.rseg ~now ~hold:st.costs.Costs.undo_header in
    let t = Resource.acquire page.Page.latch ~now:t ~hold:st.costs.Costs.write_base in
    Engine.Committed_path (t + st.costs.Costs.think)
  end

let rollback_writes st (txn : Txn.t) =
  (match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some rids ->
      List.iter
        (fun rid ->
          if st.current.(rid).vs = txn.Txn.tid then begin
            match Vec.pop st.undo.(rid) with
            | Some prev ->
                prev.ve <- Timestamp.infinity;
                st.current.(rid) <- prev;
                st.undo_live_bytes <- st.undo_live_bytes - st.schema.Schema.record_bytes
            | None -> failwith "offrow: rollback without undo record"
          end;
          (* The commit log's frozen answer below its horizon is
             "committed": sound only while no version survives its
             aborted creator. *)
          assert (st.current.(rid).vs <> txn.Txn.tid))
        !rids
  | None -> ());
  Hashtbl.remove st.write_sets txn.Txn.tid

(* Purge: drop undo prefixes below the oldest read view, then truncate
   the tablespace if it is mostly empty (the Figure 13 sawtooth). *)
let purge st ~now =
  let horizon = Txn_manager.oldest_visible_horizon st.mgr in
  let records = Schema.records st.schema in
  let batch = min st.purge_batch records in
  let removed = ref 0 in
  for k = 0 to batch - 1 do
    let rid = (st.purge_cursor + k) mod records in
    let vec = st.undo.(rid) in
    let rec reclaimable i =
      if i >= Vec.length vec then i
      else
        let v = Vec.get vec i in
        if v.ve < horizon && is_committed st v.vs then reclaimable (i + 1) else i
    in
    let n = reclaimable 0 in
    if n > 0 then begin
      Vec.drop_front vec n;
      removed := !removed + n
    end
  done;
  st.purge_cursor <- (st.purge_cursor + batch) mod records;
  st.undo_live_bytes <- st.undo_live_bytes - (!removed * st.schema.Schema.record_bytes);
  if
    st.undo_alloc_bytes > st.truncate_threshold
    && st.undo_live_bytes * 4 < st.undo_alloc_bytes
  then begin
    st.undo_alloc_bytes <- max st.undo_live_bytes (st.truncate_threshold / 4);
    st.truncations <- st.truncations + 1
  end;
  let hold =
    ((batch / st.undo_recs_per_page) + 1) * st.costs.Costs.gc_page_scan / 8
    + (!removed * st.costs.Costs.version_hop)
  in
  Queue_model.service st.rseg ~now ~hold

(* HANA/Steam-style interval garbage collection (§2.2): walk whole
   chains, translate each version to its commit-time interval and apply
   the complete pruning check — removing dead versions anywhere in the
   chain, at the price of fetching the undo pages being scanned. *)
let interval_scan st ~now =
  let zones = Zone_set.of_txn_manager st.mgr in
  let log = Txn_manager.commit_log st.mgr in
  let records = Schema.records st.schema in
  let batch = min st.purge_batch records in
  let removed = ref 0 in
  let scanned = ref 0 in
  let io = ref 0 in
  for k = 0 to batch - 1 do
    let rid = (st.purge_cursor + k) mod records in
    let vec = st.undo.(rid) in
    if not (Vec.is_empty vec) then begin
      (* Touch up to 8 undo pages of this chain through the shared
         pool; the scan evicts useful pages just like the LLT walks. *)
      let touch = min (Vec.length vec) 8 in
      for i = 0 to touch - 1 do
        match Buffer_pool.access st.pool ~block:(undo_block (Vec.get vec i).undo_page) with
        | `Miss -> incr io
        | `Hit -> ()
      done;
      scanned := !scanned + Vec.length vec;
      Vec.filter_in_place
        (fun v ->
          match Prune.commit_interval log ~vs:v.vs ~ve:v.ve with
          | Some (lo, hi) ->
              if Zone_set.prunable zones ~vs:lo ~ve:hi then begin
                incr removed;
                false
              end
              else true
          | None -> true)
        vec
    end
  done;
  st.purge_cursor <- (st.purge_cursor + batch) mod records;
  st.undo_live_bytes <- st.undo_live_bytes - (!removed * st.schema.Schema.record_bytes);
  if
    st.undo_alloc_bytes > st.truncate_threshold
    && st.undo_live_bytes * 4 < st.undo_alloc_bytes
  then begin
    st.undo_alloc_bytes <- max st.undo_live_bytes (st.truncate_threshold / 4);
    st.truncations <- st.truncations + 1
  end;
  now
  + (!scanned * st.costs.Costs.version_hop)
  + (!io * st.costs.Costs.io_latency)
  + (!removed * st.costs.Costs.version_hop)

let create ?(costs = Costs.default) ?(purge_batch = 4096) ?(undo_pool_pages = 512)
    ?(truncate_threshold_bytes = 4 * 1024 * 1024) ?(gc = `Purge_prefix) schema =
  let mgr = Txn_manager.create () in
  let wal = Wal.create () in
  let heap =
    Heap.create ~page_bytes:schema.Schema.page_bytes ~slot_bytes:schema.Schema.record_bytes
      ~records:(Schema.records schema) ~fill_factor:schema.Schema.fill_factor ~wal
  in
  let st =
    {
      costs;
      schema;
      mgr;
      wal;
      heap;
      current =
        Array.init (Schema.records schema) (fun rid ->
            { vs = 0; ve = Timestamp.infinity; payload = rid; undo_page = -1 });
      undo = Array.init (Schema.records schema) (fun _ -> Vec.create ());
      pool =
        Buffer_pool.create ~name:"buffer-pool"
          ~capacity_blocks:(((3 * Heap.page_count heap) / 2) + undo_pool_pages);
      rseg = Queue_model.create "rollback-segment";
      undo_recs_per_page = max 1 (schema.Schema.page_bytes / schema.Schema.record_bytes);
      undo_seq = 0;
      undo_live_bytes = 0;
      undo_alloc_bytes = 0;
      truncations = 0;
      purge_cursor = 0;
      purge_batch;
      truncate_threshold = truncate_threshold_bytes;
      gc;
      write_sets = Hashtbl.create 256;
    }
  in
  (* The interval scan translates the bounds of every version it ever
     holds through the commit log, and a current version whose creator
     committed arbitrarily long ago joins undo space at its next update:
     this engine keeps its whole log (floor 0). *)
  if gc = `Interval_scan then Txn_manager.register_floor mgr (fun () -> 0);
  let max_chain () = 1 + Array.fold_left (fun acc v -> max acc (Vec.length v)) 0 st.undo in
  {
    Engine.name = (match gc with `Purge_prefix -> "mysql-vanilla" | `Interval_scan -> "mysql-interval-gc");
    txns = mgr;
    begin_txn =
      (fun ~now ->
        let txn = Txn_manager.begin_txn mgr ~now in
        (txn, now + costs.Costs.txn_begin));
    read = (fun txn ~rid ~now -> read st txn ~rid ~now);
    write = (fun txn ~rid ~payload ~now -> write st txn ~rid ~payload ~now);
    commit =
      (fun txn ~now ->
        Hashtbl.remove st.write_sets txn.Txn.tid;
        Txn_manager.commit mgr txn ~now;
        (* Committed undo logs are appended to the global history list
           under the rollback-segment mutex (stock MySQL; vDriver's
           integration recycles them instead, §4.2). *)
        let t = Queue_model.service st.rseg ~now ~hold:costs.Costs.undo_header in
        t + costs.Costs.txn_commit);
    abort =
      (fun txn ~now ->
        rollback_writes st txn;
        Txn_manager.abort mgr txn ~now;
        now + costs.Costs.txn_commit);
    maintenance =
      (fun ~now ->
        match st.gc with `Purge_prefix -> purge st ~now | `Interval_scan -> interval_scan st ~now);
    sample =
      (fun () ->
        {
          Engine.version_bytes = st.undo_alloc_bytes;
          redo_bytes = Wal.total_bytes wal;
          max_chain = max_chain ();
          splits = Heap.splits heap;
          truncations = st.truncations;
          latch_wait = Queue_model.busy_time st.rseg + Heap.latch_wait heap;
          wal_errors = Wal.errors wal;
        });
    chain_histogram =
      (fun () ->
        let h = Histogram.create () in
        Array.iter (fun vec -> Histogram.add h (1 + Vec.length vec)) st.undo;
        h);
    finish = (fun ~now -> ignore now);
    crash =
      (fun () ->
        (* Stock MySQL resurrects in-flight transactions by scanning
           undo log headers in the rollback segments (§4.2): recovery
           pays a scan proportional to live undo records before any
           loser can be rolled back. *)
        let live_undo =
          Array.fold_left (fun acc vec -> acc + Vec.length vec) 0 st.undo
        in
        let scan_cost =
          (live_undo / st.undo_recs_per_page + 1) * costs.Costs.gc_page_scan
        in
        let undo_ops = ref 0 in
        let losers = Hashtbl.fold (fun tid _ acc -> tid :: acc) st.write_sets [] in
        List.iter
          (fun tid ->
            match Hashtbl.find_opt st.write_sets tid with
            | Some rids ->
                List.iter
                  (fun rid ->
                    if st.current.(rid).vs = tid then
                      match Vec.pop st.undo.(rid) with
                      | Some prev ->
                          incr undo_ops;
                          prev.ve <- Timestamp.infinity;
                          st.current.(rid) <- prev;
                          st.undo_live_bytes <-
                            st.undo_live_bytes - st.schema.Schema.record_bytes
                      | None -> ())
                  !rids;
                Hashtbl.remove st.write_sets tid
            | None -> ())
          losers;
        scan_cost + (!undo_ops * (costs.Costs.io_latency + costs.Costs.write_base)));
    driver = None;
    checkpoint = None;
    restart = None;
    twopc = None;
  }
