type vrec = { vs : Timestamp.t; mutable ve : Timestamp.t; payload : int }

type state = {
  costs : Costs.t;
  schema : Schema.t;
  mgr : Txn_manager.t;
  wal : Wal.t;
  heap : Heap.t;
  pool : Buffer_pool.t; (* heap pages; bloat past capacity costs I/O *)
  versions : vrec Vec.t array; (* oldest first; last element is current *)
  write_sets : (Timestamp.t, int list ref) Hashtbl.t;
  mutable vacuum_cursor : int;
}

(* Records one maintenance pass vacuums. *)
let vacuum_batch = 4096

let is_committed st vs = vs = 0 || Commit_log.is_committed (Txn_manager.commit_log st.mgr) vs

let fetch_page st page ~now =
  match Buffer_pool.access st.pool ~block:page.Page.id with
  | `Hit -> now
  | `Miss -> now + st.costs.Costs.io_latency

let read st (txn : Txn.t) ~rid ~now =
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_page st page ~now in
  let t = Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.read_base in
  let vec = st.versions.(rid) in
  (* PostgreSQL searches from the oldest version (§2.1), paying the
     full chain prefix on every read of a bloated record. *)
  match
    Mvcc_search.find_visible ~view:txn.Txn.view ~len:(Vec.length vec)
      ~vs_of:(fun i -> (Vec.get vec i).vs)
  with
  | Some i ->
      let hops = i + 1 in
      ((Vec.get vec i).payload, t + (hops * st.costs.Costs.version_hop) + st.costs.Costs.think)
  | None -> failwith "inrow: snapshot read unreachable"

let note_write st (txn : Txn.t) rid =
  match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some l -> l := rid :: !l
  | None -> Hashtbl.replace st.write_sets txn.Txn.tid (ref [ rid ])

let write st (txn : Txn.t) ~rid ~payload ~now =
  let vec = st.versions.(rid) in
  let current = Vec.get vec (Vec.length vec - 1) in
  let page = Heap.page_of st.heap ~rid in
  let now = fetch_page st page ~now in
  if current.vs = txn.Txn.tid then begin
    (* Same transaction: in-place refresh of its own version. *)
    let t = Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.write_base in
    Vec.set vec (Vec.length vec - 1) { current with payload };
    Engine.Committed_path (t + st.costs.Costs.think)
  end
  else if Cc.write_conflict st.mgr txn ~current_vs:current.vs then
    (* First-committer-wins, no-wait: the txn must abort. *)
    Engine.Conflict (Resource.acquire page.Page.latch ~now ~hold:st.costs.Costs.read_base)
  else begin
    current.ve <- txn.Txn.tid;
    Vec.push vec { vs = txn.Txn.tid; ve = Timestamp.infinity; payload };
    note_write st txn rid;
    Wal.append st.wal ~at:now ~bytes:st.schema.Schema.record_bytes ();
    let split =
      Heap.add_version_bytes st.heap ~rid ~bytes:st.schema.Schema.record_bytes = `Split
    in
    let hold =
      st.costs.Costs.write_base + if split then st.costs.Costs.page_split else 0
    in
    let t = Resource.acquire page.Page.latch ~now ~hold in
    Engine.Committed_path (t + st.costs.Costs.think)
  end

let rollback_writes st (txn : Txn.t) =
  (match Hashtbl.find_opt st.write_sets txn.Txn.tid with
  | Some rids ->
      List.iter
        (fun rid ->
          let vec = st.versions.(rid) in
          let n = Vec.length vec in
          let current = Vec.get vec (n - 1) in
          if current.vs = txn.Txn.tid then begin
            ignore (Vec.pop vec);
            Heap.remove_version_bytes st.heap ~rid ~bytes:st.schema.Schema.record_bytes;
            if n >= 2 then (Vec.get vec (n - 2)).ve <- Timestamp.infinity
          end;
          (* The commit log's frozen answer below its horizon is
             "committed": sound only while no version survives its
             aborted creator. *)
          assert (Vec.is_empty vec || (Vec.get vec (Vec.length vec - 1)).vs <> txn.Txn.tid))
        !rids
  | None -> ());
  Hashtbl.remove st.write_sets txn.Txn.tid

(* Vacuum: remove the reclaimable prefix of each chain, gated on the
   oldest-active horizon (the age-old criterion, §2.2). *)
let vacuum st ~now =
  let horizon = Txn_manager.oldest_visible_horizon st.mgr in
  let records = Schema.records st.schema in
  let batch = min vacuum_batch records in
  let t = ref now in
  let last_page = ref (-1) in
  for k = 0 to batch - 1 do
    let rid = (st.vacuum_cursor + k) mod records in
    let page = Heap.page_of st.heap ~rid in
    if page.Page.id <> !last_page then begin
      last_page := page.Page.id;
      t := Resource.acquire page.Page.latch ~now:!t ~hold:st.costs.Costs.gc_page_scan
    end;
    let vec = st.versions.(rid) in
    let rec reclaimable i =
      if i >= Vec.length vec - 1 then i
      else
        let v = Vec.get vec i in
        if v.ve <> Timestamp.infinity && v.ve < horizon && is_committed st v.vs then
          reclaimable (i + 1)
        else i
    in
    let k = reclaimable 0 in
    if k > 0 then begin
      Vec.drop_front vec k;
      Heap.remove_version_bytes st.heap ~rid ~bytes:(k * st.schema.Schema.record_bytes);
      t := !t + (k * st.costs.Costs.version_hop)
    end
  done;
  st.vacuum_cursor <- (st.vacuum_cursor + batch) mod records;
  !t

(* Roll back and abort every live transaction — crash recovery with
   losers identified through the commit log (pg_xact style, §4.2):
   each loser write costs a page fetch plus an in-place undo. *)
let crash_recover st =
  let losers = ref [] in
  Hashtbl.iter (fun tid _ -> losers := tid :: !losers) st.write_sets;
  let undo_ops = ref 0 in
  (* Only live transactions can still own a write set. *)
  List.iter
    (fun tid ->
      match Hashtbl.find_opt st.write_sets tid with
      | Some rids ->
          List.iter
            (fun rid ->
              let vec = st.versions.(rid) in
              let n = Vec.length vec in
              let current = Vec.get vec (n - 1) in
              if current.vs = tid then begin
                incr undo_ops;
                ignore (Vec.pop vec);
                Heap.remove_version_bytes st.heap ~rid ~bytes:st.schema.Schema.record_bytes;
                if n >= 2 then (Vec.get vec (n - 2)).ve <- Timestamp.infinity
              end)
            !rids;
          Hashtbl.remove st.write_sets tid
      | None -> ())
    !losers;
  !undo_ops * (st.costs.Costs.io_latency + st.costs.Costs.write_base)

let create schema =
  let costs = Costs.default in
  let mgr = Txn_manager.create () in
  let wal = Wal.create () in
  let heap =
    Heap.create ~page_bytes:schema.Schema.page_bytes ~slot_bytes:schema.Schema.record_bytes
      ~records:(Schema.records schema) ~fill_factor:schema.Schema.fill_factor ~wal
  in
  let pool =
    Buffer_pool.create ~capacity_blocks:(((3 * Heap.page_count heap) / 2) + 8)
  in
  let st =
    {
      costs;
      schema;
      mgr;
      wal;
      heap;
      pool;
      versions =
        Array.init (Schema.records schema) (fun rid ->
            let vec = Vec.create () in
            Vec.push vec { vs = 0; ve = Timestamp.infinity; payload = rid };
            vec);
      write_sets = Hashtbl.create 256;
      vacuum_cursor = 0;
    }
  in
  let max_chain () = Array.fold_left (fun acc v -> max acc (Vec.length v)) 0 st.versions in
  {
    Engine.name = "postgres-vanilla";
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
        now + costs.Costs.txn_commit);
    abort =
      (fun txn ~now ->
        rollback_writes st txn;
        Txn_manager.abort mgr txn ~now;
        now + costs.Costs.txn_commit);
    maintenance = (fun ~now -> vacuum st ~now);
    sample =
      (fun () ->
        {
          Engine.version_bytes = Heap.version_bytes heap;
          redo_bytes = Wal.total_bytes wal;
          max_chain = max_chain ();
          splits = Heap.splits heap;
          truncations = 0;
          latch_wait = Heap.latch_wait heap;
          wal_errors = Wal.errors wal;
        });
    chain_histogram =
      (fun () ->
        let h = Histogram.create () in
        Array.iter (fun vec -> Histogram.add h (Vec.length vec)) st.versions;
        h);
    finish = (fun ~now -> ignore now);
    crash = (fun () -> crash_recover st);
    driver = None;
    checkpoint = None;
    restart = None;
    twopc = None;
  }
