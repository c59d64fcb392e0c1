(* Reference implementations of the transaction bookkeeping that lib/
   now keeps in flat arrays or pages: the list LRU, the dense commit log
   and the fold-then-sort live set. They are the oracles of the qcheck
   properties in test_storage.ml and test_txn.ml and live only here. *)

(* Doubly-linked list threaded through a hashtable; most-recent at front. *)
module Lru = struct
  type entry = { key : int; mutable prev : entry option; mutable next : entry option }

  type t = {
    capacity : int;
    table : (int, entry) Hashtbl.t;
    mutable front : entry option;
    mutable back : entry option;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    { capacity; table = Hashtbl.create (2 * capacity); front = None; back = None }

  let size t = Hashtbl.length t.table
  let mem t k = Hashtbl.mem t.table k

  let detach t e =
    (match e.prev with Some p -> p.next <- e.next | None -> t.front <- e.next);
    (match e.next with Some n -> n.prev <- e.prev | None -> t.back <- e.prev);
    e.prev <- None;
    e.next <- None

  let push_front t e =
    e.next <- t.front;
    e.prev <- None;
    (match t.front with Some f -> f.prev <- Some e | None -> t.back <- Some e);
    t.front <- Some e

  let touch t k =
    match Hashtbl.find_opt t.table k with
    | Some e ->
        detach t e;
        push_front t e;
        `Hit
    | None ->
        let evicted =
          if Hashtbl.length t.table >= t.capacity then
            match t.back with
            | Some victim ->
                detach t victim;
                Hashtbl.remove t.table victim.key;
                Some victim.key
            | None -> None
          else None
        in
        let e = { key = k; prev = None; next = None } in
        Hashtbl.replace t.table k e;
        push_front t e;
        `Miss evicted

  let remove t k =
    match Hashtbl.find_opt t.table k with
    | Some e ->
        detach t e;
        Hashtbl.remove t.table k
    | None -> ()

  let clear t =
    Hashtbl.reset t.table;
    t.front <- None;
    t.back <- None
end

(* The dense commit log lib/ kept before the freeze horizon: one int
   cell per tid ever issued, in a single array that grows by doubling
   and is never cut. Cells are 0 (no status) or [(ts lsl 2) lor tag]. *)
module Commit_log = struct
  type t = { mutable cells : int array; mutable hi : int; mutable finished : int }

  let create () = { cells = Array.make 1024 0; hi = 0; finished = 0 }
  let cell t tid = if tid >= 0 && tid < t.hi then t.cells.(tid) else 0

  let decode c =
    if c land 3 = 1 then Commit_log.Committed_at (c asr 2) else Commit_log.Aborted_at (c asr 2)

  let store t ~tid status =
    if tid < 0 then invalid_arg "Commit_log: negative tid";
    let c =
      match status with
      | Commit_log.Committed_at ts -> (ts lsl 2) lor 1
      | Commit_log.Aborted_at ts -> (ts lsl 2) lor 2
    in
    if tid >= Array.length t.cells then begin
      let rec fit n = if n > tid then n else fit (2 * n) in
      let cells = Array.make (fit (Array.length t.cells)) 0 in
      Array.blit t.cells 0 cells 0 t.hi;
      t.cells <- cells
    end;
    if t.cells.(tid) = 0 then t.finished <- t.finished + 1;
    t.cells.(tid) <- c;
    if tid >= t.hi then t.hi <- tid + 1

  let record t ~tid status =
    if cell t tid <> 0 then invalid_arg "Commit_log.record: duplicate status";
    store t ~tid status

  let override t ~tid status = store t ~tid status
  let status t tid = match cell t tid with 0 -> None | c -> Some (decode c)

  let commit_ts_of t tid =
    let c = cell t tid in
    if c land 3 = 1 then Some (c asr 2) else None

  let commit_ts t tid = Option.value ~default:Timestamp.infinity (commit_ts_of t tid)
  let finished t = t.finished

  let reset t =
    Array.fill t.cells 0 t.hi 0;
    t.hi <- 0;
    t.finished <- 0

  let entries t =
    List.filter_map
      (fun tid -> Option.map (fun st -> (tid, st)) (status t tid))
      (List.init t.hi Fun.id)
end

(* The live table as a hashtable, read by folding and sorting; it holds
   the transactions the manager under test handed out. *)
module Live = struct
  type t = (Timestamp.t, Txn.t) Hashtbl.t

  let create () : t = Hashtbl.create 256
  let add t (txn : Txn.t) = Hashtbl.replace t txn.Txn.tid txn
  let remove t (txn : Txn.t) = Hashtbl.remove t txn.Txn.tid
  let reset t = Hashtbl.reset t
  let begin_ts t = Hashtbl.fold (fun ts _ acc -> ts :: acc) t [] |> List.sort compare

  let txns_sorted t =
    Hashtbl.fold (fun _ txn acc -> txn :: acc) t []
    |> List.sort (fun (a : Txn.t) (b : Txn.t) -> compare a.tid b.tid)

  let views t = List.map (fun (txn : Txn.t) -> txn.Txn.view) (txns_sorted t)
  let oldest_active t = match begin_ts t with [] -> None | ts :: _ -> Some ts

  let oldest_visible_horizon t ~oracle =
    List.fold_left
      (fun acc view -> min acc (Read_view.oldest_visible_horizon view))
      oracle (views t)

  let shed_candidates t ~now ~min_age =
    txns_sorted t |> List.filter (fun txn -> Txn.age txn ~now > min_age)

  let llt_views t ~now ~delta_llt =
    txns_sorted t
    |> List.filter (fun txn -> Txn.age txn ~now > delta_llt)
    |> List.map (fun (txn : Txn.t) -> txn.Txn.view)
end
