(* Reference implementations of the transaction bookkeeping that lib/
   now keeps in flat arrays: the list LRU, the hashtable commit log and
   the fold-then-sort live set. They are the oracles of the qcheck
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

module Commit_log = struct
  type t = (Timestamp.t, Commit_log.status) Hashtbl.t

  let create () : t = Hashtbl.create 1024

  let record t ~tid status =
    if Hashtbl.mem t tid then invalid_arg "Commit_log.record: duplicate status";
    Hashtbl.replace t tid status

  let override t ~tid status = Hashtbl.replace t tid status
  let status t tid = Hashtbl.find_opt t tid

  let commit_ts_of t tid =
    match Hashtbl.find_opt t tid with
    | Some (Commit_log.Committed_at cts) -> Some cts
    | Some (Commit_log.Aborted_at _) | None -> None

  let finished t = Hashtbl.length t
  let reset t = Hashtbl.reset t

  let entries t =
    Hashtbl.fold (fun tid status acc -> (tid, status) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
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
