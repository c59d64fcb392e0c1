(* Reference implementations of the bookkeeping that lib/ now keeps in
   flat arrays, pages or unboxed state: the list LRU, the dense commit
   log, the fold-then-sort live set, the boxed-state splitmix generator
   and the closure-per-call Zipf sampler. They are the oracles of the
   qcheck properties in test_storage.ml, test_txn.ml and test_util.ml
   and live only here. *)

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

(* splitmix64 with its state in a mutable [int64] field, which boxes a
   fresh int64 at every step. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int seed }

  let next_int64 t =
    let open Int64 in
    t.s <- add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    bits t mod bound

  let float t = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53
  let split t = create (Int64.to_int (next_int64 t))
end

(* Rejection-inversion Zipf with the loop as a closure built per call,
   drawing its uniform from the boxed [Rng] above. *)
module Zipf = struct
  type t = {
    n : int;
    s : float;
    h_integral_x1 : float;
    h_integral_n : float;
    threshold : float;
  }

  let helper1 x = if Float.abs x > 1e-8 then Float.log1p x /. x else 1. -. (x /. 2.) +. (x *. x /. 3.)
  let helper2 x = if Float.abs x > 1e-8 then Float.expm1 x /. x else 1. +. (x /. 2.) +. (x *. x /. 6.)

  let h_integral ~s x =
    let log_x = Float.log x in
    helper2 ((1. -. s) *. log_x) *. log_x

  let h ~s x = Float.exp (-.s *. Float.log x)

  let h_integral_inverse ~s x =
    let t = x *. (1. -. s) in
    let t = if t < -1. then -1. else t in
    Float.exp (helper1 t *. x)

  let create ~n ~s =
    {
      n;
      s;
      h_integral_x1 = h_integral ~s 1.5 -. 1.;
      h_integral_n = h_integral ~s (float_of_int n +. 0.5);
      threshold = 2. -. h_integral_inverse ~s (h_integral ~s 2.5 -. h ~s 2.);
    }

  let sample t rng =
    let s = t.s in
    let rec loop () =
      let u = t.h_integral_n +. (Rng.float rng *. (t.h_integral_x1 -. t.h_integral_n)) in
      let x = h_integral_inverse ~s u in
      let k = int_of_float (Float.round x) in
      let k = if k < 1 then 1 else if k > t.n then t.n else k in
      let kf = float_of_int k in
      if kf -. x <= t.threshold then k
      else if u >= h_integral ~s (kf +. 0.5) -. h ~s kf then k
      else loop ()
    in
    loop () - 1
end
