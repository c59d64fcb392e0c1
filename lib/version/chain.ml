type node = {
  version : Version.t;
  prune_lo : Timestamp.t;
  prune_hi : Timestamp.t;
  mutable seg_id : int;
  mutable newer : node option;
  mutable older : node option;
  mutable deleted : bool;
}

type t = {
  rid : int;
  mutable head : node option;
  mutable tail : node option;
  mutable live : int;
  mutable holes : int;
  mutable fixups : int;
}

let create rid = { rid; head = None; tail = None; live = 0; holes = 0; fixups = 0 }
let rid t = t.rid
let head t = t.head
let tail t = t.tail
let live_length t = t.live
let holes t = t.holes
let fixups t = t.fixups

let push_newest t ?prune_interval version ~seg_id =
  (match t.head with
  | Some h when h.version.Version.vs > version.Version.vs ->
      invalid_arg "Chain.push_newest: out-of-order relocation"
  | Some _ | None -> ());
  let prune_lo, prune_hi =
    match prune_interval with
    | Some (lo, hi) -> (lo, hi)
    | None -> (version.Version.vs, version.Version.ve)
  in
  let node =
    { version; prune_lo; prune_hi; seg_id; newer = None; older = t.head; deleted = false }
  in
  (match t.head with
  | Some h -> h.newer <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node;
  t.live <- t.live + 1;
  node

(* Physically unlink [node] from the list. *)
let unlink t node =
  (match node.newer with
  | Some n -> n.older <- node.older
  | None -> t.head <- node.older);
  (match node.older with
  | Some n -> n.newer <- node.newer
  | None -> t.tail <- node.newer);
  node.newer <- None;
  node.older <- None

(* Fixup: splice out every deleted interior node (Figure 8). *)
let fixup t =
  let rec walk = function
    | None -> ()
    | Some n ->
        let older = n.older in
        if n.deleted then unlink t n;
        walk older
  in
  walk t.head;
  t.holes <- 0;
  t.fixups <- t.fixups + 1

(* Trim a deleted run that reached an end of the chain. Any marked node
   encountered belonged to a formerly interior run that the end has now
   absorbed, so the hole count drops by one once the run is consumed. *)
let trim t which =
  let saw_marked = ref false in
  let current () = match which with `Head -> t.head | `Tail -> t.tail in
  let rec loop () =
    match current () with
    | Some n when n.deleted ->
        saw_marked := true;
        unlink t n;
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  if !saw_marked && t.holes > 0 then t.holes <- t.holes - 1

let delete_node t node =
  if not node.deleted then begin
    node.deleted <- true;
    t.live <- t.live - 1;
    let at_head = match t.head with Some h -> h == node | None -> false in
    let at_tail = match t.tail with Some l -> l == node | None -> false in
    if at_head || at_tail then begin
      unlink t node;
      (* The neighbouring run (if marked) is now exposed at the end. *)
      if at_head then trim t `Head;
      if at_tail then trim t `Tail
    end
    else begin
      (* Interior deletion: hole bookkeeping is purely local. *)
      let newer_deleted = match node.newer with Some n -> n.deleted | None -> false in
      let older_deleted = match node.older with Some n -> n.deleted | None -> false in
      (match (newer_deleted, older_deleted) with
      | false, false -> t.holes <- t.holes + 1 (* a fresh hole *)
      | true, true -> t.holes <- t.holes - 1 (* two runs merge *)
      | true, false | false, true -> () (* extends an existing run *));
      (* The state machine of §3.4: a single hole is tolerated; the
         moment a second one appears we preemptively fix all broken
         links. *)
      if t.holes > 1 then fixup t
    end
  end

type walk_result = Found of node * int | Miss | Hit_hole

let rec walk test dir node hops =
  match node with
  | None -> Miss (* clean full walk: version simply absent *)
  | Some n ->
      if n.deleted then Hit_hole (* this walk is inconclusive *)
      else if test n then Found (n, hops)
      else walk test dir (dir n) (hops + 1)

let find_visible t view =
  let test node =
    Read_view.snapshot_read view ~vs:node.version.Version.vs ~ve:node.version.Version.ve
  in
  match walk test (fun n -> n.older) t.head 0 with
  | Found (n, hops) -> Some (n, hops)
  | Miss -> None
  | Hit_hole -> (
      (* interrupted by the hole: approach from the other end *)
      match walk test (fun n -> n.newer) t.tail 0 with
      | Found (n, hops) -> Some (n, hops)
      | Miss | Hit_hole -> None)

let reachable t target =
  if target.deleted then false
  else begin
    let rec walk node dir =
      match node with
      | None -> false
      | Some n -> if n.deleted then false else n == target || walk (dir n) dir
    in
    walk t.head (fun n -> n.older) || walk t.tail (fun n -> n.newer)
  end

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec count_live node acc =
    match node with None -> acc | Some n -> count_live n.older (if n.deleted then acc else acc + 1)
  in
  let rec count_holes node in_run acc =
    match node with
    | None -> acc
    | Some n ->
        if n.deleted then count_holes n.older true (if in_run then acc else acc + 1)
        else count_holes n.older false acc
  in
  let rec links_ok node =
    match node with
    | None -> true
    | Some n -> (
        match n.older with
        | None -> true
        | Some o -> (match o.newer with Some b -> b == n | None -> false) && links_ok n.older)
  in
  match (t.head, t.tail) with
  | None, Some _ | Some _, None -> fail "chain r%d: one end nil" t.rid
  | None, None ->
      if t.live = 0 && t.holes = 0 then Ok () else fail "chain r%d: empty but counts nonzero" t.rid
  | Some h, Some tl ->
      if h.deleted || tl.deleted then fail "chain r%d: deleted node at an end" t.rid
      else if not (links_ok t.head) then fail "chain r%d: inconsistent links" t.rid
      else begin
        let live = count_live t.head 0 in
        let holes = count_holes t.head false 0 in
        if live <> t.live then fail "chain r%d: live count %d <> %d" t.rid live t.live
        else if holes <> t.holes then fail "chain r%d: hole count %d <> %d" t.rid holes t.holes
        else if t.holes > 1 then fail "chain r%d: %d holes tolerated" t.rid t.holes
        else Ok ()
      end
