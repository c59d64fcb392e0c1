(* Doubly linked list over slots, most-recent at front, plus an
   open-addressed key -> slot index (linear probing, backward-shift
   deletion, so no tombstones). Slot [-1] means "none". Slot [s] keeps
   its key, prev and next at [nodes.(3s)], [3s + 1] and [3s + 2]: one
   array sized at [create], which for any but tiny capacities goes
   straight to the major heap. A hit or a steady-state miss allocates
   nothing. *)

type t = {
  capacity : int;
  nodes : int array; (* next also threads the free-slot list *)
  index : int array; (* slot, or -1 for an empty position *)
  mask : int;
  shift : int; (* 63 - log2 (Array.length index) *)
  mutable size : int;
  mutable front : int;
  mutable back : int;
  mutable free : int; (* head of the free-slot list *)
  mutable fresh : int; (* slots [fresh, capacity) were never handed out *)
  mutable evicted : int; (* key evicted by the last [access], if [did_evict] *)
  mutable did_evict : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  let rec bits b = if 1 lsl b >= 2 * capacity then b else bits (b + 1) in
  let bits = bits 3 in
  let positions = 1 lsl bits in
  {
    capacity;
    nodes = Array.make (3 * capacity) (-1);
    index = Array.make positions (-1);
    mask = positions - 1;
    shift = 63 - bits;
    size = 0;
    front = -1;
    back = -1;
    free = -1;
    fresh = 0;
    evicted = 0;
    did_evict = false;
  }

let key t s = t.nodes.(3 * s)
let prev t s = t.nodes.((3 * s) + 1)
let next t s = t.nodes.((3 * s) + 2)
let set_key t s k = t.nodes.(3 * s) <- k
let set_prev t s p = t.nodes.((3 * s) + 1) <- p
let set_next t s n = t.nodes.((3 * s) + 2) <- n
let capacity t = t.capacity
let size t = t.size

(* Fibonacci hashing: the top bits of [k] times the odd 63-bit
   constant nearest 2^63 / phi (the literal wraps to a negative int). *)
let home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* Position of [k] in [index], or the empty position where it would go. *)
let rec probe t k i =
  let s = Array.unsafe_get t.index i in
  if s < 0 || key t s = k then i else probe t k ((i + 1) land t.mask)

let mem t k = t.index.(probe t k (home t k)) >= 0

(* Empty position [hole], then pull back every later entry of the run
   whose home does not lie cyclically in (hole, j]. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else
    let h = home t (key t s) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t hole j
    else begin
      t.index.(hole) <- s;
      close_hole t j j
    end

let unlink t s =
  let p = prev t s and n = next t s in
  if p >= 0 then set_next t p n else t.front <- n;
  if n >= 0 then set_prev t n p else t.back <- p

let push_front t s =
  set_prev t s (-1);
  set_next t s t.front;
  if t.front >= 0 then set_prev t t.front s else t.back <- s;
  t.front <- s

(* Unlink slot [s] and drop its key from the index. *)
let drop t s =
  unlink t s;
  let k = key t s in
  let i = probe t k (home t k) in
  close_hole t i i;
  t.size <- t.size - 1

let take_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- next t s;
    s
  end
  else begin
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

let access t k =
  let i = probe t k (home t k) in
  let s = t.index.(i) in
  if s >= 0 then begin
    if t.front <> s then begin
      unlink t s;
      push_front t s
    end;
    t.did_evict <- false;
    true
  end
  else begin
    let slot =
      if t.size >= t.capacity then begin
        let victim = t.back in
        t.evicted <- key t victim;
        t.did_evict <- true;
        drop t victim;
        victim
      end
      else begin
        t.did_evict <- false;
        take_slot t
      end
    in
    set_key t slot k;
    (* An eviction may have shifted entries, so probe again. *)
    t.index.(if t.did_evict then probe t k (home t k) else i) <- slot;
    push_front t slot;
    t.size <- t.size + 1;
    false
  end

let touch t k =
  if access t k then `Hit else `Miss (if t.did_evict then Some t.evicted else None)

let remove t k =
  let s = t.index.(probe t k (home t k)) in
  if s >= 0 then begin
    drop t s;
    set_next t s t.free;
    t.free <- s
  end

let clear t =
  Array.fill t.index 0 (Array.length t.index) (-1);
  t.size <- 0;
  t.front <- -1;
  t.back <- -1;
  t.free <- -1;
  t.fresh <- 0;
  t.did_evict <- false
