type 'a envelope = { due : Clock.time; seq : int; src : int; dst : int; msg : 'a }

(* Tiny binary min-heap on (due, seq) — enough structure for the
   in-flight queue; handlers enqueue while we drain, so the heap must
   tolerate interleaved pushes. *)
type 'a heap = { mutable a : 'a envelope array; mutable len : int }

let heap_create () = { a = [||]; len = 0 }

let heap_less x y = x.due < y.due || (x.due = y.due && x.seq < y.seq)

let heap_push h e =
  if h.len = Array.length h.a then begin
    let cap = max 16 (2 * h.len) in
    let a' = Array.make cap e in
    Array.blit h.a 0 a' 0 h.len;
    h.a <- a'
  end;
  h.a.(h.len) <- e;
  h.len <- h.len + 1;
  let i = ref (h.len - 1) in
  while !i > 0 && heap_less h.a.(!i) h.a.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = h.a.(p) in
    h.a.(p) <- h.a.(!i);
    h.a.(!i) <- tmp;
    i := p
  done

let heap_peek h = if h.len = 0 then None else Some h.a.(0)

let heap_pop h =
  let top = h.a.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    h.a.(0) <- h.a.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && heap_less h.a.(l) h.a.(!m) then m := l;
      if r < h.len && heap_less h.a.(r) h.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.a.(!m) in
        h.a.(!m) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !m
      end
    done
  end;
  top

type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_partition : int;
  duplicated : int;
  retried : int;
}

type 'a t = {
  faults : Net_fault.config;
  passthrough : bool;
  endpoints : int;
  handlers : (now:Clock.time -> src:int -> 'a -> unit) option array;
  queue : 'a heap;
  channel_rngs : (int, Rng.t) Hashtbl.t;
  mutable seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_loss : int;
  mutable dropped_partition : int;
  mutable duplicated : int;
  mutable retried : int;
}

let create ?(faults = Net_fault.none) ~endpoints () =
  if endpoints < 1 then invalid_arg "Bus.create: need at least one endpoint";
  {
    faults;
    passthrough = Net_fault.is_none faults;
    endpoints;
    handlers = Array.make endpoints None;
    queue = heap_create ();
    channel_rngs = Hashtbl.create 16;
    seq = 0;
    sent = 0;
    delivered = 0;
    dropped_loss = 0;
    dropped_partition = 0;
    duplicated = 0;
    retried = 0;
  }

let set_handler t ~ep f =
  if ep < 0 || ep >= t.endpoints then invalid_arg "Bus.set_handler: bad endpoint";
  t.handlers.(ep) <- Some f

(* Per-channel stream: one splitmix generator per ordered (src, dst)
   pair, forked from the config seed — a retry storm on one channel
   never shifts another channel's draws. *)
let channel_rng t ~src ~dst =
  let key = (src * 65536) + dst in
  match Hashtbl.find_opt t.channel_rngs key with
  | Some rng -> rng
  | None ->
      let rng =
        Rng.create
          (t.faults.Net_fault.seed
          lxor (((src + 1) * 0x9e3779b1) lxor ((dst + 1) * 0x85ebca77)))
      in
      Hashtbl.replace t.channel_rngs key rng;
      rng

let deliver t ~now ~src ~dst msg =
  t.delivered <- t.delivered + 1;
  match t.handlers.(dst) with Some f -> f ~now ~src msg | None -> ()

let send t ~src ~dst ~now msg =
  t.sent <- t.sent + 1;
  if t.passthrough || src = dst then deliver t ~now ~src ~dst msg
  else
    match Net_fault.severed t.faults ~src ~dst ~now with
    | Some _ -> t.dropped_partition <- t.dropped_partition + 1
    | None ->
        let rng = channel_rng t ~src ~dst in
        let cfg = t.faults in
        (* Fixed draw order per message — loss, dup, then one delay per
           copy — so the stream is a pure function of the channel's send
           sequence. *)
        let lost = cfg.Net_fault.loss > 0. && Rng.float rng < cfg.Net_fault.loss in
        let dup = cfg.Net_fault.dup > 0. && Rng.float rng < cfg.Net_fault.dup in
        if lost then t.dropped_loss <- t.dropped_loss + 1
        else begin
          let copies = if dup then 2 else 1 in
          if dup then t.duplicated <- t.duplicated + 1;
          for _ = 1 to copies do
            let jitter =
              if cfg.Net_fault.max_delay <= 0 then 0
              else Rng.int rng (cfg.Net_fault.max_delay + 1)
            in
            let delay = cfg.Net_fault.min_delay + jitter in
            if delay <= 0 then deliver t ~now ~src ~dst msg
            else begin
              t.seq <- t.seq + 1;
              heap_push t.queue { due = now + delay; seq = t.seq; src; dst; msg }
            end
          done
        end

let pump t ~now =
  let n = ref 0 in
  let continue = ref true in
  while !continue do
    match heap_peek t.queue with
    | Some e when e.due <= now ->
        let e = heap_pop t.queue in
        incr n;
        deliver t ~now ~src:e.src ~dst:e.dst e.msg
    | _ -> continue := false
  done;
  !n

let pending t = t.queue.len
let clear t = t.queue.len <- 0
let reachable t ~src ~dst ~now = Net_fault.severed t.faults ~src ~dst ~now = None
let count_retry t = t.retried <- t.retried + 1

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped_loss = t.dropped_loss;
    dropped_partition = t.dropped_partition;
    duplicated = t.duplicated;
    retried = t.retried;
  }
