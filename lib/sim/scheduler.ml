type outcome = Sleep_until of Clock.time | Finished

type proc = {
  name : string;
  seq : int; (* registration order; deterministic tie-break *)
  mutable at : Clock.time;
  step : Clock.time -> outcome;
}

(* Binary min-heap on (at, seq). *)
type t = {
  mutable heap : proc array;
  mutable len : int;
  mutable next_seq : int;
  mutable now : Clock.time;
  mutable probe : (name:string -> now:Clock.time -> unit) option;
}

let create () = { heap = [||]; len = 0; next_seq = 0; now = 0; probe = None }

let set_probe t f = t.probe <- Some f

let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && less t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t p =
  if t.len = Array.length t.heap then begin
    let cap = max 8 (t.len * 2) in
    let heap = Array.make cap p in
    Array.blit t.heap 0 heap 0 t.len;
    t.heap <- heap
  end;
  t.heap.(t.len) <- p;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  assert (t.len > 0);
  let top = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.heap.(0) <- t.heap.(t.len);
    sift_down t 0
  end;
  top

let spawn t ~name ~at step =
  let p = { name; seq = t.next_seq; at; step } in
  t.next_seq <- t.next_seq + 1;
  push t p

let run t ~until =
  let rec loop () =
    if t.len = 0 then t.now
    else if t.heap.(0).at > until then t.now
    else begin
      let p = pop t in
      t.now <- max t.now p.at;
      (match t.probe with Some f -> f ~name:p.name ~now:p.at | None -> ());
      Metrics.bump "scheduler.dispatches";
      (match p.step p.at with
      | Finished ->
          if Trace.on () then Trace.span Trace.Scheduler p.name ~start:p.at ~dur:0 []
      | Sleep_until next ->
          (* Enforce progress: a process may not reschedule in its past. *)
          let next = if next > p.at then next else p.at + 1 in
          (* The dispatch span runs from the wake-up to the next wake-up
             the process asked for: in this discrete-event model a
             process is "busy" exactly until it would next act. *)
          if Trace.on () then Trace.span Trace.Scheduler p.name ~start:p.at ~dur:(next - p.at) [];
          p.at <- next;
          push t p);
      loop ()
    end
  in
  loop ()

let now t = t.now
