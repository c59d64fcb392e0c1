type t = {
  mutable segments : Segment.t Vec.t;
  mutable live_bytes : int;
  mutable hardened_count : int;
  delays : (Vclass.t * Clock.time) Vec.t;
}

let create () =
  { segments = Vec.create (); live_bytes = 0; hardened_count = 0; delays = Vec.create () }

let harden t seg ~now =
  if Segment.is_empty seg then invalid_arg "Version_store.harden: empty segment";
  Segment.harden seg ~now;
  Vec.push t.segments seg;
  t.live_bytes <- t.live_bytes + seg.Segment.used_bytes;
  t.hardened_count <- t.hardened_count + 1

let cut t seg ~now =
  if seg.Segment.state <> Segment.Hardened then
    invalid_arg "Version_store.cut: segment not hardened";
  Segment.mark_cut seg ~now;
  t.live_bytes <- t.live_bytes - seg.Segment.used_bytes;
  (match Segment.cut_delay seg with
  | Some d -> Vec.push t.delays (seg.Segment.cls, d)
  | None -> assert false);
  Vec.filter_in_place (fun s -> s.Segment.state = Segment.Hardened) t.segments

let iter_hardened t f =
  Vec.iter (fun s -> if s.Segment.state = Segment.Hardened then f s) t.segments

let live_bytes t = t.live_bytes
let hardened_count t = t.hardened_count

let resident_count t =
  Vec.fold_left (fun acc s -> if s.Segment.state = Segment.Hardened then acc + 1 else acc) 0 t.segments

let cut_delays t = Vec.to_list t.delays

let clear t =
  t.segments <- Vec.create ();
  t.live_bytes <- 0
