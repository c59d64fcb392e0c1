(* [current_cts]/[previous_cts] stamp the commit timestamps of the
   creators of [current]/[previous] (Hekaton-style), so the interval of
   a displaced version never needs the commit log. The previous
   version's closer is the current creator: [current_cts] is also its
   closing stamp. The record id and the record size are read from the
   current version rather than kept in two more fields. *)
type t = {
  mutable toggle : bool;
  mutable current : Version.t;
  mutable previous : Version.t option;
  mutable current_cts : Timestamp.t;
  mutable previous_cts : Timestamp.t;
}

type update_result =
  | Kept
  | Relocated of { version : Version.t; lo : Timestamp.t; hi : Timestamp.t }

let create ~rid ~bytes ~payload ~vs ~vs_time =
  let current =
    Version.make ~rid ~vs ~ve:Timestamp.infinity ~vs_time ~ve_time:max_int ~bytes ~payload
  in
  {
    toggle = false;
    current;
    previous = None;
    current_cts = (if vs = 0 then 0 else Timestamp.infinity);
    previous_cts = Timestamp.infinity;
  }

let rid t = t.current.Version.rid
let toggle t = t.toggle
let current t = t.current
let previous t = t.previous
let current_cts t = t.current_cts
let previous_cts t = t.previous_cts
let stamp t ~tid ~cts = if t.current.Version.vs = tid then t.current_cts <- cts

let close v ~ve ~ve_time =
  Version.make ~rid:v.Version.rid ~vs:v.Version.vs ~ve ~vs_time:v.Version.vs_time ~ve_time
    ~bytes:v.Version.bytes ~payload:v.Version.payload

let update t ~vs ~vs_time ~payload ~bytes =
  if vs < t.current.Version.vs then invalid_arg "Siro.update: non-monotone writer";
  if vs = t.current.Version.vs then begin
    (* Same transaction updating its own record again: overwrite in
       place; visibility-wise only its final value exists. *)
    t.current <-
      Version.make ~rid:(rid t) ~vs ~ve:Timestamp.infinity ~vs_time ~ve_time:max_int ~bytes
        ~payload;
    Kept
  end
  else begin
  (* The displaced version was created at [previous_cts] and closed by
     the current creator, at [current_cts]. *)
  let result =
    match t.previous with
    | Some version -> Relocated { version; lo = t.previous_cts; hi = t.current_cts }
    | None -> Kept
  in
  t.previous <- Some (close t.current ~ve:vs ~ve_time:vs_time);
  t.previous_cts <- t.current_cts;
  t.current <-
    Version.make ~rid:(rid t) ~vs ~ve:Timestamp.infinity ~vs_time ~ve_time:max_int ~bytes
      ~payload;
  t.current_cts <- Timestamp.infinity;
  t.toggle <- not t.toggle;
  result
  end

let abort_undo t ~t_aborted =
  if t.current.Version.vs = t_aborted then begin
    match t.previous with
    | Some prev ->
        (* Reopen the predecessor's visibility: it is the most recently
           committed version, so it becomes current again. *)
        t.current <- close prev ~ve:Timestamp.infinity ~ve_time:max_int;
        t.current_cts <- t.previous_cts;
        t.previous <- None;
        t.previous_cts <- Timestamp.infinity;
        t.toggle <- not t.toggle
    | None -> invalid_arg "Siro.abort_undo: no predecessor to restore"
  end

let visible view v = Read_view.snapshot_read view ~vs:v.Version.vs ~ve:v.Version.ve

(* A visible previous version is returned in the option the slot
   already holds. *)
let read_inrow t view =
  if visible view t.current then Some t.current
  else match t.previous with Some p as prev when visible view p -> prev | Some _ | None -> None

let inrow_bytes t = 2 * t.current.Version.bytes
