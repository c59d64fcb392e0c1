type t = {
  page_bytes : int;
  slot_bytes : int;
  wal : Wal.t;
  pages : Page.t Vec.t;
  page_of_rid : (int, Page.t) Hashtbl.t;
  rids_of_page : (int, int Vec.t) Hashtbl.t;
  vbytes_of_rid : (int, int) Hashtbl.t;
  mutable records : int;
  mutable splits : int;
  mutable version_bytes : int;
}

let fresh_page t =
  let page = Page.create ~id:(Vec.length t.pages) ~cap_bytes:t.page_bytes in
  Vec.push t.pages page;
  Hashtbl.replace t.rids_of_page page.Page.id (Vec.create ());
  page

let place t page rid =
  Hashtbl.replace t.page_of_rid rid page;
  Vec.push (Hashtbl.find t.rids_of_page page.Page.id) rid;
  Page.add_bytes page t.slot_bytes;
  page.Page.records <- page.Page.records + 1

let create ~page_bytes ~slot_bytes ~records ~fill_factor ~wal =
  if slot_bytes <= 0 || slot_bytes > page_bytes then invalid_arg "Heap.create: bad slot size";
  if fill_factor <= 0. || fill_factor > 1. then invalid_arg "Heap.create: bad fill factor";
  let t =
    {
      page_bytes;
      slot_bytes;
      wal;
      pages = Vec.create ();
      page_of_rid = Hashtbl.create (2 * records);
      rids_of_page = Hashtbl.create 256;
      vbytes_of_rid = Hashtbl.create (2 * records);
      records;
      splits = 0;
      version_bytes = 0;
    }
  in
  let budget = int_of_float (fill_factor *. float_of_int page_bytes) in
  let per_page = max 1 (budget / slot_bytes) in
  let current = ref (fresh_page t) in
  for rid = 0 to records - 1 do
    if (!current).Page.records >= per_page then current := fresh_page t;
    place t !current rid
  done;
  t

let page_count t = Vec.length t.pages
let record_count t = t.records
let page_of t ~rid = Hashtbl.find t.page_of_rid rid
let splits t = t.splits
let total_bytes t = Vec.fold_left (fun acc p -> acc + p.Page.used_bytes) 0 t.pages
let latch_wait t = Vec.fold_left (fun acc p -> acc + Resource.wait_time p.Page.latch) 0 t.pages
let version_bytes t = t.version_bytes
let rid_version_bytes t ~rid = Option.value ~default:0 (Hashtbl.find_opt t.vbytes_of_rid rid)

(* Split: move the upper half of the page's records (and their version
   bytes) to a fresh page; both pages' byte accounting is rebuilt. *)
let split_page t page =
  let rids = Hashtbl.find t.rids_of_page page.Page.id in
  let all = Vec.to_array rids in
  let n = Array.length all in
  let keep = n / 2 in
  if keep = 0 || keep = n then false
  else begin
    let fresh = fresh_page t in
    (* Rebuild the old page's membership with the lower half. *)
    let kept = Vec.create () in
    let moved_bytes = ref 0 in
    Array.iteri
      (fun i rid ->
        if i < keep then Vec.push kept rid
        else begin
          Hashtbl.replace t.page_of_rid rid fresh;
          Vec.push (Hashtbl.find t.rids_of_page fresh.Page.id) rid;
          fresh.Page.records <- fresh.Page.records + 1;
          let vb = rid_version_bytes t ~rid in
          moved_bytes := !moved_bytes + t.slot_bytes + vb
        end)
      all;
    Hashtbl.replace t.rids_of_page page.Page.id kept;
    page.Page.records <- keep;
    Page.remove_bytes page !moved_bytes;
    Page.add_bytes fresh !moved_bytes;
    Wal.append t.wal ~bytes:!moved_bytes ();
    t.splits <- t.splits + 1;
    true
  end

let add_version_bytes t ~rid ~bytes =
  if bytes < 0 then invalid_arg "Heap.add_version_bytes: negative";
  let page = page_of t ~rid in
  Page.add_bytes page bytes;
  Hashtbl.replace t.vbytes_of_rid rid (rid_version_bytes t ~rid + bytes);
  t.version_bytes <- t.version_bytes + bytes;
  if Page.overflowed page && split_page t page then `Split else `Fits

let remove_version_bytes t ~rid ~bytes =
  if bytes < 0 then invalid_arg "Heap.remove_version_bytes: negative";
  let held = rid_version_bytes t ~rid in
  if bytes > held then invalid_arg "Heap.remove_version_bytes: more than held";
  let page = page_of t ~rid in
  Page.remove_bytes page bytes;
  Hashtbl.replace t.vbytes_of_rid rid (held - bytes);
  t.version_bytes <- t.version_bytes - bytes
