type scenario =
  | Uniform_shards
  | Zipfian_shards of float
  | Hot_shard of { shard : int; pct : int }

let scenario_to_string = function
  | Uniform_shards -> "uniform"
  | Zipfian_shards s -> Printf.sprintf "zipf(%.2f)" s
  | Hot_shard { shard; pct } -> Printf.sprintf "hot(%d:%d%%)" shard pct

let scenario_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "uniform" -> Some Uniform_shards
  | "zipf" | "zipfian" -> Some (Zipfian_shards 1.2)
  | "hot" | "hot-shard" -> Some (Hot_shard { shard = 0; pct = 80 })
  | _ -> None

type shard_picker = Uniform_pick | Zipf_pick of Zipf.t | Hot_pick of { shard : int; pct : int }
type row_sampler = Uniform_rows | Zipf_rows of Zipf.t array (* one per shard *)

type t = {
  shards : int;
  records : int;
  rows : row_sampler;
  picker : shard_picker;
}

let local_records ~shards ~records ~sid =
  Shard_group.local_records ~shards ~records ~sid

let create ?(row = Access.Uniform) ~shards schema scenario =
  if shards < 1 then invalid_arg "Shard_router.create: need at least one shard";
  let records = Schema.records schema in
  let picker =
    match scenario with
    | Uniform_shards -> Uniform_pick
    | Zipfian_shards s -> Zipf_pick (Zipf.create ~n:shards ~s)
    | Hot_shard { shard; pct } ->
        if shard < 0 || shard >= shards then
          invalid_arg "Shard_router.create: hot shard out of range";
        if pct < 0 || pct > 100 then invalid_arg "Shard_router.create: pct out of range";
        Hot_pick { shard; pct }
  in
  let rows =
    match row with
    | Access.Uniform -> Uniform_rows
    | Access.Zipfian s ->
        Zipf_rows
          (Array.init shards (fun sid ->
               Zipf.create ~n:(max 1 (local_records ~shards ~records ~sid)) ~s))
  in
  { shards; records; rows; picker }

let local_count t ~sid = local_records ~shards:t.shards ~records:t.records ~sid

let pick_shard t rng =
  match t.picker with
  | Uniform_pick -> Rng.int rng t.shards
  | Zipf_pick z -> Zipf.sample z rng
  | Hot_pick { shard; pct } ->
      if Rng.int rng 100 < pct then shard
      else if t.shards = 1 then 0
      else begin
        (* Cold traffic spreads uniformly over the other shards. *)
        let other = Rng.int rng (t.shards - 1) in
        if other >= shard then other + 1 else other
      end

let sample_on t rng ~sid =
  let count = max 1 (local_count t ~sid) in
  let local =
    match t.rows with
    | Uniform_rows -> Rng.int rng count
    | Zipf_rows zs -> Zipf.sample zs.(sid) rng
  in
  (local * t.shards) + sid

let sample t rng =
  let sid = pick_shard t rng in
  sample_on t rng ~sid
