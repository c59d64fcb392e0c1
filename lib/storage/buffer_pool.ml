type t = { name : string; lru : Lru.t; mutable hits : int; mutable misses : int }

let create ~name ~capacity_blocks = { name; lru = Lru.create ~capacity:capacity_blocks; hits = 0; misses = 0 }
let name t = t.name

let access t ~block =
  if Lru.access t.lru block then begin
    t.hits <- t.hits + 1;
    `Hit
  end
  else begin
    t.misses <- t.misses + 1;
    `Miss
  end

let evict t ~block = Lru.remove t.lru block
let clear t = Lru.clear t.lru
let hits t = t.hits
let misses t = t.misses
let resident t = Lru.size t.lru
