(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: eight bytes
   per step through eight 256-entry tables, where [tk.(n)] is the CRC
   register after byte [n] followed by [k] zero bytes. The tables are
   built eagerly: a [lazy] forced from several domains at once is a race
   in OCaml 5. *)

let t0 =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let next t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xff)) t
let t1 = next t0
let t2 = next t1
let t3 = next t2
let t4 = next t3
let t5 = next t4
let t6 = next t5
let t7 = next t6

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32.update_sub";
  let crc = ref (crc lxor 0xffffffff) in
  let i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let lo = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xffffffff) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xffffffff in
    crc :=
      Array.unsafe_get t7 (lo land 0xff)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xff)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xff)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xff)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xff)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xff)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    crc :=
      Array.unsafe_get t0 ((!crc lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let update crc s = update_sub crc s 0 (String.length s)
let string s = update 0 s
