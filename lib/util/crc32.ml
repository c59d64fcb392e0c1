(* CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. The table
   is built eagerly: a [lazy] forced from several domains at once is a
   race in OCaml 5. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Crc32.update_sub";
  let crc = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let update crc s = update_sub crc s 0 (String.length s)
let string s = update 0 s
