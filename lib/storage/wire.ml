(* ------------------------------------------------------------------ *)
(* Writing *)

type out = { mutable b : Bytes.t; mutable len : int }

let out () = { b = Bytes.create 256; len = 0 }
let contents o = Bytes.sub_string o.b 0 o.len

let grow o n =
  let cap = ref (Bytes.length o.b) in
  while !cap < o.len + n do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit o.b 0 b 0 o.len;
  o.b <- b

let reserve o n = if o.len + n > Bytes.length o.b then grow o n

let add_byte o x =
  reserve o 1;
  Bytes.unsafe_set o.b o.len (Char.unsafe_chr x);
  o.len <- o.len + 1

let add_bool o b = add_byte o (Bool.to_int b)

(* At most nine bytes: 63 bits, seven per byte. *)
let add_int o n =
  reserve o 9;
  let z = ref ((n lsl 1) lxor (n asr 62)) and i = ref o.len in
  while !z lsr 7 <> 0 do
    Bytes.unsafe_set o.b !i (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7;
    incr i
  done;
  Bytes.unsafe_set o.b !i (Char.unsafe_chr !z);
  o.len <- !i + 1

let add_str o s =
  let n = String.length s in
  add_int o n;
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.b o.len n;
  o.len <- o.len + n

let rec add_items o add = function
  | [] -> ()
  | x :: rest ->
      add o x;
      add_items o add rest

let add_list o add xs =
  add_int o (List.length xs);
  add_items o add xs

let buffer = Domain.DLS.new_key out

let sealed write x ~mask =
  let o = Domain.DLS.get buffer in
  o.len <- 0;
  write o x;
  let crc = Crc32.update_sub 0 (Bytes.unsafe_to_string o.b) 0 o.len lxor mask in
  reserve o 4;
  Bytes.set_int32_le o.b o.len (Int32.of_int crc);
  o.len <- o.len + 4;
  contents o

(* ------------------------------------------------------------------ *)
(* Reading *)

exception Malformed

type cursor = { mutable s : string; mutable lim : int; mutable pos : int }

let byte c =
  if c.pos >= c.lim then raise Malformed;
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  b

let bool c = match byte c with 0 -> false | 1 -> true | _ -> raise Malformed

(* The groups from bit [shift] on: a last byte of 0 after the first is
   overlong, and a ninth byte with its high bit set would go past bit
   62. *)
let rec varint c z shift =
  let b = byte c in
  if b < 0x80 then if b = 0 && shift > 0 then raise Malformed else z lor (b lsl shift)
  else if shift = 56 then raise Malformed
  else varint c (z lor ((b land 0x7f) lsl shift)) (shift + 7)

let int c =
  let z = varint c 0 0 in
  (z lsr 1) lxor (-(z land 1))

let count c =
  let n = int c in
  if n < 0 || n > c.lim - c.pos then raise Malformed;
  n

let str c =
  let n = count c in
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

(* Items are read with [let] in order; [tail_mod_cons] builds the list
   front to back. *)
let[@tail_mod_cons] rec items c elem n =
  if n = 0 then []
  else
    let x = elem c in
    x :: items c elem (n - 1)

let list c elem = items c elem (count c)
