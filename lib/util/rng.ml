(* The splitmix64 state lives in 8 bytes rather than a mutable [int64]
   field: a field stores a freshly boxed int64 at every step, while the
   bytes are read and written unboxed, so a draw allocates nothing. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

(* One splitmix64 step: advance the state, then mix it into the output.
   Inlined into every draw, so the int64s stay in registers. *)
let[@inline] step t =
  let open Int64 in
  let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next_int64 t = step t

(* 62 non-negative bits of the raw stream. *)
let bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

(* The 53-bit value converts exactly either way, so this equals
   [Int64.to_float (shift_right_logical x 11) *. 0x1p-53]. *)
let float t = float_of_int (bits53 t) *. 0x1p-53

let split t = create (Int64.to_int (step t))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
