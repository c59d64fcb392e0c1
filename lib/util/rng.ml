type t = { mutable s : int64 }

let create seed = { s = Int64.of_int seed }

let next_int64 t =
  let open Int64 in
  t.s <- add t.s 0x9E3779B97F4A7C15L;
  let z = t.s in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* 62 non-negative bits of the raw stream. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53

let split t = create (Int64.to_int (next_int64 t))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
