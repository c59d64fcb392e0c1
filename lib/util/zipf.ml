(* Rejection-inversion sampling for the Zipf distribution, after
   W. Hörmann and G. Derflinger, "Rejection-inversion to generate variates
   from monotone discrete distributions" (1996). The [helper1]/[helper2]
   functions are numerically stable forms of log1p(x)/x and expm1(x)/x. *)

type t = {
  n : int;
  s : float;
  h_integral_x1 : float;
  h_integral_n : float;
  threshold : float;
}

let helper1 x = if Float.abs x > 1e-8 then Float.log1p x /. x else 1. -. (x /. 2.) +. (x *. x /. 3.)
let helper2 x = if Float.abs x > 1e-8 then Float.expm1 x /. x else 1. +. (x /. 2.) +. (x *. x /. 6.)

let h_integral ~s x =
  let log_x = Float.log x in
  helper2 ((1. -. s) *. log_x) *. log_x

let h ~s x = Float.exp (-.s *. Float.log x)

let h_integral_inverse ~s x =
  let t = x *. (1. -. s) in
  let t = if t < -1. then -1. else t in
  Float.exp (helper1 t *. x)

let create ~n ~s =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if s <= 0. then invalid_arg "Zipf.create: s must be positive";
  {
    n;
    s;
    h_integral_x1 = h_integral ~s 1.5 -. 1.;
    h_integral_n = h_integral ~s (float_of_int n +. 0.5);
    threshold = 2. -. h_integral_inverse ~s (h_integral ~s 2.5 -. h ~s 2.);
  }

let sample t rng =
  let s = t.s in
  let rec loop () =
    let u = t.h_integral_n +. (Rng.float rng *. (t.h_integral_x1 -. t.h_integral_n)) in
    let x = h_integral_inverse ~s u in
    let k = int_of_float (Float.round x) in
    let k = if k < 1 then 1 else if k > t.n then t.n else k in
    let kf = float_of_int k in
    if kf -. x <= t.threshold then k
    else if u >= h_integral ~s (kf +. 0.5) -. h ~s kf then k
    else loop ()
  in
  loop () - 1
