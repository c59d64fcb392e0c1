(* Tests for repro_util: rng, zipf, failpoint, histogram, stats, series,
   vec, crc32. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 13 in
    check_bool "in range" true (x >= 0 && x < 13)
  done

let test_rng_int_in_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1_000 do
    let x = Rng.int_in_range rng ~lo:5 ~hi:9 in
    check_bool "in inclusive range" true (x >= 5 && x <= 9)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    check_bool "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_float_mean () =
  let rng = Rng.create 23 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  check_bool "child differs from parent continuation" true
    (Rng.next_int64 child <> Rng.next_int64 parent)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

module Ref_rng = Ref_bookkeeping.Rng

(* One draw of a kind on both generators. [split] compares the
   children's first outputs, then the parents go on. *)
let same_draw real oracle (op, bound) =
  match op with
  | 0 -> Rng.next_int64 real = Ref_rng.next_int64 oracle
  | 1 -> Rng.int real bound = Ref_rng.int oracle bound
  | 2 -> Int64.bits_of_float (Rng.float real) = Int64.bits_of_float (Ref_rng.float oracle)
  | 3 -> Rng.bits53 real = Int64.to_int (Int64.shift_right_logical (Ref_rng.next_int64 oracle) 11)
  | _ ->
      let child = Rng.split real and child' = Ref_rng.split oracle in
      List.for_all (fun _ -> Rng.next_int64 child = Ref_rng.next_int64 child') [ 1; 2; 3 ]

let qcheck_rng_matches_reference =
  QCheck.Test.make ~name:"stream = boxed reference" ~count:500
    QCheck.(
      pair int
        (list_of_size
           Gen.(1 -- 200)
           (pair (int_bound 4) (oneof [ int_range 1 10; int_range 1 max_int ]))))
    (fun (seed, ops) ->
      let real = Rng.create seed and oracle = Ref_rng.create seed in
      List.for_all (same_draw real oracle) ops)

(* -------------------------------------------------------------------- *)
(* Zipf *)

let test_zipf_bounds () =
  let rng = Rng.create 17 in
  let z = Zipf.create ~n:100 ~s:1.2 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z rng in
    check_bool "rank in range" true (k >= 0 && k < 100)
  done

let test_zipf_rank0_most_popular () =
  let rng = Rng.create 29 in
  let z = Zipf.create ~n:1000 ~s:1.1 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 100_000 do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 beats rank 10" true (counts.(0) > counts.(10));
  check_bool "rank 0 beats rank 500" true (counts.(0) > counts.(500));
  check_bool "heavy head" true (counts.(0) > 100_000 / 10)

let test_zipf_exponent_skew () =
  (* Higher exponent concentrates more mass on rank 0. *)
  let count_rank0 s =
    let rng = Rng.create 31 in
    let z = Zipf.create ~n:1000 ~s in
    let c = ref 0 in
    for _ = 1 to 50_000 do
      if Zipf.sample z rng = 0 then incr c
    done;
    !c
  in
  check_bool "1.3 skews harder than 0.8" true (count_rank0 1.3 > count_rank0 0.8)

let test_zipf_near_one_exponent () =
  (* s = 1.0 is the YCSB formula's singularity; ours must handle it. *)
  let rng = Rng.create 37 in
  let z = Zipf.create ~n:50 ~s:1.0 in
  for _ = 1 to 5_000 do
    let k = Zipf.sample z rng in
    check_bool "in range at s=1" true (k >= 0 && k < 50)
  done

let test_zipf_single_item () =
  let rng = Rng.create 41 in
  let z = Zipf.create ~n:1 ~s:2.0 in
  for _ = 1 to 100 do
    check_int "only rank" 0 (Zipf.sample z rng)
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "s=0" (Invalid_argument "Zipf.create: s must be positive") (fun () ->
      ignore (Zipf.create ~n:10 ~s:0.))

module Ref_zipf = Ref_bookkeeping.Zipf

(* The splitmix64 output function is a bijection of int64s. Inverting
   it gives a seed whose first [Rng.bits53] is a chosen value [b]: the
   low 11 output bits are free, and one choice of them makes the seed
   fit an OCaml int. *)
let unxorshift y k =
  let rec go x i = if i = 0 then x else go (Int64.logxor y (Int64.shift_right_logical x k)) (i - 1) in
  go y ((64 / k) + 1)

(* Newton's iteration for the inverse of an odd number modulo 2^64. *)
let odd_inverse c =
  let rec go x i = if i = 0 then x else go (Int64.mul x (Int64.sub 2L (Int64.mul c x))) (i - 1) in
  go c 6

let seed_drawing_first b =
  let unmix o =
    let z = unxorshift o 31 in
    let z = unxorshift (Int64.mul z (odd_inverse 0x94D049BB133111EBL)) 27 in
    unxorshift (Int64.mul z (odd_inverse 0xBF58476D1CE4E5B9L)) 30
  in
  let rec find low =
    let o = Int64.logor (Int64.shift_left (Int64.of_int b) 11) (Int64.of_int low) in
    let seed = Int64.sub (unmix o) 0x9E3779B97F4A7C15L in
    if Int64.of_int (Int64.to_int seed) = seed then Int64.to_int seed else find (low + 1)
  in
  find 0

let zipf_draws_agree ~n ~s seed =
  let z = Zipf.create ~n ~s and z' = Ref_zipf.create ~n ~s in
  let rng = Rng.create seed and rng' = Ref_rng.create seed in
  List.for_all (fun _ -> Zipf.sample z rng = Ref_zipf.sample z' rng') (List.init 50 Fun.id)

(* The first uniforms either side of rank 2's quick-accept boundary
   [kf -. x <= threshold]: the variate [x] falls as the uniform grows,
   so a bisection over the 53-bit draw finds where it crosses
   [2 -. threshold]. Each is forced as a first draw. *)
let boundary_draws z =
  let x b =
    let uniform = float_of_int b *. 0x1p-53 in
    Ref_zipf.h_integral_inverse ~s:z.Ref_zipf.s
      (z.Ref_zipf.h_integral_n +. (uniform *. (z.Ref_zipf.h_integral_x1 -. z.Ref_zipf.h_integral_n)))
  in
  let edge = 2. -. z.Ref_zipf.threshold in
  let top = (1 lsl 53) - 1 in
  if z.Ref_zipf.n < 2 || x 0 <= edge || x top > edge then []
  else
    let rec bisect lo hi =
      if hi - lo <= 1 then hi
      else
        let mid = lo + ((hi - lo) / 2) in
        if x mid > edge then bisect mid hi else bisect lo mid
    in
    let b = bisect 0 top in
    List.filter (fun b -> b >= 0 && b <= top) (List.init 9 (fun i -> b - 4 + i))

let qcheck_zipf_matches_reference =
  QCheck.Test.make ~name:"variates = closure reference" ~count:300
    QCheck.(
      make
        ~print:(fun (n, s, seed) -> Printf.sprintf "n=%d s=%h seed=%d" n s seed)
        Gen.(
          let* n = frequency [ (1, 1 -- 4); (4, 1 -- 1_000_000) ] in
          let* s =
            frequency
              [
                (1, return 1.0);
                (1, map (fun e -> 1. +. e) (float_range (-1e-7) 1e-7));
                (4, map (fun x -> 3. -. x) (float_bound_exclusive 3.));
              ]
          in
          let* seed = int in
          return (n, s, seed)))
    (fun (n, s, seed) ->
      zipf_draws_agree ~n ~s seed
      && List.for_all
           (fun b ->
             let seed = seed_drawing_first b in
             Rng.bits53 (Rng.create seed) = b && zipf_draws_agree ~n ~s seed)
           (boundary_draws (Ref_zipf.create ~n ~s)))

(* -------------------------------------------------------------------- *)
(* Allocation-free draws *)

(* Minor-heap words per call of [f] over [calls] calls. Reading the
   counter boxes its result, a few words over the whole loop. *)
let words_per_call ~calls f =
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_draws_allocate_nothing () =
  let calls = 10_000 in
  let check name f =
    let w = words_per_call ~calls f in
    if w >= 0.01 then Alcotest.failf "%s: %.3f words per call" name w
  in
  let rng = Rng.create 42 in
  let schema = { Schema.default with Schema.tables = 4; rows_per_table = 100_000 } in
  let zipf = Zipf.create ~n:100_000 ~s:0.99 in
  let access = Access.create schema (Access.Zipfian 0.99) in
  let uniform = Access.create schema Access.Uniform in
  check "Rng.int" (fun () -> ignore (Sys.opaque_identity (Rng.int rng 1000)));
  check "Rng.bits53" (fun () -> ignore (Sys.opaque_identity (Rng.bits53 rng)));
  check "Zipf.sample" (fun () -> ignore (Sys.opaque_identity (Zipf.sample zipf rng)));
  check "Access.sample zipf" (fun () -> ignore (Sys.opaque_identity (Access.sample access rng)));
  check "Access.sample uniform" (fun () ->
      ignore (Sys.opaque_identity (Access.sample uniform rng)));
  Failpoint.with_scope (fun () ->
      check "Failpoint.check unarmed" (fun () ->
          ignore (Sys.opaque_identity (Failpoint.check "wal.append"))))

(* -------------------------------------------------------------------- *)
(* Failpoint *)

let test_failpoint_arming () =
  Failpoint.with_scope (fun () ->
      check_bool "unarmed passes" true (Failpoint.check "wal.append" = `Pass);
      Failpoint.arm_fail_n "wal.append" 2;
      let got = List.init 4 (fun _ -> Failpoint.check "wal.append") in
      check_bool "fails twice, then passes" true (got = [ `Fail; `Fail; `Pass; `Pass ]);
      check_bool "other names pass" true (Failpoint.check "wal.fsync" = `Pass);
      check_int "fail count" 2 (Failpoint.fail_count "wal.append"));
  check_bool "scope exit disarms" true (Failpoint.check "wal.append" = `Pass);
  check_int "scope exit resets counts" 0 (Failpoint.fail_count "wal.append")

(* -------------------------------------------------------------------- *)
(* Histogram *)

let test_histogram_counts () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 1; 2; 5 ];
  check_int "total" 4 (Histogram.total h);
  check_int "max" 5 (Histogram.max_value h);
  check_int "le 1" 2 (Histogram.count_le h 1);
  check_int "le 4" 3 (Histogram.count_le h 4);
  check_int "le 5" 4 (Histogram.count_le h 5)

let test_histogram_cdf () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0; 1; 2; 3 ];
  let cdf = Histogram.cdf h in
  check_int "four points" 4 (List.length cdf);
  let _, last = List.nth cdf 3 in
  check_bool "cdf ends at 1" true (abs_float (last -. 1.0) < 1e-9)

let test_histogram_percentile () =
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.add h v
  done;
  check_int "p50" 50 (Histogram.percentile h 0.5);
  check_int "p99" 99 (Histogram.percentile h 0.99);
  check_int "p100" 100 (Histogram.percentile h 1.0)

let test_histogram_buckets () =
  let h = Histogram.create ~bucket_width:10 () in
  List.iter (Histogram.add h) [ 0; 9; 10; 19; 25 ];
  (* buckets: [0,9] x2, [10,19] x2, [20,29] x1; representatives 9/19/29 *)
  check_int "le 9" 2 (Histogram.count_le h 9);
  check_int "le 19" 4 (Histogram.count_le h 19);
  check_int "le 29" 5 (Histogram.count_le h 29)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "empty total" 0 (Histogram.total h);
  check_bool "empty cdf" true (Histogram.cdf h = [])

let test_histogram_add_many () =
  let h = Histogram.create () in
  Histogram.add_many h 3 ~count:7;
  check_int "bulk total" 7 (Histogram.total h);
  check_int "bulk le" 7 (Histogram.count_le h 3)

let test_histogram_tail_clamp () =
  (* Wide buckets must not report a tail beyond the largest recorded
     observation: one value 3 at width 10 lives in bucket [0,9] but
     every percentile answers 3, not the raw bucket bound 9. *)
  let h = Histogram.create ~bucket_width:10 () in
  Histogram.add h 3;
  check_int "p100 clamped" 3 (Histogram.percentile h 1.0);
  check_bool "cdf clamped" true (Histogram.cdf h = [ (3, 1.0) ]);
  Histogram.add h 25;
  check_int "top bucket clamped to max" 25 (Histogram.percentile h 1.0);
  (* The non-top bucket keeps its full upper bound. *)
  check_int "lower bucket repr" 9 (Histogram.percentile h 0.5)

let test_histogram_merge () =
  let a = Histogram.create ~bucket_width:5 () in
  let b = Histogram.create ~bucket_width:5 () in
  List.iter (Histogram.add a) [ 1; 2; 12 ];
  List.iter (Histogram.add b) [ 3; 22 ];
  let m = Histogram.merge a b in
  check_int "merged total" 5 (Histogram.total m);
  check_int "merged max" 22 (Histogram.max_value m);
  check_int "merged le 4" 3 (Histogram.count_le m 4);
  check_int "merged p100" 22 (Histogram.percentile m 1.0);
  (* Operands are untouched. *)
  check_int "a intact" 3 (Histogram.total a);
  check_int "b intact" 2 (Histogram.total b);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Histogram.merge: bucket_width mismatch") (fun () ->
      ignore (Histogram.merge a (Histogram.create ())))

let qcheck_histogram_merge_totals =
  QCheck.Test.make ~name:"histogram merge behaves like concatenation" ~count:200
    QCheck.(pair (list (int_bound 100)) (list (int_bound 100)))
    (fun (xs, ys) ->
      let a = Histogram.create ~bucket_width:3 () in
      let b = Histogram.create ~bucket_width:3 () in
      List.iter (Histogram.add a) xs;
      List.iter (Histogram.add b) ys;
      let m = Histogram.merge a b in
      let c = Histogram.create ~bucket_width:3 () in
      List.iter (Histogram.add c) (xs @ ys);
      Histogram.total m = Histogram.total c
      && Histogram.max_value m = Histogram.max_value c
      && Histogram.cdf m = Histogram.cdf c)

(* -------------------------------------------------------------------- *)
(* Stats *)

let feq a b = abs_float (a -. b) < 1e-9

let test_stats_mean () =
  check_bool "mean" true (feq (Stats.mean [ 1.; 2.; 3. ]) 2.);
  check_bool "empty mean" true (feq (Stats.mean []) 0.)

let test_stats_stddev () =
  check_bool "constant" true (feq (Stats.stddev [ 4.; 4.; 4. ]) 0.);
  check_bool "spread" true (feq (Stats.stddev [ 1.; 3. ]) 1.)

let test_stats_percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  check_bool "p50 = 3" true (feq (Stats.percentile xs 0.5) 3.);
  check_bool "p100 = 5" true (feq (Stats.percentile xs 1.0) 5.)

let test_stats_min_max () =
  check_bool "min" true (feq (Stats.minimum [ 3.; 1.; 2. ]) 1.);
  check_bool "max" true (feq (Stats.maximum [ 3.; 1.; 2. ]) 3.)

let test_stats_percentiles_batch () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  (match Stats.percentiles xs [ 0.5; 1.0; 0.0 ] with
  | [ p50; p100; p0 ] ->
      check_bool "p50" true (feq p50 3.);
      check_bool "p100" true (feq p100 5.);
      check_bool "p0" true (feq p0 1.)
  | other -> Alcotest.failf "expected 3 results, got %d" (List.length other));
  check_bool "empty fractions" true (Stats.percentiles xs [] = []);
  (* Batch answers must agree with one-at-a-time answers. *)
  List.iter
    (fun p ->
      check_bool "agrees with percentile" true
        (feq (Stats.percentile xs p) (List.hd (Stats.percentiles xs [ p ]))))
    [ 0.0; 0.25; 0.5; 0.9; 1.0 ]

let test_stats_nan_safe () =
  (* Float.compare sorts NaNs first: a poisoned sample yields the NaN
     at p0 but leaves every real rank deterministic — crucially the
     result never depends on the input order (polymorphic compare on
     NaN is order-dependent). *)
  let a = [ Float.nan; 2.; 1.; 3. ] and b = [ 3.; 1.; 2.; Float.nan ] in
  check_bool "NaN sorts first" true (Float.is_nan (Stats.percentile a 0.0));
  check_bool "real ranks unaffected" true (feq (Stats.percentile a 1.0) 3.);
  check_bool "order-independent p50" true
    (feq (Stats.percentile a 0.5) (Stats.percentile b 0.5));
  check_bool "order-independent min" true
    (Float.compare (Stats.minimum a) (Stats.minimum b) = 0);
  check_bool "max ignores position" true (feq (Stats.maximum b) 3.)

(* -------------------------------------------------------------------- *)
(* Series *)

let test_series_order () =
  let s = Series.create () in
  Series.add s ~time:0. ~value:1.;
  Series.add s ~time:1. ~value:2.;
  check_bool "points" true (Series.to_list s = [ (0., 1.); (1., 2.) ]);
  check_bool "last" true (Series.last s = Some (1., 2.))

let test_rate_buckets () =
  let r = Series.Rate.create ~bucket:1.0 () in
  Series.Rate.incr r ~time:0.1;
  Series.Rate.incr r ~time:0.9;
  Series.Rate.incr r ~time:1.5;
  check_int "total" 3 (Series.Rate.total r);
  match Series.Rate.per_second r with
  | [ (_, r0); (_, r1) ] ->
      check_bool "bucket 0 rate 2" true (feq r0 2.);
      check_bool "bucket 1 rate 1" true (feq r1 1.)
  | other -> Alcotest.failf "expected 2 buckets, got %d" (List.length other)

let test_rate_empty_windows () =
  let r = Series.Rate.create () in
  Series.Rate.incr r ~time:3.5;
  check_int "windows up to last event" 4 (List.length (Series.Rate.per_second r))

(* -------------------------------------------------------------------- *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get 57" 57 (Vec.get v 57);
  Vec.set v 57 (-1);
  check_int "set" (-1) (Vec.get v 57)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check_bool "pop 3" true (Vec.pop v = Some 3);
  check_int "len 2" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  check_bool "empty pop" true (Vec.pop v = None)

let test_vec_filter_in_place () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens kept in order" [ 2; 4; 6 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1))

let test_vec_drop_front () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.drop_front v 2;
  Alcotest.(check (list int)) "prefix dropped" [ 3; 4; 5 ] (Vec.to_list v);
  Vec.drop_front v 0;
  check_int "zero is a no-op" 3 (Vec.length v);
  Vec.drop_front v 3;
  check_int "can drop all" 0 (Vec.length v);
  Alcotest.check_raises "too many" (Invalid_argument "Vec.drop_front") (fun () ->
      Vec.drop_front v 1)

let test_vec_fold_exists () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check_int "fold sum" 6 (Vec.fold_left ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = 9) v)

type vec_op = Push | Pop | Drop_front of int | Filter of int | Set of int * int

let show_vec_op = function
  | Push -> "push"
  | Pop -> "pop"
  | Drop_front k -> Printf.sprintf "drop_front(%d)" k
  | Filter m -> Printf.sprintf "filter(mod %d)" m
  | Set (i, x) -> Printf.sprintf "set(%d,%d)" i x

(* Every slot of the backing array holds an element the vector holds,
   after any sequence of operations: nothing it dropped stays
   reachable. Elements are boxed, so "holds" is physical. *)
let qcheck_vec_keeps_only_its_elements =
  QCheck.Test.make ~name:"vec backing array holds only its elements" ~count:300
    QCheck.(
      make
        ~print:Print.(list show_vec_op)
        Gen.(
          list_size (0 -- 60)
            (frequency
               [
                 (5, return Push);
                 (2, return Pop);
                 (1, map (fun k -> Drop_front k) (0 -- 3));
                 (1, map (fun m -> Filter m) (2 -- 3));
                 (1, map2 (fun i x -> Set (i, x)) (0 -- 3) nat);
               ])))
    (fun ops ->
      let v = Vec.create () and next = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Push ->
              incr next;
              Vec.push v (ref !next)
          | Pop -> ignore (Vec.pop v)
          | Drop_front k -> Vec.drop_front v (min k (Vec.length v))
          | Filter m -> Vec.filter_in_place (fun r -> !r mod m <> 0) v
          | Set (i, x) -> if i < Vec.length v then Vec.set v i (ref x));
          let held = Vec.to_list v in
          let data : int ref array = Obj.obj (Obj.field (Obj.repr v) 0) in
          Array.for_all (fun r -> List.memq r held) data)
        ops)

(* -------------------------------------------------------------------- *)

let qcheck_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 1000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      Histogram.percentile h 0.3 <= Histogram.percentile h 0.9)

let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* -------------------------------------------------------------------- *)
(* Crc32: the sliced loop against the byte-at-a-time one it replaced *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let crc_bytewise crc s off len =
  let crc = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    crc := crc_table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let test_crc_check_value () =
  check_int "123456789" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  Alcotest.check_raises "range outside the string" (Invalid_argument "Crc32.update_sub")
    (fun () -> ignore (Crc32.update_sub 0 "abc" 2 2))

(* A string, a start offset 0-7 into it and a length, plus a split point
   for chaining; [long] adds about 400 KB, a checkpoint frame's size. *)
let crc_case ~long =
  QCheck.Gen.(
    let* off = 0 -- 7 in
    let* len = if long then 399_000 -- 401_000 else 0 -- 64 in
    let* s = string_size ~gen:char (return (off + len + 3)) in
    let* k = 0 -- len in
    let* seed = int in
    return (s, off, len, k, seed))

let crc_agrees (s, off, len, k, seed) =
  let crc = seed land 0xffffffff in
  Crc32.update_sub crc s off len = crc_bytewise crc s off len
  && Crc32.update_sub (Crc32.update_sub crc s off k) s (off + k) (len - k)
     = Crc32.update_sub crc s off len
  && Crc32.update (Crc32.string (String.sub s off k)) (String.sub s (off + k) (len - k))
     = Crc32.string (String.sub s off len)

let show_crc_case (s, off, len, k, seed) =
  Printf.sprintf "len(s)=%d off=%d len=%d split=%d seed=%d s=%S" (String.length s) off len k seed
    (if String.length s <= 80 then s else String.sub s 0 80 ^ "...")

let qcheck_crc_short =
  QCheck.Test.make ~name:"0-64 B: sliced = bytewise" ~count:3000
    (QCheck.make ~print:show_crc_case (crc_case ~long:false))
    crc_agrees

let qcheck_crc_long =
  QCheck.Test.make ~name:"400 KB: sliced = bytewise" ~count:8
    (QCheck.make ~print:show_crc_case (crc_case ~long:true))
    crc_agrees

let suites =
  [
    ( "util.crc32",
      [
        Alcotest.test_case "check value" `Quick test_crc_check_value;
        QCheck_alcotest.to_alcotest qcheck_crc_short;
        QCheck_alcotest.to_alcotest qcheck_crc_long;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
        Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "float mean" `Quick test_rng_float_mean;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        QCheck_alcotest.to_alcotest qcheck_rng_matches_reference;
        Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
      ] );
    ( "util.zipf",
      [
        Alcotest.test_case "bounds" `Quick test_zipf_bounds;
        Alcotest.test_case "rank 0 most popular" `Quick test_zipf_rank0_most_popular;
        Alcotest.test_case "exponent increases skew" `Quick test_zipf_exponent_skew;
        Alcotest.test_case "s = 1.0 singularity" `Quick test_zipf_near_one_exponent;
        Alcotest.test_case "single item" `Quick test_zipf_single_item;
        Alcotest.test_case "invalid args" `Quick test_zipf_invalid;
        QCheck_alcotest.to_alcotest qcheck_zipf_matches_reference;
      ] );
    ( "util.failpoint",
      [
        Alcotest.test_case "armed point fails n times" `Quick test_failpoint_arming;
      ] );
    ( "util.histogram",
      [
        Alcotest.test_case "counts" `Quick test_histogram_counts;
        Alcotest.test_case "cdf" `Quick test_histogram_cdf;
        Alcotest.test_case "percentile" `Quick test_histogram_percentile;
        Alcotest.test_case "bucket widths" `Quick test_histogram_buckets;
        Alcotest.test_case "empty" `Quick test_histogram_empty;
        Alcotest.test_case "add_many" `Quick test_histogram_add_many;
        Alcotest.test_case "tail clamp" `Quick test_histogram_tail_clamp;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        QCheck_alcotest.to_alcotest qcheck_histogram_percentile_monotone;
        QCheck_alcotest.to_alcotest qcheck_histogram_merge_totals;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentiles batch" `Quick test_stats_percentiles_batch;
        Alcotest.test_case "NaN safety" `Quick test_stats_nan_safe;
        Alcotest.test_case "min/max" `Quick test_stats_min_max;
      ] );
    ( "util.series",
      [
        Alcotest.test_case "ordered points" `Quick test_series_order;
        Alcotest.test_case "rate buckets" `Quick test_rate_buckets;
        Alcotest.test_case "empty windows" `Quick test_rate_empty_windows;
      ] );
    ( "util.vec",
      [
        Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
        Alcotest.test_case "pop" `Quick test_vec_pop;
        Alcotest.test_case "filter_in_place" `Quick test_vec_filter_in_place;
        Alcotest.test_case "drop_front" `Quick test_vec_drop_front;
        Alcotest.test_case "bounds checks" `Quick test_vec_bounds;
        Alcotest.test_case "fold/exists" `Quick test_vec_fold_exists;
        QCheck_alcotest.to_alcotest qcheck_vec_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_vec_keeps_only_its_elements;
      ] );
  ]
