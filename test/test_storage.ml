(* Tests for repro_storage: lru, pages, heap splits, buffer pool, wal. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Lru *)

let test_lru_hit_miss () =
  let l = Lru.create ~capacity:2 in
  check_bool "first is miss" true (Lru.touch l 1 = `Miss None);
  check_bool "second is miss" true (Lru.touch l 2 = `Miss None);
  check_bool "hit" true (Lru.touch l 1 = `Hit);
  (* 2 is now LRU; inserting 3 evicts it. *)
  check_bool "evicts lru" true (Lru.touch l 3 = `Miss (Some 2));
  check_bool "evicted gone" false (Lru.mem l 2);
  check_bool "recent kept" true (Lru.mem l 1)

let test_lru_remove_clear () =
  let l = Lru.create ~capacity:4 in
  List.iter (fun k -> ignore (Lru.touch l k)) [ 1; 2; 3 ];
  Lru.remove l 2;
  check_int "size after remove" 2 (Lru.size l);
  Lru.remove l 99 (* absent: no-op *);
  Lru.clear l;
  check_int "cleared" 0 (Lru.size l)

let qcheck_lru_capacity_respected =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:300
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(0 -- 100) (int_bound 20)))
    (fun (cap, keys) ->
      let l = Lru.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Lru.touch l k);
          Lru.size l <= cap)
        keys)

type lru_op = Touch of int | Remove of int | Clear

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun k -> Touch k) (int_range (-4) 24));
        (3, map (fun k -> Remove k) (int_range (-4) 24));
        (1, return Clear);
      ])

let print_lru_op = function
  | Touch k -> Printf.sprintf "touch %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

(* The array LRU against the list LRU it replaced: every step returns
   the same hit or eviction, and size and membership agree after it. *)
let qcheck_lru_matches_reference =
  QCheck.Test.make ~name:"lru = list reference" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map print_lru_op ops)))
       QCheck.Gen.(pair (frequency [ (1, return 1); (4, int_range 1 10) ]) (list_size (0 -- 200) lru_op_gen)))
    (fun (capacity, ops) ->
      let l = Lru.create ~capacity and r = Ref_bookkeeping.Lru.create ~capacity in
      List.for_all
        (fun op ->
          let same_step =
            match op with
            | Touch k -> Lru.touch l k = Ref_bookkeeping.Lru.touch r k
            | Remove k ->
                Lru.remove l k;
                Ref_bookkeeping.Lru.remove r k;
                true
            | Clear ->
                Lru.clear l;
                Ref_bookkeeping.Lru.clear r;
                true
          in
          same_step
          && Lru.size l = Ref_bookkeeping.Lru.size r
          && List.for_all
               (fun k -> Lru.mem l k = Ref_bookkeeping.Lru.mem r k)
               (List.init 29 (fun i -> i - 4)))
        ops)

(* -------------------------------------------------------------------- *)
(* Page *)

let test_page_accounting () =
  let p = Page.create ~id:0 ~cap_bytes:1000 in
  Page.add_bytes p 600;
  check_int "free" 400 (Page.free_bytes p);
  check_bool "not overflowed" false (Page.overflowed p);
  Page.add_bytes p 600;
  check_bool "overflowed" true (Page.overflowed p);
  Page.remove_bytes p 300;
  check_int "used" 900 p.Page.used_bytes;
  Alcotest.check_raises "remove too much" (Invalid_argument "Page.remove_bytes: bad amount")
    (fun () -> Page.remove_bytes p 10_000)

(* -------------------------------------------------------------------- *)
(* Heap *)

let mk_heap ?(page_bytes = 1000) ?(slot_bytes = 100) ?(records = 20) ?(fill_factor = 0.5) () =
  Heap.create ~page_bytes ~slot_bytes ~records ~fill_factor ~wal:(Wal.create ())

let test_heap_layout () =
  let h = mk_heap () in
  (* fill factor 0.5 -> 5 records per 1000-byte page -> 4 pages. *)
  check_int "pages" 4 (Heap.page_count h);
  check_int "records" 20 (Heap.record_count h);
  check_int "total bytes" 2000 (Heap.total_bytes h);
  check_int "no version bytes" 0 (Heap.version_bytes h)

let test_heap_version_growth_splits () =
  let h = mk_heap () in
  let page0 = Heap.page_of h ~rid:0 in
  (* Page 0 holds rids 0..4 at 500/1000 bytes. Blow it up. *)
  check_bool "fits" true (Heap.add_version_bytes h ~rid:0 ~bytes:400 = `Fits);
  check_bool "split on overflow" true (Heap.add_version_bytes h ~rid:1 ~bytes:200 = `Split);
  check_int "one split" 1 (Heap.splits h);
  check_bool "page count grew" true (Heap.page_count h > 4);
  check_bool "no page overflows after split" true (not (Page.overflowed page0));
  check_int "version bytes tracked" 600 (Heap.version_bytes h)

let test_heap_vacuum () =
  let h = mk_heap () in
  ignore (Heap.add_version_bytes h ~rid:3 ~bytes:300);
  Heap.remove_version_bytes h ~rid:3 ~bytes:200;
  check_int "after vacuum" 100 (Heap.version_bytes h);
  check_int "per-rid" 100 (Heap.rid_version_bytes h ~rid:3);
  Alcotest.check_raises "reclaim too much"
    (Invalid_argument "Heap.remove_version_bytes: more than held") (fun () ->
      Heap.remove_version_bytes h ~rid:3 ~bytes:500)

let test_heap_split_preserves_membership () =
  let h = mk_heap () in
  (* Force several splits, then every rid must still resolve to a page
     that accounts for it. *)
  for rid = 0 to 19 do
    ignore (Heap.add_version_bytes h ~rid ~bytes:450)
  done;
  check_bool "splits happened" true (Heap.splits h > 0);
  for rid = 0 to 19 do
    let p = Heap.page_of h ~rid in
    check_bool "page known" true (p.Page.id < Heap.page_count h)
  done;
  (* Byte conservation: slots + versions = total. *)
  check_int "byte conservation" (2000 + Heap.version_bytes h) (Heap.total_bytes h)

let test_heap_split_generates_redo () =
  let wal = Wal.create () in
  let h = Heap.create ~page_bytes:1000 ~slot_bytes:100 ~records:20 ~fill_factor:0.5 ~wal in
  for rid = 0 to 4 do
    ignore (Heap.add_version_bytes h ~rid ~bytes:150)
  done;
  check_bool "split occurred" true (Heap.splits h > 0);
  check_bool "redo produced" true (Wal.total_bytes wal > 0)

(* The per-record walk the engines' latch-wait sample did before
   [Heap.latch_wait]: every distinct page of a record, once. *)
let latch_wait_reference h =
  let acc = ref 0 in
  let seen = Hashtbl.create 64 in
  for rid = 0 to Heap.record_count h - 1 do
    let page = Heap.page_of h ~rid in
    if not (Hashtbl.mem seen page.Page.id) then begin
      Hashtbl.replace seen page.Page.id ();
      acc := !acc + Resource.wait_time page.Page.latch
    end
  done;
  !acc

(* In-row version growth splits pages while readers and writers queue
   on the latches of the pages their records live on. *)
let qcheck_heap_latch_wait =
  QCheck.Test.make ~name:"latch_wait = per-record reference on split-heavy heaps" ~count:300
    QCheck.(
      pair (int_range 1 60)
        (list_of_size Gen.(0 -- 200) (triple bool (int_bound 59) (int_bound 400))))
    (fun (records, ops) ->
      let h = mk_heap ~records () in
      let now = ref 0 in
      List.for_all
        (fun (grow, rid, n) ->
          let rid = rid mod records in
          (if grow then ignore (Heap.add_version_bytes h ~rid ~bytes:n)
           else
             let page = Heap.page_of h ~rid in
             now := !now + (n / 4);
             ignore (Resource.acquire page.Page.latch ~now:!now ~hold:n));
          Heap.latch_wait h = latch_wait_reference h)
        ops)

(* -------------------------------------------------------------------- *)
(* Buffer pool *)

let test_buffer_pool () =
  let bp = Buffer_pool.create ~capacity_blocks:2 in
  check_bool "cold miss" true (Buffer_pool.access bp ~block:1 = `Miss);
  check_bool "warm hit" true (Buffer_pool.access bp ~block:1 = `Hit);
  ignore (Buffer_pool.access bp ~block:2);
  ignore (Buffer_pool.access bp ~block:3);
  (* 1 was LRU after touching 2 and 3. *)
  check_bool "evicted" true (Buffer_pool.access bp ~block:1 = `Miss);
  check_int "hits" 1 (Buffer_pool.hits bp);
  check_int "misses" 4 (Buffer_pool.misses bp);
  Buffer_pool.evict bp ~block:3;
  check_bool "explicit evict" true (Buffer_pool.access bp ~block:3 = `Miss);
  Buffer_pool.clear bp;
  check_int "cleared" 0 (Buffer_pool.resident bp)

(* -------------------------------------------------------------------- *)
(* Wal *)

let test_wal () =
  let w = Wal.create () in
  Wal.append w ~bytes:100 ();
  Wal.append w ~bytes:50 ();
  check_int "bytes" 150 (Wal.total_bytes w);
  check_int "records" 2 (Wal.records w)

let suites =
  [
    ( "storage.lru",
      [
        Alcotest.test_case "hit/miss/evict" `Quick test_lru_hit_miss;
        Alcotest.test_case "remove/clear" `Quick test_lru_remove_clear;
        QCheck_alcotest.to_alcotest qcheck_lru_capacity_respected;
        QCheck_alcotest.to_alcotest qcheck_lru_matches_reference;
      ] );
    ("storage.page", [ Alcotest.test_case "byte accounting" `Quick test_page_accounting ]);
    ( "storage.heap",
      [
        Alcotest.test_case "initial layout" `Quick test_heap_layout;
        Alcotest.test_case "version growth splits pages" `Quick test_heap_version_growth_splits;
        Alcotest.test_case "vacuum reclaims" `Quick test_heap_vacuum;
        Alcotest.test_case "split preserves membership" `Quick test_heap_split_preserves_membership;
        Alcotest.test_case "split generates redo" `Quick test_heap_split_generates_redo;
        QCheck_alcotest.to_alcotest qcheck_heap_latch_wait;
      ] );
    ("storage.buffer_pool", [ Alcotest.test_case "lru semantics" `Quick test_buffer_pool ]);
    ("storage.wal", [ Alcotest.test_case "accounting" `Quick test_wal ]);
  ]
