(* Tests for repro_sim: clock, resources (latches), scheduler. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------------- *)
(* Clock *)

let test_clock_conversions () =
  check_int "us" 3_000 (Clock.us 3);
  check_int "ms" 2_000_000 (Clock.ms 2);
  check_int "seconds" 1_500_000_000 (Clock.seconds 1.5);
  check_bool "roundtrip" true (abs_float (Clock.to_seconds (Clock.seconds 2.5) -. 2.5) < 1e-9)

(* -------------------------------------------------------------------- *)
(* Resource *)

let test_resource_uncontended () =
  let r = Resource.create () in
  let done_at = Resource.acquire r ~now:100 ~hold:50 in
  check_int "grant immediately" 150 done_at;
  check_int "no waiting" 0 (Resource.wait_time r);
  check_int "busy" 50 (Resource.busy_time r)

let test_resource_queueing () =
  let r = Resource.create () in
  let a = Resource.acquire r ~now:0 ~hold:100 in
  check_int "first ends at 100" 100 a;
  (* Second arrival at t=10 must wait until 100. *)
  let b = Resource.acquire r ~now:10 ~hold:5 in
  check_int "second ends at 105" 105 b;
  check_int "waited 90" 90 (Resource.wait_time r);
  check_int "two acquisitions" 2 (Resource.acquisitions r)

let test_resource_gap () =
  let r = Resource.create () in
  ignore (Resource.acquire r ~now:0 ~hold:10);
  (* Arrival after the resource went idle: no wait. *)
  let b = Resource.acquire r ~now:50 ~hold:10 in
  check_int "no queueing after idle" 60 b;
  check_int "wait stays 0" 0 (Resource.wait_time r)

let test_resource_negative_hold () =
  let r = Resource.create () in
  Alcotest.check_raises "negative hold" (Invalid_argument "Resource.acquire: negative hold")
    (fun () -> ignore (Resource.acquire r ~now:0 ~hold:(-1)))

(* -------------------------------------------------------------------- *)
(* Scheduler *)

let test_scheduler_time_order () =
  let sched = Scheduler.create () in
  let log = ref [] in
  Scheduler.spawn sched ~name:"b" ~at:20 (fun now ->
      log := ("b", now) :: !log;
      Scheduler.Finished);
  Scheduler.spawn sched ~name:"a" ~at:10 (fun now ->
      log := ("a", now) :: !log;
      Scheduler.Finished);
  ignore (Scheduler.run sched ~until:100);
  check_bool "a before b" true (List.rev !log = [ ("a", 10); ("b", 20) ])

let test_scheduler_periodic () =
  let sched = Scheduler.create () in
  let ticks = ref 0 in
  Scheduler.spawn sched ~name:"tick" ~at:0 (fun now ->
      incr ticks;
      Scheduler.Sleep_until (now + 10));
  ignore (Scheduler.run sched ~until:95);
  (* fires at 0,10,...,90 *)
  check_int "ticks" 10 !ticks

let test_scheduler_until_boundary () =
  let sched = Scheduler.create () in
  let fired = ref false in
  Scheduler.spawn sched ~name:"late" ~at:101 (fun _ ->
      fired := true;
      Scheduler.Finished);
  ignore (Scheduler.run sched ~until:100);
  check_bool "beyond-horizon process not run" false !fired

let test_scheduler_progress_guarantee () =
  (* A process that reschedules at its own wake time must still make
     the simulation advance rather than loop forever. *)
  let sched = Scheduler.create () in
  let steps = ref 0 in
  Scheduler.spawn sched ~name:"stutter" ~at:0 (fun now ->
      incr steps;
      if !steps > 1000 then Scheduler.Finished else Scheduler.Sleep_until now);
  let t = Scheduler.run sched ~until:10_000 in
  check_bool "advanced past 0" true (t > 0);
  check_int "step cap reached" 1001 !steps

let test_scheduler_tie_break_registration_order () =
  let sched = Scheduler.create () in
  let log = ref [] in
  List.iter
    (fun name ->
      Scheduler.spawn sched ~name ~at:5 (fun _ ->
          log := name :: !log;
          Scheduler.Finished))
    [ "first"; "second"; "third" ];
  ignore (Scheduler.run sched ~until:10);
  check_bool "registration order" true (List.rev !log = [ "first"; "second"; "third" ])

let test_scheduler_interleaving_with_resource () =
  (* Two workers contending on one latch: completions must serialize. *)
  let sched = Scheduler.create () in
  let latch = Resource.create () in
  let completions = ref [] in
  let spawn_worker name at =
    Scheduler.spawn sched ~name ~at (fun now ->
        let fin = Resource.acquire latch ~now ~hold:100 in
        completions := (name, fin) :: !completions;
        Scheduler.Finished)
  in
  spawn_worker "w1" 0;
  spawn_worker "w2" 10;
  ignore (Scheduler.run sched ~until:1_000);
  check_bool "serialized" true (List.rev !completions = [ ("w1", 100); ("w2", 200) ])

(* -------------------------------------------------------------------- *)
(* Queue_model *)

let test_queue_model_idle () =
  let q = Queue_model.create () in
  let t = Queue_model.service q ~now:1000 ~hold:100 in
  check_int "no delay before utilization is measured" 1100 t;
  check_bool "utilization starts at 0" true (Queue_model.utilization q = 0.)

let test_queue_model_contention_grows_delay () =
  let q = Queue_model.create ~window:(Clock.us 1) () in
  (* Saturate a window: busy 100% of it. *)
  let now = ref 0 in
  for _ = 1 to 100 do
    now := !now + 500;
    ignore (Queue_model.service q ~now:!now ~hold:600)
  done;
  check_bool "utilization measured high" true (Queue_model.utilization q > 0.5);
  let t = Queue_model.service q ~now:(!now + 1000) ~hold:100 in
  check_bool "queueing delay charged" true (t > !now + 1000 + 100);
  check_bool "busy time accumulated" true (Queue_model.busy_time q > 0)

let test_queue_model_invalid () =
  let q = Queue_model.create () in
  Alcotest.check_raises "negative hold" (Invalid_argument "Queue_model.service: negative hold")
    (fun () -> ignore (Queue_model.service q ~now:0 ~hold:(-1)))

let suites =
  [
    ( "sim.clock",
      [ Alcotest.test_case "conversions" `Quick test_clock_conversions ] );
    ( "sim.queue_model",
      [
        Alcotest.test_case "idle service" `Quick test_queue_model_idle;
        Alcotest.test_case "contention adds delay" `Quick test_queue_model_contention_grows_delay;
        Alcotest.test_case "invalid hold" `Quick test_queue_model_invalid;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "uncontended" `Quick test_resource_uncontended;
        Alcotest.test_case "queueing" `Quick test_resource_queueing;
        Alcotest.test_case "idle gap" `Quick test_resource_gap;
        Alcotest.test_case "negative hold rejected" `Quick test_resource_negative_hold;
      ] );
    ( "sim.scheduler",
      [
        Alcotest.test_case "time order" `Quick test_scheduler_time_order;
        Alcotest.test_case "periodic process" `Quick test_scheduler_periodic;
        Alcotest.test_case "until boundary" `Quick test_scheduler_until_boundary;
        Alcotest.test_case "progress guarantee" `Quick test_scheduler_progress_guarantee;
        Alcotest.test_case "deterministic tie-break" `Quick test_scheduler_tie_break_registration_order;
        Alcotest.test_case "latch serialization" `Quick test_scheduler_interleaving_with_resource;
      ] );
  ]
