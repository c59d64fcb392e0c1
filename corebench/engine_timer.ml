(* An Engine.t wrapper that counts and times every engine closure with
   the monotonic clock. It only observes: each call goes straight to the
   wrapped engine with the same arguments, so the simulated run is the
   same with and without it. *)

let ops = [ "begin_txn"; "read"; "write"; "commit"; "abort"; "maintenance"; "checkpoint"; "restart" ]

type t = { calls : int array; ns : int array }

let create () = { calls = Array.make (List.length ops) 0; ns = Array.make (List.length ops) 0 }

let timed t i f =
  let t0 = Monotonic_clock.now () in
  let stop () =
    t.calls.(i) <- t.calls.(i) + 1;
    t.ns.(i) <- t.ns.(i) + Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0)
  in
  match f () with
  | r ->
      stop ();
      r
  | exception e ->
      stop ();
      raise e

let wrap t (e : Engine.t) =
  {
    e with
    Engine.begin_txn = (fun ~now -> timed t 0 (fun () -> e.Engine.begin_txn ~now));
    read = (fun txn ~rid ~now -> timed t 1 (fun () -> e.Engine.read txn ~rid ~now));
    write =
      (fun txn ~rid ~payload ~now -> timed t 2 (fun () -> e.Engine.write txn ~rid ~payload ~now));
    commit = (fun txn ~now -> timed t 3 (fun () -> e.Engine.commit txn ~now));
    abort = (fun txn ~now -> timed t 4 (fun () -> e.Engine.abort txn ~now));
    maintenance = (fun ~now -> timed t 5 (fun () -> e.Engine.maintenance ~now));
    checkpoint = Option.map (fun f ~now -> timed t 6 (fun () -> f ~now)) e.Engine.checkpoint;
    restart = Option.map (fun f ~now -> timed t 7 (fun () -> f ~now)) e.Engine.restart;
  }

let merge a b =
  Array.iteri (fun i c -> a.calls.(i) <- a.calls.(i) + c) b.calls;
  Array.iteri (fun i n -> a.ns.(i) <- a.ns.(i) + n) b.ns
