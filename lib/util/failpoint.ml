type decision = [ `Pass | `Fail ]

type point = {
  mutable handler : (unit -> decision) option;
  mutable fails : int;
}

let registry : (string, point) Hashtbl.t = Hashtbl.create 16

let point name =
  match Hashtbl.find_opt registry name with
  | Some p -> p
  | None ->
      let p = { handler = None; fails = 0 } in
      Hashtbl.replace registry name p;
      p

let arm name handler = (point name).handler <- Some handler

let arm_fail_n name n =
  let budget = ref n in
  arm name (fun () ->
      if !budget > 0 then begin
        decr budget;
        `Fail
      end
      else `Pass)

let disarm name = match Hashtbl.find_opt registry name with Some p -> p.handler <- None | None -> ()
let disarm_all () = Hashtbl.iter (fun _ p -> p.handler <- None) registry

let check name =
  let p = point name in
  match p.handler with
  | None -> `Pass
  | Some h -> (
      match h () with
      | `Pass -> `Pass
      | `Fail ->
          p.fails <- p.fails + 1;
          `Fail)

let fail_count name = match Hashtbl.find_opt registry name with Some p -> p.fails | None -> 0

let reset_counts () =
  Hashtbl.iter (fun _ p -> p.fails <- 0) registry

let with_scope f =
  let clean () =
    disarm_all ();
    reset_counts ()
  in
  clean ();
  Fun.protect ~finally:clean f
