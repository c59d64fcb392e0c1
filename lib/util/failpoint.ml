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

let arm_fail_n name n =
  let budget = ref n in
  (point name).handler <-
    Some
      (fun () ->
        if !budget > 0 then begin
          decr budget;
          `Fail
        end
        else `Pass)

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

let with_scope f =
  let clean () =
    Hashtbl.iter
      (fun _ p ->
        p.handler <- None;
        p.fails <- 0)
      registry
  in
  clean ();
  Fun.protect ~finally:clean f
