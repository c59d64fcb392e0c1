type decision = [ `Pass | `Fail ]

type point = {
  mutable handler : (unit -> decision) option;
  mutable fails : int;
}

let registry : (string, point) Hashtbl.t = Hashtbl.create 16

(* Points with a handler installed. While it is 0, [check] answers
   without hashing the site name. *)
let armed = ref 0

let point name =
  match Hashtbl.find_opt registry name with
  | Some p -> p
  | None ->
      let p = { handler = None; fails = 0 } in
      Hashtbl.replace registry name p;
      p

let arm_fail_n name n =
  let budget = ref n in
  let p = point name in
  if Option.is_none p.handler then incr armed;
  p.handler <-
    Some
      (fun () ->
        if !budget > 0 then begin
          decr budget;
          `Fail
        end
        else `Pass)

let check name =
  if !armed = 0 then `Pass
  else
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
      registry;
    armed := 0
  in
  clean ();
  Fun.protect ~finally:clean f
