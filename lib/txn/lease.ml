(* Per-transaction progress leases (DESIGN §4e).

   A lease is not a lifetime cap — LLTs are the phenomenon under study
   and may run for the whole experiment. It is an *idle* budget: a
   transaction that has made no read/write progress for longer than its
   lease is a zombie candidate. The registry is plain bookkeeping (no
   randomness, no clock reads of its own), so arming it keeps a run a
   pure function of the seed. *)

type kind = Short | Llt | Primary

type config = { short_lease : Clock.time; llt_lease : Clock.time }

let default_config = { short_lease = Clock.ms 20; llt_lease = Clock.ms 200 }

type entry = {
  kind : kind;
  lease : Clock.time;
  granted_at : Clock.time;
  mutable last_progress : Clock.time;
}

type cancel = {
  c_tid : Timestamp.t;
  c_at : Clock.time;
  c_idle : Clock.time;
  c_lease : Clock.time;
}

type t = {
  config : config;
  entries : (Timestamp.t, entry) Hashtbl.t;
  mutable cancels : cancel list; (* newest first *)
  mutable cancel_count : int;
  mutable grants : int;
}

let create ?(config = default_config) () =
  if config.short_lease <= 0 || config.llt_lease <= 0 then
    invalid_arg "Lease.create: leases must be positive";
  { config; entries = Hashtbl.create 64; cancels = []; cancel_count = 0; grants = 0 }


let grant t ~tid ~kind ~now =
  let lease =
    match kind with
    | Short -> t.config.short_lease
    | Llt -> t.config.llt_lease
    | Primary -> invalid_arg "Lease.grant: primary leases take an explicit duration"
  in
  Hashtbl.replace t.entries tid { kind; lease; granted_at = now; last_progress = now };
  t.grants <- t.grants + 1

let grant_primary t ~tid ~lease ~now =
  if lease <= 0 then invalid_arg "Lease.grant_primary: lease must be positive";
  Hashtbl.replace t.entries tid { kind = Primary; lease; granted_at = now; last_progress = now };
  t.grants <- t.grants + 1

let note_progress t ~tid ~now =
  match Hashtbl.find_opt t.entries tid with
  | Some e -> e.last_progress <- max e.last_progress now
  | None -> ()

let release t ~tid = Hashtbl.remove t.entries tid
let live t = Hashtbl.length t.entries
let grants t = t.grants

let lease_of t ~tid =
  match Hashtbl.find_opt t.entries tid with Some e -> Some e.lease | None -> None

let idle t ~tid ~now =
  match Hashtbl.find_opt t.entries tid with
  | Some e -> Some (max 0 (now - e.last_progress))
  | None -> None

let expired t ~now =
  List.sort compare
    (Hashtbl.fold
       (fun tid e acc -> if now - e.last_progress > e.lease then tid :: acc else acc)
       t.entries [])

let note_cancel t ~tid ~now =
  match Hashtbl.find_opt t.entries tid with
  | None -> ()
  | Some e ->
      t.cancels <-
        { c_tid = tid; c_at = now; c_idle = max 0 (now - e.last_progress); c_lease = e.lease }
        :: t.cancels;
      t.cancel_count <- t.cancel_count + 1

let cancels t = List.rev t.cancels
let cancel_count t = t.cancel_count
