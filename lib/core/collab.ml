(* Flag values: the "winner constant" (free) plus the two footprints and
   the cutter's completion mark. *)
let free = 0
let sorter_footprint = 1
let cutter_footprint = 2
let cutter_done = 3

type t = { flag : int Atomic.t; sorter_waits : int Atomic.t }

let create () =
  { flag = Atomic.make free; sorter_waits = Atomic.make 0 }

let default_spin_budget = 4096

(* Cross-episode observability: the longest wait any sorter ever sat
   through, and how many iterations fell back to yielding. Only the
   contended (multi-domain) path touches these — the discrete-event
   engines never race, so determinism is unaffected. *)
let max_spin_seen = Atomic.make 0
let yields_seen = Atomic.make 0

let rec note_spin_max n =
  let cur = Atomic.get max_spin_seen in
  if n > cur && not (Atomic.compare_and_set max_spin_seen cur n) then note_spin_max n

let max_spin_observed () = Atomic.get max_spin_seen
let yields_observed () = Atomic.get yields_seen

let reset_spin_stats () =
  Atomic.set max_spin_seen 0;
  Atomic.set yields_seen 0

let sorter ?(spin_budget = default_spin_budget) ?yield t ~delete ~insert =
  if Atomic.compare_and_set t.flag free sorter_footprint then begin
    (* vSorter won: it is delegated the whole cleaning. The footprint
       stays — the episode is one-shot, so a late cutter must lose. *)
    delete ();
    insert ();
    `Did_both
  end
  else begin
    Atomic.incr t.sorter_waits;
    (* The cutter owns the version; wait for its completion mark. The
       wait is bounded: up to [spin_budget] busy iterations, then each
       further iteration yields instead of spinning — a cutter delayed
       between its footprint and its completion mark (the Collab_delay
       fault) can no longer livelock the sorter's domain. *)
    let spins = ref 0 in
    while Atomic.get t.flag <> cutter_done do
      incr spins;
      if !spins > spin_budget then begin
        Atomic.incr yields_seen;
        match yield with Some f -> f () | None -> Domain.cpu_relax ()
      end
      else Domain.cpu_relax ()
    done;
    note_spin_max !spins;
    insert ();
    `Inserted_after_cutter
  end

let cutter ?delay t ~delete ~fixup =
  if Atomic.compare_and_set t.flag free cutter_footprint then begin
    delete ();
    fixup ();
    (* Fault hook: hold the flag between the fixup and the completion
       mark, the window a stalled cutter forces long sorter waits in. *)
    (match delay with Some f -> f () | None -> ());
    Atomic.set t.flag cutter_done;
    `Won
  end
  else `Lost

let races_lost_by_sorter t = Atomic.get t.sorter_waits
