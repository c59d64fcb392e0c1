(** Collaborative version cleaning (§3.4, Figure 9).

    When vCutter wants to logically delete a version from a chain at the
    same moment vSorter wants to insert a newer version into that chain,
    both race on a per-chain flag with an atomic test-and-set instead of
    a chain latch. Whoever installs its footprint first wins and is
    responsible for deleting the dead version:

    - if {b vSorter} wins it performs both tasks (delete, then insert);
    - if {b vCutter} wins it deletes and fixes up, and vSorter —
      discovering the cutter's footprint — spin-waits for the cutter's
      completion mark before doing its own insertion.

    The invariant is that the dead version is deleted by {e exactly} the
    winner, never twice and never zero times. This module implements the
    protocol over [Atomic] for the multi-domain hammers and the micro
    benchmarks. No library path calls it: the engines run every step
    under one mutex, so a cut never races an insertion for a chain, and
    {!Vcutter.reclaim_segment} deletes directly — a fresh, uncontended
    episode would always let the cutter win. *)

type t

val create : unit -> t
(** One [t] arbitrates one cleaning episode: a specific dead version
    that vCutter wants to delete while an insertion into the same chain
    may be in flight. Create a fresh instance per episode. *)

val sorter :
  ?spin_budget:int ->
  ?yield:(unit -> unit) ->
  t ->
  delete:(unit -> unit) ->
  insert:(unit -> unit) ->
  [ `Did_both | `Inserted_after_cutter ]
(** vSorter's side: race for the flag; run [delete] only on a win; run
    [insert] in all cases (after the cutter finished, on a loss). The
    flag is released afterwards so the chain can host later races.

    The losing sorter's wait is {e bounded}: it busy-spins
    ([Domain.cpu_relax]) for at most [spin_budget] iterations (default
    4096), then
    calls [yield] once per further iteration — pass the hosting
    scheduler's yield so a cutter delayed inside its critical window
    (the [Collab_delay] fault) degrades to cooperative waiting instead
    of livelocking the domain. [yield] defaults to [Domain.cpu_relax]
    when the caller has nothing better. *)

val cutter :
  ?delay:(unit -> unit) ->
  t ->
  delete:(unit -> unit) ->
  fixup:(unit -> unit) ->
  [ `Won | `Lost ]
(** vCutter's side: on a win, delete the dead version and fix broken
    links, then publish completion; on a loss return immediately —
    the sorter took over the deletion (vCutter must not block, it is
    "battling with numerous foreground transactions"). [delay] is the
    fault-injection hook: it runs {e between} the fixup and the
    completion mark, exactly the window that forces long sorter
    waits. *)

val races_lost_by_sorter : t -> int
(** How often the sorter had to spin-wait (observability for tests). *)

val max_spin_observed : unit -> int
(** Longest sorter wait seen by any episode since the last
    {!reset_spin_stats} — the satellite gauge the multi-domain stress
    asserts against. *)

val yields_observed : unit -> int
(** Wait iterations that fell back to yielding (budget exhausted). *)

val reset_spin_stats : unit -> unit
