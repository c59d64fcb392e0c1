(** Named fail-points for deterministic fault injection.

    Production systems scatter fail-points through their hot paths
    (etcd/TiKV's [fail::fail_point!]) so a chaos harness can force rare
    error branches on demand. This is the simulation-friendly analogue:
    a site calls {!check} with its name and gets [`Pass] unless the
    name has been armed ({!arm_fail_n}), so every decision is a
    deterministic function of the run. The sites
    compiled into the pipeline are ["vsorter.flush"] (segment flush to
    the version store), ["wal.append"] (log-device write,
    byte-accounting and typed-record paths alike) and ["wal.fsync"]
    (durability-frontier advance); arming any other name is legal but
    never fires.

    The registry is global (the simulation is single-threaded and runs
    one experiment at a time); {!with_scope} brackets a run so that no
    armed handler or fail count leaks into the next experiment. An
    unarmed fail-point costs one hashtable probe. *)

type decision = [ `Pass | `Fail ]

val arm_fail_n : string -> int -> unit
(** Arm [name] to fail the next [n] checks, then pass (the handler
    stays installed; re-arming resets the budget). *)

val check : string -> decision
(** Consult the fail-point. *)

val fail_count : string -> int
(** How many checks of [name] returned [`Fail] since the last
    {!with_scope} entry. *)

val with_scope : (unit -> 'a) -> 'a
(** Run a thunk in a clean registry: counts reset and all handlers
    disarmed on entry {e and} on exit (even by exception). *)
