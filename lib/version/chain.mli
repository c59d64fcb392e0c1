(** Per-record locator chain (the LLB entry, §3.3–3.4).

    Off-row versions of a record form a doubly-linked chain from newest
    ([head]) to oldest ([tail]); the LLB keeps both ends so reads can
    approach a version from whichever side is closer.

    When vCutter purges a version segment, the versions it held are
    deleted from their chains. Deleting a run at either end just trims
    the chain, but deleting an interior run leaves a {e hole}: the two
    fragments stay reachable from head and tail respectively, so the
    representation invariant — {e every version that is a snapshot read
    of some live transaction is reachable} — still holds, and vDriver
    tolerates the hole lazily (the 1-hole state of Figure 8). A deletion
    that would create a second hole triggers the preemptive {e Fixup}
    action, which splices every deleted interior run and returns the
    chain to the 0-hole state, before any version can become orphaned. *)

type node = {
  version : Version.t;
  prune_lo : Timestamp.t;
      (** commit-time visibility start (creator's commit ts), set at
          relocation; dead-zone checks run in commit-time space *)
  prune_hi : Timestamp.t;  (** commit-time visibility end *)
  mutable seg_id : int;  (** segment currently holding the version *)
  mutable newer : node option;
  mutable older : node option;
  mutable deleted : bool;
}

type t

val create : int -> t
(** [create rid]. *)

val rid : t -> int
val head : t -> node option
val tail : t -> node option

val live_length : t -> int
(** Number of non-deleted versions in the chain. *)

val holes : t -> int
(** Interior deleted runs currently tolerated (0 or 1 by invariant). *)

val fixups : t -> int
(** How many Fixup actions this chain has performed. *)

val push_newest : t -> ?prune_interval:Timestamp.t * Timestamp.t -> Version.t -> seg_id:int -> node
(** Insert a freshly relocated version at the head. Its [vs] must be at
    least the previous head's [vs] (relocations arrive in order per
    record). [prune_interval] is the commit-time visibility interval
    used by dead-zone checks; it defaults to [(vs, ve)] for tests that
    work directly in the oracle world. *)

val delete_node : t -> node -> unit
(** vCutter's per-version cut. Marks the node deleted, trims end runs,
    and — if a second interior hole would appear — performs Fixup.
    Idempotent on already-deleted nodes. *)

val find_visible : t -> Read_view.t -> (node * int) option
(** Locate the snapshot read of this record for [view] among off-row
    versions, walking from the head and, if a hole interrupts the walk,
    retrying from the tail (Figure 8's two-ended traversal). Returns the
    node and the number of hops taken. *)

val reachable : t -> node -> bool
(** Can [node] be reached from the head or the tail without crossing a
    hole? Deleted nodes are never reachable. Used by invariant tests. *)

val check_invariants : t -> (unit, string) result
(** Structural soundness: consistent links, [holes <= 1], ends not
    deleted, lengths consistent. *)
