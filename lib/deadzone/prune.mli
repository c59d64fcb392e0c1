(** Version pruning — executable forms of §3.1.

    Two worlds coexist, as in the paper:

    - the {e oracle} world, where versions carry commit-time visibility
      intervals and deadness is Definition 3.3 checked directly;
    - the {e read-view} world (what MySQL/PostgreSQL actually store),
      where a version's [vs]/[ve] are the *begin* timestamps of the
      creator and successor transactions, and snapshot-read-ness is
      decided through read views.

    The property-based tests assert that [Zone_set.prunable] agrees with
    [dead_spec] on randomized histories — Theorem 3.5 checked on
    samples — and that the read-view form is conservative w.r.t. the
    oracle form. *)

val dead_spec : live:Timestamp.t list -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** Definition 3.3 verbatim: no live transaction began strictly inside
    [(vs, ve)] (or no transaction is live at all). [vs]/[ve] are
    commit-time visibility bounds. Requires [vs < ve]. *)

val snapshot_read_of_view : Read_view.t -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** Read-view world: is the version the snapshot read of its record for
    this view? ([Read_view.snapshot_read], re-exported here so the
    pruning rule reads like the paper's rewritten theorem.) *)

val prunable_by_views : views:Read_view.t list -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** The rewritten Theorem 3.5 (§3.1, last paragraph): a version can be
    pruned iff it is a snapshot read to none of the live views. An empty
    view list means no live transactions: everything is prunable. *)

(** Why the translation below exists: checking only live read views
    against a {e stale} view snapshot can prune a version needed by a
    transaction that began after the snapshot; and checking begin-ts
    intervals against zones alone can prune a version whose successor
    began before — but committed after — a live reader. Theorem 3.5 is
    stated over {e commit-time} visibility; {!commit_interval} performs
    that translation through the commit log (the §4.2 pg_xact role). *)

val commit_interval :
  Commit_log.t -> vs:Timestamp.t -> ve:Timestamp.t -> (Timestamp.t * Timestamp.t) option
(** Translate a version's begin-timestamp bounds into its true
    visibility interval: the commit timestamps of its creator and of its
    successor's creator ([Some] only when both are committed — always
    the case for a version displaced by SIRO relocation, since a third
    update cannot start before the second committed). A transaction
    [T_k] sees the version iff [cs < t_b^k < ce], which is exactly the
    oracle world of Theorem 3.5. The pseudo-transaction 0 (initial load)
    is treated as committed at 0. Raises [Invalid_argument] if a bound
    lies below the commit log's freeze horizon: vSorter takes the
    interval from the SIRO slot's stamps instead, and the offrow
    interval scan keeps its log whole with a horizon floor. *)

val prunable_fast :
  Zone_set.t -> commit_log:Commit_log.t -> vs:Timestamp.t -> ve:Timestamp.t -> bool
(** What vDriver executes per relocated version: translate [(vs, ve)]
    to its commit interval and apply the zone containment test. Sound
    against stale zone snapshots (staleness only adds boundaries and
    ages [C^T]); exact for the snapshot's live set. Returns [false]
    whenever the translation is unavailable. *)
