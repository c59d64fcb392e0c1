(** SIRO-versioning page slot (§3.3, §4.1).

    Each record occupies a slot holding the current version and one
    placeholder for the single in-row old version; a toggle bit says
    which physical half is current (no physical swap on update). When an
    update arrives while the placeholder is occupied, the displaced
    oldest in-row version ([v^{r,1->2}]) is relocated off-row — the
    moment vDriver inspects it for pruning and classification.

    Abort and crash undo are bit toggles (§3.5): the in-row pair always
    contains the most recently committed version, so rolling back an
    uncommitted update never touches off-row state. *)

type t

type update_result =
  | Kept  (** the placeholder was free, or the update was in place *)
  | Relocated of { version : Version.t; lo : Timestamp.t; hi : Timestamp.t }
      (** the displaced [v^{r,1->2}], to hand to vSorter, with its
          stamped commit interval: [lo] its creator's commit timestamp,
          [hi] its closer's ({!previous_cts} and {!current_cts} before
          the update) *)

val create : rid:int -> bytes:int -> payload:int -> vs:Timestamp.t -> vs_time:Clock.time -> t
(** A freshly loaded record: current version only, placeholder empty.
    Stamped 0 for the initial load ([vs = 0]), unstamped otherwise (a
    restart then stamps the checkpoint row's [cts], see {!stamp}). *)

val rid : t -> int
val toggle : t -> bool
val current : t -> Version.t
val previous : t -> Version.t option

(** {1 Commit-timestamp stamps}

    As in Hekaton, the slot carries the commit timestamps of its
    versions' creators, so nothing that reads an old version's commit
    interval asks the commit log (whose pages below the freeze horizon
    are gone). [Timestamp.infinity] means unstamped: the creator has
    not committed, or committed since the engine last stamped. *)

val current_cts : t -> Timestamp.t
(** Commit timestamp of the current version's creator — and so also of
    the transaction that closed the previous version. *)

val previous_cts : t -> Timestamp.t
(** Commit timestamp of the previous version's creator;
    [Timestamp.infinity] without a previous version. *)

val stamp : t -> tid:Timestamp.t -> cts:Timestamp.t -> unit
(** The transaction that began at [tid] committed at [cts]: stamp the
    current version if [tid] created it, else do nothing. The engine
    stamps every slot of a write set at commit, and stamps a committed
    current creator it finds unstamped from the commit log before an
    update, so that {!update} returns a stamped interval. *)

val update :
  t -> vs:Timestamp.t -> vs_time:Clock.time -> payload:int -> bytes:int -> update_result
(** Install a new (possibly uncommitted) current version created by the
    transaction that began at [vs]. The old current becomes the in-row
    old version (its [ve] closes at [vs]); a previously held old version
    is returned for relocation with its stamps; the new previous
    version inherits the current stamp and the new current version is
    unstamped. If [vs] equals the current version's creator (the same transaction updating its record again) the value
    is overwritten in place and nothing relocates. Raises
    [Invalid_argument] if [vs] is older than the current creator
    (single-writer per record is enforced by the engine's page
    latch). *)

val abort_undo : t -> t_aborted:Timestamp.t -> unit
(** Roll back an uncommitted update by [t_aborted]: the in-row old
    version becomes current again (its visibility reopens), the
    placeholder empties, and the stamps move back with it. No-op if
    the current version was not created by [t_aborted]. *)

val read_inrow : t -> Read_view.t -> Version.t option
(** The snapshot read for [view] if it is one of the (at most two)
    in-row versions. *)

val inrow_bytes : t -> int
(** Bytes the slot occupies: record plus placeholder, each the size of
    the current record (fixed footprint — SIRO pages never split). *)
