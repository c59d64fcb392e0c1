(** Metrics registry: named counters, gauges and histograms.

    Instrumentation sites across the vDriver pipeline report into the
    {e registry in scope} (installed with {!with_registry}); when no
    registry is in scope every reporting helper is a no-op that touches
    nothing — no allocation, no RNG, no simulator state — so an
    uninstrumented run is bit-identical to one from a build without this
    library linked in.

    Names are flat dot-separated labels ([wal.appends],
    [read.chain_hops]). A name is registered once with one kind;
    re-registering it with a different kind raises, which catches label
    collisions at the first scrape. {!snapshot} and {!to_json} present a
    stable label→value view sorted by name, with histograms summarised
    as [count/p50/p90/p99/max] — the flat metrics JSON consumed by bench
    and the CI golden diff. *)

type t

type counter
type gauge

type value =
  | Counter of int
  | Gauge of float
  | Histo of Histogram.t

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create. Raises [Invalid_argument] if [name] is already
    registered as another kind. *)

val gauge : t -> string -> gauge
val histogram : t -> ?bucket_width:int -> string -> Histogram.t
(** [bucket_width] is honoured on first registration only. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit

(* ---- the scoped registry instrumentation sites report into ---- *)

val with_registry : t -> (unit -> 'a) -> 'a
(** Install [t] as the registry in scope for the thunk (restoring the
    previous one on exit, even by exception). Scopes nest. *)

val in_scope : unit -> t option

val bump : string -> unit
(** Increment a counter in the registry in scope; no-op without one. *)

val bump_by : string -> int -> unit
val observe : ?bucket_width:int -> string -> int -> unit
(** Record one histogram observation in the registry in scope. *)

val set_gauge : string -> float -> unit

(* ---- scraping ---- *)

val snapshot : t -> (string * value) list
(** Sorted by name. *)

val to_json : t -> Jsonx.t
(** Flat object, keys sorted: counters as ints, gauges as floats,
    histograms as [{"count";"p50";"p90";"p99";"max"}] objects. *)
