(** A small metrics registry: named counters, gauges and histograms,
    cheap enough to leave on in production runs and dumped as one sorted
    snapshot (the CLI and benchkit render it as JSON).

    {!attach} installs the standard bridge from a {!Trace} stream, so a
    single emission pathway feeds both the trace ring and the counters
    the operator dashboards read: aborts, reads served per protocol,
    wall releases, GC collections, registry prune depth. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create.  @raise Invalid_argument if the name is already bound
    to a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are upper bounds, ascending (default powers of two from 1
    to 2^20); an implicit +inf bucket catches the rest.  A repeated
    lookup ignores [buckets] and returns the existing histogram. *)

val observe : histogram -> float -> unit

val merge : into:histogram -> histogram -> unit
(** Add every observation of the second histogram to [into] — per-worker
    bucket counts folded into one report.  The result equals observing
    both sample sets into one histogram, up to float rounding of the
    sum.  @raise Invalid_argument if the bucket bounds differ. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val quantile : histogram -> float -> float
(** Upper bound of the bucket containing the [q]-quantile observation
    ([0 <= q <= 1]); 0 when empty.  Coarse by construction. *)

val p50 : histogram -> float
val p99 : histogram -> float

val p999 : histogram -> float
(** Tail quantiles as bucket upper bounds; use {!latency_buckets} for a
    grid fine enough for a meaningful p999. *)

val latency_buckets : float array
(** Geometric ×1.25 grid from 0.5, 64 buckets (~0.5 .. ~5e5) — pass as
    [?buckets] for latency histograms driving SLO quantiles. *)

type snap =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }
      (** cumulative-free per-bucket counts, bounds ascending; the last
          bound is [infinity] *)

val snapshot : t -> (string * snap) list
(** All metrics, sorted by name. *)

val find : t -> string -> snap option

val attach : t -> Trace.t -> unit
(** Subscribe the standard scheduler bridge: every trace record bumps the
    matching metric ([txn.begins], [txn.commits], [txn.aborts],
    [reads.a], [reads.b], [reads.c], [writes], [blocks], [rejects],
    [wall.releases], [wall.blocked], [gc.collections],
    [gc.versions_dropped], [gc.dropped_per_collection] (histogram),
    [registry.pruned_records], [registry.pruned_windows],
    [adapt.repartitions], [hybrid.escalations], and [sim.<label>] for
    driver events). *)
