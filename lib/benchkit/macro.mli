(** The hot-path macro-benchmark behind [hdd_cli bench hot] and
    [hdd_cli bench obs].

    Two halves, one JSON report ([BENCH_hot_paths.json]):

    - {b before/after micro comparisons} of the four optimized paths —
      registry queries (incremental index vs log scan), critical-path
      lookup (precomputed matrix vs per-call DFS), activity-link
      composition (generation-stamped cache vs recomputation over the
      scans) and version lookup (array chain vs list chain) — plus the
      combined cross-class read path the acceptance criterion names.
      The "before" side calls the retained pre-PR reference
      implementations, so the comparison stays honest as both sides
      evolve.
    - a {b closed-loop mixed workload} on the depth-8 chain partition:
      a fixed multiprogramming level of update transactions (Protocols
      A and B) and read-only transactions (Protocol C), reporting
      ops/sec, per-protocol p50/p99 transaction latency, and
      chain-length / registry-size telemetry — the steady state the
      wall-driven GC is supposed to keep bounded. *)

val hot : Suite.t
(** [hdd_cli bench hot]: the report above, no intrinsic gate, and a 20%
    budget on [macro.ops_per_sec], [macro.txns_per_sec] and
    [hot_paths.cross_class_read.after_ops_per_sec].  The closed loop's
    telemetry ships under [macro.metrics]. *)

val obs_limit : float
(** 0.03: the largest fraction of closed-loop throughput the always-on
    observability profile may cost. *)

val obs_gates : Jsonlite.t -> string list
(** The problem when an obs report's [disabled_overhead_frac] exceeds
    {!obs_limit}; [[]] otherwise. *)

val obs : Suite.t
(** [hdd_cli bench obs]: the closed loop three ways, best of 3 per side
    with the rounds interleaved — no trace, trace attached but disabled
    (the always-on profile) and tracing fully on — gated by
    {!obs_gates}; the fully-on cost is reported ungated.  No baseline
    metric. *)
