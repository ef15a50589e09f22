(** Cross-shard read throughput: HDD's publication-composed thresholds
    against an in-tree 2PC-read baseline ([BENCH_shard.json]).

    Both sides run the same closed loop — one domain per shard over the
    loopback hub, each transaction writing its own segment and reading
    [cross] keys of the next segment up the chain, which a different
    shard owns.  The HDD side serves those reads passively off received
    publications and deltas (Protocol A: no read-time round trip); the
    2PC side pays lock / read / unlock — three round trips per read —
    and in exchange gets the cheapest possible write path
    ({!Node.commit_local}: no registry, no replication, no
    publications).  The gate is simply that shipping CC state beats
    asking permission: [speedup > 1]. *)

val suite : Hdd_benchkit.Suite.t
(** [hdd_cli bench shard]: 4 shards, 4 cross-shard reads per
    transaction, 64 keys per segment, 1 s per side (quick: 0.25 s), and
    a batched HDD side at publication batch 8.  Gates: every side
    commits and [speedup] (per-commit HDD cross-reads/sec over 2PC's)
    exceeds 1; a 20% budget on [speedup].  Spawns domains; do not call
    from a process that intends to fork afterwards. *)
