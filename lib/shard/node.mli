(** One shard of the sharded engine: a single-threaded HDD node owning
    the segments of every class congruent to its id modulo the shard
    count (DESIGN.md §15).

    The node is the wire-protocol twin of the multicore runtime's
    worker ({!Hdd_runtime.Engine}): Protocol B runs against the node's
    own authoritative stores; Protocol A composes [I_old] thresholds
    along the critical path exactly as PR 5 does, except remote classes
    are answered from the latest {e received} activity publication
    instead of an [Atomic] load; Protocol C reads off the latest
    received wall.  Remote segments are served from a delta-replicated
    cache, and a read waits until the owner's publication shows the
    class {e quiescent below the threshold} and every delta the
    publication counts has been applied — which is why lost, late,
    duplicated or reordered publications can only ever add waiting,
    never admit an inconsistent read.

    Shard 0 doubles as the wall coordinator: it runs the engine's
    composition kernel ({!Hdd_core.Activity.wall_components}) over its
    own registry plus the cached remote publications and broadcasts
    each released wall.

    Wire input is checked before it indexes a store: a [Delta] must
    name a segment its sender owns (never one of the receiver's), a
    [Lock_req], [Unlock] or [Read_req] a segment the receiver owns, and
    no key may be negative — anything else raises [Invalid_argument]
    from {!pump}.

    A node never blocks the OS thread: every wait is a [check]-loop
    that republishes its own activity (so mutually waiting shards
    unblock each other), runs the caller-installed [on_wait] hook (the
    deterministic cluster pumps the other nodes there; the domain and
    process clusters sleep), and pumps its own transport. *)

type config = {
  traced : bool;
  trace_capacity : int;
  stall_limit : int;
      (** wait iterations before a wait is declared a stall (a bug —
          the protocol is deadlock-free) and the node raises *)
  publish_every : int;
      (** publish activity once per this many finished update
          transactions (clamped to >= 1; default 1 = per commit).
          Version deltas still ship at every commit, and any wait
          republishes unconditionally, so batching delays only how
          soon idle peers see refreshed activity intervals — outcomes
          are identical at every value. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  net:Transport.t ->
  unit ->
  t
(** Shard id and shard count come from [net].  Shard 0 becomes the
    wall coordinator and seeds the trivial wall (m = 0, released at 0,
    all components 0 — sound because a stale wall only under-serves). *)

val me : t -> int
val now : t -> Time.t
val set_on_wait : t -> (unit -> unit) -> unit

val pump : t -> unit
(** Drain the transport: apply publications, deltas and walls, answer
    2PC lock/read traffic, queue [Exec] work; then (shard 0) attempt a
    wall release. *)

val publish : t -> unit
(** Broadcast the current activity publication. *)

val publish_final : t -> unit
(** Broadcast with unbounded coverage ([upto = max_int]) — only legal
    once this node will never register another transaction. *)

val exec : t -> Hdd_runtime.Engine.desc -> unit
(** Run one transaction to completion (may wait inside). *)

val read_2pc : t -> segment:int -> key:int -> Time.t * int
(** The 2PC-read baseline: lock, read, unlock at the owner — three
    round trips per cross-shard read, against HDD's zero.  Counted as a
    protocol-A read in the stats.  Local segments are served
    directly. *)

val commit_local : t -> segment:int -> key:int -> value:int -> unit
(** Install one committed version into an own segment, no registry, no
    replication — the 2PC baseline's write path (its reads go to the
    owner, so it ships nothing).  Deliberately cheaper than the HDD
    commit path: a conservative baseline.
    @raise Invalid_argument on a segment this shard does not own. *)

val take_work : t -> Hdd_runtime.Engine.desc option
(** Next queued [Exec] descriptor (process mode). *)

val drained : t -> bool
(** A [Drain] message arrived: no more [Exec]s are coming. *)

val bye_seen : t -> bool
(** The router said goodbye (process mode shutdown). *)

val outcomes : t -> (Txn.id * bool) list
val records : t -> Hdd_obs.Trace.record list
val trace : t -> Hdd_obs.Trace.t option
val counters : t -> Wire.counters
