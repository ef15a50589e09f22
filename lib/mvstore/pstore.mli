(** Packed-int multi-version store of committed versions — the one
    version store of the multicore engine and the shard node.

    Each key's version chain is a packed [int array] of [ts; value]
    pairs in ascending-ts order — the same layout trick that took trace
    events 116→12 ns (DESIGN.md §9) — so a commit appends in place and a
    read is a binary search, with no boxed list cells or map spine.  The
    store has two faces:

    - the {e owner face} ({!t}): mutable, touched only by one thread —
      the owning engine worker, or the single-threaded shard node for
      both its own segments and its delta-replicated caches.
      {!add_commit} appends in place and allocates nothing once buffers
      reach steady-state capacity (in-place compaction below the
      {!set_watermark} point reclaims space instead of growing);
    - the {e reader face} ({!view}): an immutable frozen copy cut by
      {!publish} once per batch, swapped into an [Atomic.t] by the
      engine.  Views are never mutated, so cross-domain readers need no
      synchronization beyond the view swap itself.

    Reads return the version timestamp directly ([Time.zero] = the
    bootstrap value predating every commit; a negative key reads as
    never written) — no option, no tuple — so the Protocol A/B/C read
    paths allocate nothing.  {!latest_before_pair} is the allocating
    convenience for tools and the shard node's wire replies. *)

type t
(** Owner face: one per segment, single-domain mutable. *)

type view
(** Reader face: immutable frozen copy, safe to share across domains. *)

val create : unit -> t
val empty_view : view

val add_commit : t -> key:int -> ts:Time.t -> value:int -> unit
(** Append a version; [ts] must exceed the key's newest version.
    Amortized zero-allocation: appends in place, compacting versions
    below the watermark out of the buffer before growing it. *)

val set_watermark : t -> Time.t -> unit
(** Advance the oldest timestamp future reads may name (a released wall
    component).  Versions below it — except the newest such version,
    which a read exactly at the watermark still serves — become
    reclaimable by in-place compaction.  Monotone; lower values are
    ignored. *)

val latest_before : t -> key:int -> ts:Time.t -> Time.t
(** Timestamp of the newest version strictly below [ts], or [Time.zero]
    when the read predates every version (bootstrap). *)

val value_of : t -> key:int -> ts:Time.t -> fallback:int -> int
(** Value of the exact version [ts], or [fallback] if absent. *)

val publish : t -> view
(** Freeze the keys dirtied since the last publish (one copy of each
    dirty key's live range) and return a view of the whole segment.
    Clean keys share their previous frozen buffer. *)

val view_latest_before : view -> key:int -> ts:Time.t -> Time.t

val latest_before_pair : t -> key:int -> ts:Time.t -> (Time.t * int) option
(** The newest version strictly below [ts] with its value, or [None]
    for the bootstrap value. *)

val dirty_count : t -> int
(** Keys with versions the last published view does not hold — zero
    means {!publish} would return a view equivalent to the last one, so
    the caller can skip the swap entirely. *)

val version_count : t -> int
(** Live (uncompacted) versions across all keys. *)
