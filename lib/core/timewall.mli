(** Time walls (§5.1–§5.2).

    A time wall [TW(m,s)] is the vector of extended-activity-link values
    [E_s^i(m)] over all classes: a frontier such that no direct dependency
    runs from a transaction on the old side to one on the new side
    (Lemma 2.1).  Protocol C serves a read-only transaction the latest
    committed versions below the components of the most recent wall
    released before its initiation — no read timestamps, no waiting.

    When the class hierarchy is a forest, dependencies never cross
    components, so each component gets its own start class (a lowest one)
    and the wall is assembled per component. *)

type wall = private {
  s : int;  (** start class of the primary component *)
  m : Time.t;  (** wall anchor time *)
  components : Time.t array;  (** [E_s^i(m)] per class [i] *)
  released_at : Time.t;  (** [RT(TW)] *)
}

val threshold : wall -> class_id:int -> Time.t

val to_vector : wall -> Time.t array
(** A defensive copy of the component vector — what checkpoints persist
    and log shipping sends alongside a batch. *)

val make :
  s:int -> m:Time.t -> components:Time.t array -> released_at:Time.t -> wall
(** Assemble a wall from externally computed components — the engine
    and shard-node coordinators run {!Activity.wall_components} over
    published registry snapshots rather than a live {!Activity.ctx}.
    The array is copied. *)

val component_starts : Partition.t -> int array
(** For each class, the start class of its connected component (one
    lowest class per component; isolated nodes start at themselves) —
    the per-component wall assembly of §5.2.  Static per partition:
    callers compute it once. *)

val compute :
  Activity.ctx -> starts:int array -> m:Time.t -> (Time.t array, Txn.id) result
(** One attempt at building the component vector anchored at [m], with
    [starts] the {!component_starts} of the context's partition; [Error
    id] when a [C^late] along some undirected path is not yet computable
    because [id] is still active — the caller retries after that
    transaction finishes. *)

type manager

val create :
  ?trace:Hdd_obs.Trace.t -> Activity.ctx -> clock:Time.Clock.clock -> manager
(** Also releases an initial wall (trivially computable on an idle
    system) so read-only transactions always find one.  With [trace],
    every release emits a [Wall_release] record (anchor, release time and
    a copy of the component vector) and every failed attempt emits
    [Wall_blocked] naming the transaction in the way. *)

val try_release : manager -> (wall, Txn.id) result
(** Anchor a new wall at a fresh current time and release it if
    computable. *)

val latest_before : manager -> Time.t -> wall option
(** The wall with maximal release time strictly before the given instant —
    the rule of Protocol C.  [None] only if even the initial wall was
    released later than the instant. *)

val current : manager -> wall
(** Most recently released wall. *)

val released : manager -> wall list
(** All released walls, oldest first. *)

val release_count : manager -> int
