(** The activity link function [A], its backward inverse [B], and the
    extended function [E] (§4.1, §5.1).

    All three map logical times to logical times by composing the two
    registry queries along the (undirected) critical path of the class
    hierarchy:

    - [A_i^j(m)]: going *up* a critical path [T_i -> T_k -> … -> T_j],
      successively take the initiation time of the oldest active
      transaction — [I_j^old(… I_k^old(m) …)].  Protocol A reads segment
      [D_j] below this threshold.
    - [B_j^i(m)]: going back *down*, successively take the latest commit
      time — [C_i^late(… C_k^late(m) …)].  Only computable once every
      involved class has no straggler older than the argument; the paper's
      Properties 2.1/2.2 make [B] the inverse of [A] up to epsilon.
    - [E_s^i(m)]: along the unique *undirected* critical path from [T_s]
      to [T_i], apply [I^old] across forward (upward) arcs and [C^late]
      across backward (downward) arcs.  Time walls are vectors of [E]
      values. *)

type pair_cache
(** Per-(class-pair) cache of composed [A] values, stamped with the
    registry generations of the classes along the path so entries go
    stale exactly when a relevant class log advances. *)

type ctx = {
  partition : Partition.t;
  registry : Registry.t;
  cache : pair_cache;
}

val make_ctx : Partition.t -> Registry.t -> ctx

(** {1 The composition kernel}

    The one implementation of the [A] and [E] compositions, shared by
    {!a_fn}, {!e_fn}, {!Timewall}, the multicore engine and the shard
    node.  The caller supplies the [I_old] / [C_late] steps over its own
    activity source ['s] (live registry, published snapshot, worker or
    node context) and keeps its staleness checks inside them.  Top-level
    steps keep the kernel allocation-free. *)

val live_i_old : Registry.t -> int -> Time.t -> Time.t
val live_c_late : Registry.t -> int -> Time.t -> (Time.t, Txn.id) result

val threshold :
  Partition.t -> i_old:('s -> int -> Time.t -> Time.t) -> 's ->
  from_class:int -> to_class:int -> Time.t -> Time.t
(** [A_{from}^{to}(m)], uncached: [i_old] at every class of the
    critical path after [from].
    @raise Invalid_argument when no critical path joins the classes. *)

val wall_components :
  Partition.t -> starts:int array ->
  i_old:('s -> int -> Time.t -> Time.t) ->
  c_late:('s -> int -> Time.t -> (Time.t, 'e) result) -> 's -> Time.t ->
  (Time.t array, 'e) result
(** The wall vector [E_{starts.(i)}^i(m)] for every class [i] (the walk
    of {!e_fn}), stopping at the first [Error].  [starts] is
    {!Timewall.component_starts}. *)

(** {1 Over a live registry} *)

val a_fn : ctx -> from_class:int -> to_class:int -> Time.t -> Time.t
(** [A_{from}^{to}(m)].  When [from = to] this is the identity (used by the
    fictitious-class hosting of §5.0).
    @raise Invalid_argument when no critical path joins the classes. *)

val a_fn_trace :
  ctx -> from_class:int -> to_class:int -> Time.t -> (int * Time.t) list
(** The successive [(class, I_old value)] pairs of the composition, for
    the Figure 6 experiment.  First element is [(from_class, m)]. *)

val b_fn :
  ctx -> from_class:int -> to_class:int -> Time.t -> (Time.t, Txn.id) result
(** [B_{to}^{from}(m)] where the critical path runs [from -> … -> to]:
    maps a time at the *top* class [to] back down to the bottom class
    [from].  [Error id] when some [C^late] along the way is not yet
    computable because transaction [id] is still active.
    @raise Invalid_argument when no critical path joins the classes. *)

val e_fn : ctx -> s:int -> i:int -> Time.t -> (Time.t, Txn.id) result
(** [E_s^i(m)] along the UCP.
    @raise Invalid_argument when the classes are in different components
    of the hierarchy. *)
