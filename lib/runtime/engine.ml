module T = Hdd_obs.Trace
module Pstore = Hdd_mvstore.Pstore
module P = Hdd_core.Partition
module Activity = Hdd_core.Activity
module TW = Hdd_core.Timewall

type op = Read of Granule.t | Write of Granule.t * int

type desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

type config = {
  workers : int;
  traced : bool;
  trace_capacity : int;
  mailbox_capacity : int;
  wall_poll_s : float;
  publish_every : int;
}

let default_config ~workers =
  { workers;
    traced = true;
    trace_capacity = 1 lsl 16;
    mailbox_capacity = 64;
    wall_poll_s = 100e-6;
    publish_every = 8 }

type stats = {
  committed : int;
  aborted : int;
  reads_a : int;
  reads_b : int;
  reads_c : int;
  writes : int;
  publications : int;
  wall_releases : int;
  wall_lag_sum : int;
  wall_lag_max : int;
  repartitions : int;
  escalations : int;
}

type run = {
  records : T.record list;
  outcomes : (Txn.id * bool) list;
  stats : stats;
}

(* --- shared state --- *)

(* An owner's activity publication: a frozen registry view, the
   global-clock value read at capture, and the owner's quiescence
   summary.  The snapshot answers I_old and C_late exactly for
   arguments <= upto: every transaction of the owner's classes with a
   smaller initiation was ticked, registered and (if finished)
   finalized on the owner's own thread before the capture.

   [p_q] is a full per-class vector: [p_q.(c)] is I_old^c(upto) for
   classes the publisher owned at capture and [max_int] elsewhere, and
   [p_qmin] is the minimum over owned classes — the per-worker
   quiescence summary the coordinator folds in O(workers) instead of
   rescanning every class's history per release attempt (DESIGN.md
   §16).  A claim [p_q.(c) = v] means every class-c transaction with a
   smaller initiation has finished; after an ownership migration the
   coordinator folds the minimum over all workers, so a past owner's
   stale-but-true claim only tightens the bound and the current
   owner's barrier republication caps it correctly. *)
type pub = {
  p_snap : Registry.snapshot;
  p_upto : Time.t;
  p_q : Time.t array;
  p_qmin : Time.t;
}

type shared = {
  clock : Gclock.t;
  partition : P.t;
  workers : int;
  nseg : int;
  publish_every : int;
  stores : Pstore.view Atomic.t array;  (* per segment, set by its owner *)
  (* the wait-free cross-read service: per-class activity boards for
     I_old, per-segment version rings for the committed-but-unpublished
     version tail — what lets batched publication coexist with
     publication-freshness-hungry Protocol A reads (DESIGN.md §16) *)
  acts : Actboard.t;
  rings : Vring.t array;  (* per segment, appended by its owner *)
  (* owner faces of the per-segment packed stores.  Only the current
     owner of a segment's class touches its entry, and ownership only
     changes at a repartition barrier with every worker parked, so the
     handoff is ordered by the park/ack atomics — migrating a class
     transfers the live store without copying a byte. *)
  seg_stores : Pstore.t array;
  pubs : pub Atomic.t array;  (* per worker *)
  repub : bool Atomic.t array;  (* per worker: republication requests *)
  wall : Epochwall.t;
  (* --- dynamic decomposition (DESIGN.md §17) --- *)
  owner_map : int array Atomic.t;  (* class -> owning worker *)
  epoch : int Atomic.t;  (* partition epoch; bumped per repartition *)
  park : bool Atomic.t;  (* barrier request: quiesce between txns *)
  parked : bool Atomic.t array;  (* per worker: quiescent and published *)
  gone : bool Atomic.t array;  (* per worker: exited (counts as parked) *)
  gen : int Atomic.t;  (* barrier generation, bumped at each map swap *)
  acked : int Atomic.t array;  (* last gen each worker republished under *)
  stop : bool Atomic.t;  (* coordinator shutdown *)
  halt : bool Atomic.t;  (* timed mode: worker deadline *)
  (* --- hybrid CC (DESIGN.md §18) --- *)
  modes : int array Atomic.t;
  (* per-class CC mode: 0 = plain HDD (versions stamped with the
     initiation), 1 = escalated (versions stamped with a commit tick).
     Swapped only behind the same park barrier as the owner map, so a
     transaction always runs start to finish under one mode. *)
  esc_seq : int Atomic.t;  (* escalation sequence, bumped per mode swap *)
  class_commits : int array;
  (* cumulative commits per class, written by the class's owner between
     its own transactions and read racily by the coordinator's adaptive
     controller — a monotone heuristic signal, not a synchronized one *)
}

let owner sh class_id = Array.unsafe_get (Atomic.get sh.owner_map) class_id

type counters = {
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_reads_a : int;
  mutable n_reads_b : int;
  mutable n_reads_c : int;
  mutable n_writes : int;
  mutable n_pubs : int;
}

let fresh_counters () =
  { n_committed = 0; n_aborted = 0; n_reads_a = 0; n_reads_b = 0;
    n_reads_c = 0; n_writes = 0; n_pubs = 0 }

type wctx = {
  sh : shared;
  me : int;
  registry : Registry.t;
  mutable own_classes : int array;  (* refreshed at repartition barriers *)
  mutable my_gen : int;  (* last barrier generation observed *)
  trace : T.t option;
  c : counters;
  mutable outcomes : (Txn.id * bool) list;
  keep_outcomes : bool;
  mutable since_pub : int;  (* finished transactions since last publication *)
  mutable last_pruned_m : Time.t;
  (* write buffer, reused across transactions: one pending write per
     key (ts = init), flushed into the packed store on commit *)
  mutable wb_keys : int array;
  mutable wb_vals : int array;
  mutable wb_len : int;
  (* scratch for activity-board reads: [state; a_init; i1; e1; i2; e2] *)
  ab : int array;
  (* commit latencies, timed mode; flat float array, not a list *)
  mutable lat : float array;
  mutable lat_n : int;
  timed : bool;
}

(* Publication: store views first, activity second — any window the
   published snapshot exposes must already have its versions readable.
   The clock is read before the capture so [upto] never claims more
   than the snapshot holds.  Registry history below the released wall
   is pruned here, bounding snapshot cost by the active window rather
   than the whole run. *)
let publish_upto w upto =
  let sh = w.sh in
  Atomic.set sh.repub.(w.me) false;
  let wall_m = (Epochwall.read sh.wall).TW.m in
  if wall_m > w.last_pruned_m then begin
    w.last_pruned_m <- wall_m;
    Registry.prune w.registry ~upto:(wall_m - 1)
  end;
  let own = w.own_classes in
  for i = 0 to Array.length own - 1 do
    let seg = Array.unsafe_get own i in
    if Pstore.dirty_count sh.seg_stores.(seg) > 0 then
      Atomic.set sh.stores.(seg) (Pstore.publish sh.seg_stores.(seg))
  done;
  let q = Array.make sh.nseg max_int in
  for i = 0 to Array.length own - 1 do
    let c = Array.unsafe_get own i in
    q.(c) <- Registry.i_old w.registry ~class_id:c ~at:upto
  done;
  let qmin = Array.fold_left Time.min max_int q in
  Atomic.set sh.pubs.(w.me)
    { p_snap = Registry.snapshot w.registry; p_upto = upto; p_q = q;
      p_qmin = qmin };
  w.since_pub <- 0;
  w.c.n_pubs <- w.c.n_pubs + 1

let publish_pub w = publish_upto w (Gclock.now w.sh.clock)

(* A worker with no work left will register nothing ever again, so its
   final activity snapshot answers exactly for every argument: publish
   it with unbounded coverage, or waiters on this owner would spin
   forever once it exits. *)
let publish_final w = publish_upto w max_int

(* Serve a republication request aimed at this worker.  Requests come
   from waiters mid-cross-read and from a stuck coordinator; serving
   them between transactions is what lets batched publication keep the
   per-commit liveness of PR 5's publish-per-commit scheme. *)
let service_repub w =
  if Atomic.get w.sh.repub.(w.me) then publish_pub w

let own_classes_of_map map me =
  let n = ref 0 in
  Array.iter (fun o -> if o = me then incr n) map;
  let own = Array.make !n 0 in
  let j = ref 0 in
  Array.iteri
    (fun c o ->
      if o = me then begin
        own.(!j) <- c;
        incr j
      end)
    map;
  own

let refresh_own w =
  w.own_classes <- own_classes_of_map (Atomic.get w.sh.owner_map) w.me

(* Catch up with a repartition: recompute owned classes from the swapped
   map, republish under the new assignment (clearing any claim about a
   class that just migrated away and establishing the baseline claim for
   one that migrated in), and acknowledge the generation.  The
   coordinator holds every worker parked until all live workers have
   acknowledged, so no publication made under the old map can outlive
   the barrier. *)
let observe_gen w =
  let g = Atomic.get w.sh.gen in
  if g <> w.my_gen then begin
    refresh_own w;
    publish_pub w;
    w.my_gen <- g;
    Atomic.set w.sh.acked.(w.me) g
  end

(* The repartition barrier, worker side.  Called between transactions
   only: a parked worker is quiescent with everything published.  While
   parked it keeps serving republication requests (a waiter mid-cross-
   read on another worker must not deadlock against the barrier).  The
   parked flag is owned by this worker alone — set on entry, cleared on
   exit — and the coordinator waits for every flag to drop before it
   considers a barrier finished, so a flag it reads as set always means
   "currently quiescent", never a leftover from the previous barrier. *)
let check_park w =
  if Atomic.get w.sh.park then begin
    publish_pub w;
    Atomic.set w.sh.parked.(w.me) true;
    while Atomic.get w.sh.park do
      observe_gen w;
      service_repub w;
      Domain.cpu_relax ()
    done;
    Atomic.set w.sh.parked.(w.me) false
  end;
  observe_gen w

(* Wait for the owner of a class to have published activity covering
   argument [m].  The waiter posts a republication request to the owner
   and keeps serving requests aimed at itself: two workers awaiting
   each other mid-transaction unblock each other (a publication is
   valid at any instant — the current transaction simply shows as
   active). *)
let rec await_owner w ow m n =
  let pub = Atomic.get w.sh.pubs.(ow) in
  if pub.p_upto >= m then pub
  else begin
    Atomic.set w.sh.repub.(ow) true;
    service_repub w;
    (* back off once the owner is clearly descheduled (oversubscribed
       cores): spinning hot starves the very domain we wait for *)
    if n < 64 then Domain.cpu_relax () else Unix.sleepf 20e-6;
    await_owner w ow m (n + 1)
  end

(* Snapshot path for one I_old step: wait until the owner's published
   upto covers the argument — exact because I_old(a) is fixed once the
   clock passes [a]. *)
let slow_i_old w cls at =
  let pub = await_owner w (owner w.sh cls) at 0 in
  Registry.snap_i_old pub.p_snap ~class_id:cls ~at

(* Board path for one I_old step: read the class's activity record and
   answer from it, no publication needed.  Exact by the ordering
   argument in actboard.mli — observing [busy a] proves the running
   transaction's end tick is still ahead of this worker's own
   initiation, observing [idle] proves any unseen transaction's init
   is.  Transition states, arguments below the retained windows and
   seqlock retry exhaustion fall back to the snapshot path. *)
let fast_i_old w cls at =
  if Actboard.read_into w.sh.acts cls ~out:w.ab ~retries:64 then begin
    let r = Actboard.i_old_of_record w.ab ~at in
    if r >= 0 then r else slow_i_old w cls at
  end
  else slow_i_old w cls at

(* The I_old step of A_i^j(m) for the composition kernel.  Classes this
   worker owns are answered from the live local registry; remote
   classes from their activity boards — wait-free either way. *)
let a_step w cls m =
  if owner w.sh cls = w.me then Registry.i_old w.registry ~class_id:cls ~at:m
  else fast_i_old w cls m

(* Newest version of [key] strictly below [th] in a remote segment.
   The published view is complete at or below its publication's upto;
   the version ring carries the tail committed since, and holding any
   ring result or a clean floor crossing proves the splice covers the
   read.  Every version below a composed threshold also ends below it
   (class transactions are sequential: anything still running when the
   threshold was fixed capped it at its init), so when the ring has
   wrapped, a publication with upto >= th is complete by itself. *)
let rec read_remote_a w seg key th n =
  let pub = Atomic.get w.sh.pubs.(owner w.sh seg) in
  let v = Atomic.get w.sh.stores.(seg) in
  let r = Vring.latest_below w.sh.rings.(seg) ~key ~ts:th ~floor:pub.p_upto in
  if r > 0 then r
  else if r = 0 || pub.p_upto >= th then
    Pstore.view_latest_before v ~key ~ts:th
  else begin
    ignore (await_owner w (owner w.sh seg) th n);
    read_remote_a w seg key th (n + 16)
  end

let op_at w =
  match w.trace with Some _ -> Gclock.tick w.sh.clock | None -> 0

(* --- zero-allocation commit path helpers ---
   Top-level recursion instead of local closures, int results instead
   of tuples/options, trace events constructed only under [Some tr]:
   the Protocol B commit path allocates nothing at steady state, gated
   by the Gc-delta test over {!alloc_probe} (DESIGN.md §16). *)

let rec wb_find keys len key i =
  if i >= len then -1
  else if Array.unsafe_get keys i = key then i
  else wb_find keys len key (i + 1)

let wb_put w key v =
  let i = wb_find w.wb_keys w.wb_len key 0 in
  if i >= 0 then w.wb_vals.(i) <- v
  else begin
    if w.wb_len = Array.length w.wb_keys then begin
      let cap = Int.max 8 (2 * w.wb_len) in
      let ks = Array.make cap 0 and vs = Array.make cap 0 in
      Array.blit w.wb_keys 0 ks 0 w.wb_len;
      Array.blit w.wb_vals 0 vs 0 w.wb_len;
      w.wb_keys <- ks;
      w.wb_vals <- vs
    end;
    w.wb_keys.(w.wb_len) <- key;
    w.wb_vals.(w.wb_len) <- v;
    w.wb_len <- w.wb_len + 1
  end

let lat_push w v =
  if w.lat_n = Array.length w.lat then begin
    let bigger = Array.make (Int.max 64 (2 * w.lat_n)) 0. in
    Array.blit w.lat 0 bigger 0 w.lat_n;
    w.lat <- bigger
  end;
  w.lat.(w.lat_n) <- v;
  w.lat_n <- w.lat_n + 1

let rec run_update_ops w d cls init esc ops =
  match ops with
  | [] -> ()
  | op :: rest ->
    (match op with
    | Write (g, v) ->
      if g.Granule.segment <> cls then
        invalid_arg
          (Printf.sprintf "Engine: T%d writing outside root segment D%d" cls
             g.Granule.segment);
      wb_put w g.Granule.key v;
      w.c.n_writes <- w.c.n_writes + 1;
      (* escalated classes stamp versions at commit, so their Write
         records are deferred to the commit path where the stamp is
         known; plain classes emit the init-stamped record in place *)
      (match w.trace with
      | Some tr when not esc ->
        T.emit tr ~at:(op_at w)
          (T.Write
             { txn = d.d_id; segment = g.Granule.segment; key = g.Granule.key;
               ts = init })
      | Some _ | None -> ())
    | Read g ->
      let seg = g.Granule.segment in
      if seg = cls then begin
        (* Protocol B, domain-local: this domain runs class [cls] one
           transaction at a time, so the committed versions below
           [init] are the whole MVTO story — no pending versions to
           block on, no younger readers to reject for.  Own writes of
           this transaction are in the write buffer, not the store, and
           carry ts = init, which a read at [init] excludes anyway. *)
        let vts =
          Pstore.latest_before w.sh.seg_stores.(seg) ~key:g.Granule.key
            ~ts:init
        in
        w.c.n_reads_b <- w.c.n_reads_b + 1;
        match w.trace with
        | Some tr ->
          T.emit tr ~at:(op_at w)
            (T.Read
               { txn = d.d_id; protocol = T.B; segment = seg;
                 key = g.Granule.key; threshold = init; version = vts })
        | None -> ()
      end
      else begin
        if not (P.may_read w.sh.partition ~class_id:cls ~segment:seg) then
          invalid_arg
            (Printf.sprintf "Engine: T%d may not read D%d" cls seg);
        let th =
          Activity.threshold w.sh.partition ~i_old:a_step w ~from_class:cls
            ~to_class:seg init
        in
        (* own segments are served from the live local store — always
           complete; remote segments from the published view spliced
           with the owner's version ring *)
        let vts =
          if owner w.sh seg = w.me then
            Pstore.latest_before w.sh.seg_stores.(seg) ~key:g.Granule.key
              ~ts:th
          else read_remote_a w seg g.Granule.key th 0
        in
        w.c.n_reads_a <- w.c.n_reads_a + 1;
        match w.trace with
        | Some tr ->
          T.emit tr ~at:(op_at w)
            (T.Read
               { txn = d.d_id; protocol = T.A; segment = seg;
                 key = g.Granule.key; threshold = th; version = vts })
        | None -> ()
      end);
    run_update_ops w d cls init esc rest

let exec_update w d cls =
  let sh = w.sh in
  (* one mode read per transaction: modes only swap behind the park
     barrier, and transactions never span a barrier, so the whole
     transaction runs under the value read here *)
  let esc = Array.unsafe_get (Atomic.get sh.modes) cls <> 0 in
  let t0 = if w.timed then Unix.gettimeofday () else 0. in
  (* board transition before the init tick: a reader that still sees
     [idle] is guaranteed our init lands above its own initiation *)
  Actboard.begin_txn sh.acts cls;
  let init = Gclock.tick sh.clock in
  Registry.register_active w.registry ~class_id:cls ~id:d.d_id ~init;
  Actboard.set_busy sh.acts cls ~init;
  (match w.trace with
  | Some tr ->
    T.emit tr ~at:init (T.Begin { txn = d.d_id; kind = T.Update cls; init })
  | None -> ());
  w.wb_len <- 0;
  run_update_ops w d cls init esc d.d_ops;
  if d.d_abort then begin
    Actboard.set_ending sh.acts cls;
    let a = Gclock.tick sh.clock in
    Registry.finish_active w.registry ~class_id:cls ~endt:a;
    Actboard.set_idle sh.acts cls ~init ~endt:a;
    (match w.trace with
    | Some tr -> T.emit tr ~at:a (T.Abort { txn = d.d_id; at = a })
    | None -> ());
    w.c.n_aborted <- w.c.n_aborted + 1;
    if w.keep_outcomes then w.outcomes <- (d.d_id, false) :: w.outcomes
  end
  else begin
    (* install committed versions into the packed local store and the
       segment's version ring — the ring entries become visible in one
       atomic head store, and strictly before the closing window does:
       any reader that can name these versions can also find them *)
    let store = sh.seg_stores.(cls) in
    let ring = sh.rings.(cls) in
    let h0 = Vring.head ring in
    (* escalated classes serialize by commit order: versions carry a
       fresh commit stamp instead of the initiation.  The class is
       domain-sequential either way, so the next transaction's init
       still lands above this stamp and own Protocol B reads at init
       stay complete; cross readers are safe because any composed
       threshold is at most the init of an active escalated
       transaction, which is below its commit stamp (DESIGN.md §18). *)
    let ts = if esc then Gclock.tick sh.clock else init in
    for i = 0 to w.wb_len - 1 do
      let key = Array.unsafe_get w.wb_keys i in
      let value = Array.unsafe_get w.wb_vals i in
      Pstore.add_commit store ~key ~ts ~value;
      Vring.stage ring (h0 + i) ~ts ~key ~value
    done;
    Vring.advance ring (h0 + w.wb_len);
    (* deferred Write records: the commit stamp is only known here *)
    (match w.trace with
    | Some tr when esc ->
      for i = 0 to w.wb_len - 1 do
        T.emit tr ~at:(op_at w)
          (T.Write
             { txn = d.d_id; segment = cls; key = Array.unsafe_get w.wb_keys i;
               ts })
      done
    | Some _ | None -> ());
    (* board transition before the end tick: a reader still seeing
       [busy] is guaranteed our end lands above its own initiation *)
    Actboard.set_ending sh.acts cls;
    let e = Gclock.tick sh.clock in
    Registry.finish_active w.registry ~class_id:cls ~endt:e;
    Actboard.set_idle sh.acts cls ~init ~endt:e;
    (match w.trace with
    | Some tr -> T.emit tr ~at:e (T.Commit { txn = d.d_id; at = e })
    | None -> ());
    w.c.n_committed <- w.c.n_committed + 1;
    sh.class_commits.(cls) <- sh.class_commits.(cls) + 1;
    if w.timed then lat_push w (Unix.gettimeofday () -. t0);
    if w.keep_outcomes then w.outcomes <- (d.d_id, true) :: w.outcomes
  end;
  (* batched publication: once per K finished transactions; in between,
     only when a waiter or the coordinator asks *)
  w.since_pub <- w.since_pub + 1;
  if w.since_pub >= sh.publish_every then publish_pub w
  else service_repub w

let rec run_ro_ops w d (wall : TW.wall) ops =
  match ops with
  | [] -> ()
  | op :: rest ->
    (match op with
    | Write _ -> invalid_arg "Engine: read-only transaction writes"
    | Read g ->
      let seg = g.Granule.segment in
      let th = wall.TW.components.(seg) in
      let vts =
        Pstore.view_latest_before
          (Atomic.get w.sh.stores.(seg))
          ~key:g.Granule.key ~ts:th
      in
      w.c.n_reads_c <- w.c.n_reads_c + 1;
      match w.trace with
      | Some tr ->
        T.emit tr ~at:(op_at w)
          (T.Read
             { txn = d.d_id; protocol = T.C; segment = seg;
               key = g.Granule.key; threshold = th; version = vts })
      | None -> ());
    run_ro_ops w d wall rest

let exec_ro w d =
  let sh = w.sh in
  (* wall first, initiation tick second: released_at < init, always;
     the epoch-wall read is one epoch load and one slot load, no retry *)
  let wall = Epochwall.read sh.wall in
  let init = Gclock.tick sh.clock in
  (match w.trace with
  | Some tr ->
    T.emit tr ~at:init (T.Begin { txn = d.d_id; kind = T.Read_only; init })
  | None -> ());
  run_ro_ops w d wall d.d_ops;
  let e = Gclock.tick sh.clock in
  (match w.trace with
  | Some tr -> T.emit tr ~at:e (T.Commit { txn = d.d_id; at = e })
  | None -> ());
  w.c.n_committed <- w.c.n_committed + 1;
  if w.keep_outcomes then w.outcomes <- (d.d_id, true) :: w.outcomes

let exec w d =
  match d.d_kind with
  | `Update cls -> exec_update w d cls
  | `Read_only -> exec_ro w d

(* --- the wall coordinator --- *)

(* A release attempt that must wait: a publication does not cover a
   step's argument yet, or a straggler blocks a C_late. *)
exception Wall_stale

(* The coordinator's kernel steps over one fetch of the publications,
   indexed by class: a step whose argument its owner's publication does
   not cover is stale. *)
let covering (p : pub) a =
  if p.p_upto < a then raise Wall_stale;
  p.p_snap

let wall_i_old cls_pubs c a =
  Registry.snap_i_old (covering cls_pubs.(c) a) ~class_id:c ~at:a

let wall_c_late cls_pubs c a =
  Registry.snap_c_late (covering cls_pubs.(c) a) ~class_id:c ~at:a

(* The repartition barrier, coordinator side (DESIGN.md §17).  Three
   phases, all between transactions of every worker:

   1. Park: raise the park flag and wait until every live worker is
      quiescent and published (exited workers count — their final
      publication covers everything they will ever do).
   2. Swap: install the new owner map, bump the epoch and the barrier
      generation, then wait until every live worker has republished
      under the new map — this clears the old owner's claims about a
      migrated class and establishes the new owner's baseline before
      anyone runs again.
   3. Release: emit the {!Trace.event.Repartition} record at a fresh
      tick (every pre-barrier event is below it, every post-barrier
      event above — the monitor's no-active-in-flight rule) and drop
      the park flag, waiting for every parked flag to clear so a flag
      read as set always means "currently quiescent".

   Transactions never span a barrier, so every mid-transaction
   invariant (single-writer stores and rings, stable ownership for a
   composed threshold) holds without further synchronization.

   The same barrier carries per-class CC mode swaps (DESIGN.md §18):
   [swap] runs in the fully-quiesced window and returns the trace event
   describing what changed — a {!Trace.event.Repartition} for an owner
   map swap, a {!Trace.event.Escalation} for a mode vector swap. *)
let run_barrier sh ~swap trace =
  Atomic.set sh.park true;
  let quiet i = Atomic.get sh.parked.(i) || Atomic.get sh.gone.(i) in
  let rec wait p =
    if not (p ()) then begin
      Unix.sleepf 5e-6;
      wait p
    end
  in
  let all p =
    let rec go i = i >= sh.workers || (p i && go (i + 1)) in
    fun () -> go 0
  in
  wait (all quiet);
  let ev = swap () in
  let g = 1 + Atomic.fetch_and_add sh.gen 1 in
  wait (all (fun i -> Atomic.get sh.gone.(i) || Atomic.get sh.acked.(i) >= g));
  let at = Gclock.tick sh.clock in
  (match trace with Some tr -> T.emit tr ~at ev | None -> ());
  Atomic.set sh.park false;
  wait (all (fun i -> not (Atomic.get sh.parked.(i))))

(* Owner-map swap, run inside the barrier's quiesced window. *)
let repartition_swap sh ~target ~kind () =
  let old_map = Atomic.get sh.owner_map in
  let moved = ref [] in
  for c = sh.nseg - 1 downto 0 do
    if target.(c) <> old_map.(c) then moved := c :: !moved
  done;
  Atomic.set sh.owner_map (Array.copy target);
  let ep = 1 + Atomic.fetch_and_add sh.epoch 1 in
  T.Repartition { epoch = ep; kind; moved = !moved; fresh_store = false }

(* Mode-vector swap: every worker is between transactions, so no update
   transaction of any class is in flight when the stamping discipline
   changes — the monitor's escalation invariant. *)
let escalation_swap sh ~target () =
  Atomic.set sh.modes (Array.copy target);
  let seq = 1 + Atomic.fetch_and_add sh.esc_seq 1 in
  T.Escalation { seq; modes = Array.to_list target }

let rotated_map map workers =
  Array.map (fun o -> (o + 1) mod workers) map

let coordinator sh ~primary ~starts ~initial_m ?(plan = []) ?(mode_plan = [])
    ?control ?(rotate_every_s = 0.) trace =
  let nseg = sh.nseg in
  let last_m = ref initial_m in
  let releases = ref 0 and lag_sum = ref 0 and lag_max = ref 0 in
  let repartitions = ref 0 and escalations = ref 0 in
  let plan = ref plan in
  let mode_plan = ref mode_plan in
  let next_rotate =
    ref
      (if rotate_every_s > 0. then Unix.gettimeofday () +. rotate_every_s
       else infinity)
  in
  let stuck = ref 0 in
  while not (Atomic.get sh.stop) do
    (* repartition requests travel this path: one scripted plan step per
       poll iteration, or a periodic whole-map rotation in timed mode *)
    (match !plan with
    | (target, kind) :: rest ->
      plan := rest;
      run_barrier sh ~swap:(repartition_swap sh ~target ~kind) trace;
      incr repartitions
    | [] ->
      if Unix.gettimeofday () >= !next_rotate then begin
        next_rotate := Unix.gettimeofday () +. rotate_every_s;
        let target = rotated_map (Atomic.get sh.owner_map) sh.workers in
        run_barrier sh ~swap:(repartition_swap sh ~target ~kind:"migrate")
          trace;
        incr repartitions
      end);
    (* scripted mode swaps: one escalation barrier per poll iteration *)
    (match !mode_plan with
    | target :: rest ->
      mode_plan := rest;
      run_barrier sh ~swap:(escalation_swap sh ~target) trace;
      incr escalations
    | [] -> ());
    (* the closed-loop controller: fed a racy snapshot of cumulative
       per-class commits, it may ask for a live repartition; rate
       limiting and hysteresis live inside the controller *)
    (match control with
    | Some f -> (
      match f (Array.copy sh.class_commits) with
      | Some target ->
        run_barrier sh ~swap:(repartition_swap sh ~target ~kind:"auto") trace;
        incr repartitions
      | None -> ())
    | None -> ());
    (* one release attempt over a single fetch of every publication;
       the stability fold is O(workers) over worker-precomputed
       quiescence summaries, not O(classes x history) *)
    let advanced =
      try
        let omap = Atomic.get sh.owner_map in
        let pubs = Array.map Atomic.get sh.pubs in
        (* below q(i), class i is quiescent — every member with a
           smaller initiation has finished and its versions published.
           The fold over every worker keeps a past owner's stale-but-
           true claim in play only to tighten the bound. *)
        let q_of i =
          Array.fold_left (fun acc p -> Time.min acc p.p_q.(i)) max_int pubs
        in
        let m =
          Array.fold_left (fun acc p -> Time.min acc p.p_qmin) max_int pubs
        in
        (* m = max_int means every owner has published its final (exit)
           snapshot: the run is over, a wall there would be meaningless *)
        if m > !last_m && m < max_int then begin
          (* E_s^i(m) over the frozen views *)
          let components =
            match
              Activity.wall_components sh.partition ~starts ~i_old:wall_i_old
                ~c_late:wall_c_late
                (Array.map (Array.get pubs) omap)
                m
            with
            | Ok components -> components
            | Error _ -> raise Wall_stale
          in
          (* stability re-check against the published summaries: a
             component above q(i) could admit a version a class-i
             straggler has yet to publish; retry once they drain *)
          for i = 0 to nseg - 1 do
            if components.(i) > q_of i then raise Wall_stale
          done;
          let released_at = Gclock.tick sh.clock in
          let wall = TW.make ~s:primary ~m ~components ~released_at in
          Epochwall.publish sh.wall wall;
          (match trace with
          | None -> ()
          | Some tr ->
            T.emit tr ~at:released_at
              (T.Wall_release
                 { m; released_at; components = Array.copy components }));
          last_m := m;
          incr releases;
          let lag = released_at - m in
          lag_sum := !lag_sum + lag;
          if lag > !lag_max then lag_max := lag;
          true
        end
        else m >= max_int
      with Wall_stale -> false
    in
    (* batched publication bounds how far summaries lag behind the
       clock; when the wall fails to advance for two polls, ask every
       worker to republish rather than waiting out a full batch *)
    if advanced then stuck := 0
    else begin
      incr stuck;
      if !stuck >= 2 then begin
        stuck := 0;
        for i = 0 to sh.workers - 1 do
          Atomic.set sh.repub.(i) true
        done
      end
    end;
    Unix.sleepf (if sh.workers = 0 then 1e-3 else 1e-4)
  done;
  (!releases, !lag_sum, !lag_max, !repartitions, !escalations)

(* --- engine setup shared by both modes --- *)

type setup = {
  s_sh : shared;
  s_regs : Registry.t array;
  s_primary : int;
  s_starts : int array;
  s_initial_m : Time.t;
  s_coord_trace : T.t option;
}

let default_owner_map ~segments ~workers =
  Array.init segments (fun c -> c mod workers)

let setup ~partition ~init ~workers ~traced ~trace_capacity ~publish_every =
  if workers <= 0 then invalid_arg "Engine: workers must be > 0";
  if publish_every <= 0 then invalid_arg "Engine: publish_every must be > 0";
  (* bootstrap values no longer surface: reads report version
     timestamps only, so [init] is accepted for interface stability *)
  ignore (init : Granule.t -> int);
  let nseg = P.segment_count partition in
  let clock = Gclock.create () in
  let regs = Array.init workers (fun _ -> Registry.create ~classes:nseg ()) in
  (* the initial wall: trivially computable on the idle system, released
     before any worker starts so read-only transactions always find one *)
  let m0 = Gclock.tick clock in
  let released0 = Gclock.tick clock in
  let primary =
    match P.lowest_classes partition with s :: _ -> s | [] -> 0
  in
  let starts = TW.component_starts partition in
  let wall0 =
    TW.make ~s:primary ~m:m0 ~components:(Array.make nseg m0)
      ~released_at:released0
  in
  let omap0 = default_owner_map ~segments:nseg ~workers in
  let sh =
    { clock;
      partition;
      workers;
      nseg;
      publish_every;
      stores = Array.init nseg (fun _ -> Atomic.make Pstore.empty_view);
      acts = Actboard.create ~classes:nseg;
      rings = Array.init nseg (fun _ -> Vring.create ~entries:1024);
      seg_stores = Array.init nseg (fun _ -> Pstore.create ());
      pubs =
        Array.init workers (fun w ->
            let upto = Gclock.now clock in
            (* empty registries: I_old(c, upto) = upto for every class *)
            let q = Array.make nseg max_int in
            let owns = ref false in
            Array.iteri
              (fun c o ->
                if o = w then begin
                  q.(c) <- upto;
                  owns := true
                end)
              omap0;
            Atomic.make
              { p_snap = Registry.snapshot regs.(w);
                p_upto = upto;
                p_q = q;
                p_qmin = (if !owns then upto else max_int) });
      repub = Array.init workers (fun _ -> Atomic.make false);
      wall = Epochwall.create wall0;
      owner_map = Atomic.make omap0;
      epoch = Atomic.make 0;
      park = Atomic.make false;
      parked = Array.init workers (fun _ -> Atomic.make false);
      gone = Array.init workers (fun _ -> Atomic.make false);
      gen = Atomic.make 0;
      acked = Array.init workers (fun _ -> Atomic.make 0);
      stop = Atomic.make false;
      halt = Atomic.make false;
      modes = Atomic.make (Array.make nseg 0);
      esc_seq = Atomic.make 0;
      class_commits = Array.make nseg 0 }
  in
  let coord_trace =
    if traced then begin
      let tr = T.create ~capacity:trace_capacity ~domain:(workers + 1) () in
      T.emit tr ~at:released0
        (T.Wall_release
           { m = m0; released_at = released0;
             components = Array.make nseg m0 });
      Some tr
    end
    else None
  in
  { s_sh = sh; s_regs = regs; s_primary = primary; s_starts = starts;
    s_initial_m = m0; s_coord_trace = coord_trace }

let fresh_wctx sh ~me ~registry ~trace ~keep_outcomes ~timed =
  { sh;
    me;
    registry;
    own_classes = own_classes_of_map (Atomic.get sh.owner_map) me;
    my_gen = Atomic.get sh.gen;
    trace;
    c = fresh_counters ();
    outcomes = [];
    keep_outcomes;
    since_pub = 0;
    last_pruned_m = Time.zero;
    wb_keys = Array.make 8 0;
    wb_vals = Array.make 8 0;
    wb_len = 0;
    ab = Array.make 6 0;
    lat = (if timed then Array.make 1024 0. else [||]);
    lat_n = 0;
    timed }

let stats_of counters
    ~wall:(releases, lag_sum, lag_max, repartitions, escalations) =
  let committed = ref 0 and aborted = ref 0 and pubs = ref 0 in
  let ra = ref 0 and rb = ref 0 and rc = ref 0 and wr = ref 0 in
  Array.iter
    (fun c ->
      committed := !committed + c.n_committed;
      aborted := !aborted + c.n_aborted;
      ra := !ra + c.n_reads_a;
      rb := !rb + c.n_reads_b;
      rc := !rc + c.n_reads_c;
      wr := !wr + c.n_writes;
      pubs := !pubs + c.n_pubs)
    counters;
  { committed = !committed;
    aborted = !aborted;
    reads_a = !ra;
    reads_b = !rb;
    reads_c = !rc;
    writes = !wr;
    publications = !pubs;
    wall_releases = releases;
    wall_lag_sum = lag_sum;
    wall_lag_max = lag_max;
    repartitions;
    escalations }

(* --- script mode --- *)

let dummy_desc = { d_id = -1; d_kind = `Read_only; d_ops = []; d_abort = false }

let run_script ~partition ~init ?(plan = []) ?(mode_plan = [])
    (config : config) ~script =
  let s =
    setup ~partition ~init ~workers:config.workers ~traced:config.traced
      ~trace_capacity:config.trace_capacity
      ~publish_every:config.publish_every
  in
  let sh = s.s_sh in
  let traces =
    Array.init config.workers (fun w ->
        if config.traced then
          Some (T.create ~capacity:config.trace_capacity ~domain:(w + 1) ())
        else None)
  in
  (* Update descriptors are routed per class, not per worker: a live
     migration re-owns the class queue wholesale (its new owner simply
     starts draining it), so no in-flight descriptor is ever stranded
     in a mailbox whose worker no longer runs the class.  Read-only
     descriptors stay round-robin per worker — any worker can serve
     them. *)
  let cboxes =
    Array.init sh.nseg (fun _ ->
        Mailbox.create ~capacity:config.mailbox_capacity)
  in
  let roboxes =
    Array.init config.workers (fun _ ->
        Mailbox.create ~capacity:config.mailbox_capacity)
  in
  let worker w =
    let ctx =
      fresh_wctx sh ~me:w ~registry:s.s_regs.(w) ~trace:traces.(w)
        ~keep_outcomes:true ~timed:false
    in
    (* drain one publication batch per lock acquisition *)
    let batch =
      Int.max 1 (Int.min config.publish_every config.mailbox_capacity)
    in
    let buf = Array.make batch dummy_desc in
    (* a worker exits only when every queue in the system is drained:
       class ownership may still migrate to it while any queue holds
       work, and every class queue always has a live owner until then *)
    let drained_all () =
      Mailbox.is_drained roboxes.(w)
      && Array.for_all Mailbox.is_drained cboxes
    in
    let rec loop () =
      check_park ctx;
      let did = ref false in
      let drain box =
        let n = Mailbox.pop_into box buf ~max:batch in
        if n > 0 then begin
          did := true;
          for i = 0 to n - 1 do
            exec ctx buf.(i)
          done
        end
      in
      drain roboxes.(w);
      let own = ctx.own_classes in
      for i = 0 to Array.length own - 1 do
        drain cboxes.(own.(i))
      done;
      if !did then loop ()
      else if drained_all () then ()
      else begin
        (* idle: a fresh publication costs nothing we need and keeps
           waiters and the coordinator moving *)
        publish_pub ctx;
        Unix.sleepf 10e-6;
        loop ()
      end
    in
    loop ();
    publish_final ctx;
    Atomic.set sh.gone.(w) true;
    (ctx.outcomes, ctx.c)
  in
  let domains =
    Array.init config.workers (fun w -> Domain.spawn (fun () -> worker w))
  in
  let coord =
    Domain.spawn (fun () ->
        coordinator sh ~primary:s.s_primary ~starts:s.s_starts
          ~initial_m:s.s_initial_m ~plan ~mode_plan s.s_coord_trace)
  in
  Array.iter
    (fun d ->
      ignore
        (match d.d_kind with
        | `Update c -> Mailbox.push cboxes.(c) d
        | `Read_only ->
          let o =
            ((d.d_id mod config.workers) + config.workers)
            mod config.workers
          in
          Mailbox.push roboxes.(o) d))
    script;
  Array.iter Mailbox.close cboxes;
  Array.iter Mailbox.close roboxes;
  let results = Array.map Domain.join domains in
  Atomic.set sh.stop true;
  let wall_stats = Domain.join coord in
  let outcomes =
    Array.to_list results
    |> List.concat_map (fun (o, _) -> o)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let records =
    if config.traced then
      T.merged
        (List.filter_map Fun.id
           (Array.to_list traces @ [ s.s_coord_trace ]))
    else []
  in
  { records;
    outcomes;
    stats = stats_of (Array.map snd results) ~wall:wall_stats }

(* --- timed self-generating mode (benchmark) --- *)

type mix = {
  ro_frac : float;
  abort_frac : float;
  cross_reads : int;
  own_ops : int;
  keys_per_segment : int;
}

type timed = {
  t_stats : stats;
  t_elapsed_s : float;
  t_latency : Hdd_obs.Metrics.t;
}

let gen_desc sh mix prng ~id ~classes_mine ~readable =
  if Array.length classes_mine > 0 && Hdd_util.Prng.float prng 1. >= mix.ro_frac
  then begin
    let cls = Hdd_util.Prng.pick prng classes_mine in
    let key () = Hdd_util.Prng.int prng mix.keys_per_segment in
    let own =
      List.init (Int.max 1 mix.own_ops) (fun i ->
          let g = Granule.make ~segment:cls ~key:(key ()) in
          if i = 0 then Write (g, Hdd_util.Prng.int prng 1_000_000)
          else Read g)
    in
    let cross =
      match readable.(cls) with
      | [||] -> []
      | segs ->
        List.init mix.cross_reads (fun _ ->
            let seg = Hdd_util.Prng.pick prng segs in
            Read (Granule.make ~segment:seg ~key:(key ())))
    in
    { d_id = id;
      d_kind = `Update cls;
      d_ops = own @ cross;
      d_abort = Hdd_util.Prng.float prng 1. < mix.abort_frac }
  end
  else begin
    let nseg = sh.nseg in
    let ops =
      List.init (Int.max 1 mix.cross_reads) (fun _ ->
          let seg = Hdd_util.Prng.int prng nseg in
          Read
            (Granule.make ~segment:seg
               ~key:(Hdd_util.Prng.int prng mix.keys_per_segment)))
    in
    { d_id = id; d_kind = `Read_only; d_ops = ops; d_abort = false }
  end

let run_timed ~partition ~init ~workers ~seconds ?(wall_poll_s = 100e-6)
    ?(publish_every = 8) ?(rotate_every_s = 0.) ?control ~mix ~seed () =
  ignore wall_poll_s;
  let s =
    setup ~partition ~init ~workers ~traced:false ~trace_capacity:1024
      ~publish_every
  in
  let sh = s.s_sh in
  let nseg = sh.nseg in
  let readable =
    Array.init nseg (fun cls ->
        List.init nseg Fun.id
        |> List.filter (fun seg ->
               seg <> cls && P.may_read partition ~class_id:cls ~segment:seg)
        |> Array.of_list)
  in
  let worker w =
    let prng = Hdd_util.Prng.create (seed + (w * 7919)) in
    let ctx =
      fresh_wctx sh ~me:w ~registry:s.s_regs.(w) ~trace:None
        ~keep_outcomes:false ~timed:true
    in
    let next = ref (w + 1) in
    while not (Atomic.get sh.halt) do
      (* a live migration lands here: park, re-own, resume — the owned
         class set may have changed, so it is re-read every iteration *)
      check_park ctx;
      let d =
        gen_desc sh mix prng ~id:!next ~classes_mine:ctx.own_classes
          ~readable
      in
      next := !next + workers;
      exec ctx d;
      (* read-only streaks publish nothing on their own; requests from
         waiters and the coordinator are still served between
         transactions *)
      service_repub ctx
    done;
    publish_final ctx;
    Atomic.set sh.gone.(w) true;
    (ctx.c, ctx.lat, ctx.lat_n)
  in
  let domains = Array.init workers (fun w -> Domain.spawn (fun () -> worker w)) in
  let coord =
    Domain.spawn (fun () ->
        coordinator sh ~primary:s.s_primary ~starts:s.s_starts
          ~initial_m:s.s_initial_m ?control ~rotate_every_s None)
  in
  let t0 = Unix.gettimeofday () in
  Unix.sleepf seconds;
  Atomic.set sh.halt true;
  let results = Array.map Domain.join domains in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set sh.stop true;
  let wall_stats = Domain.join coord in
  let metrics = Hdd_obs.Metrics.create () in
  let hist = Hdd_obs.Metrics.histogram metrics "commit_latency_us" in
  Array.iter
    (fun (_, lat, lat_n) ->
      for i = 0 to lat_n - 1 do
        Hdd_obs.Metrics.observe hist (lat.(i) *. 1e6)
      done)
    results;
  { t_stats = stats_of (Array.map (fun (c, _, _) -> c) results) ~wall:wall_stats;
    t_elapsed_s = elapsed;
    t_latency = metrics }

(* --- allocation probe ---

   A single-domain steady-state commit loop: one writer class over a
   two-segment chain, one write + one own-segment Protocol B read + one
   Protocol A read of the owned higher segment per transaction (the
   composition kernel on the read path), publication deferred
   (publish_every = max_int), trace off, outcomes off — the pure commit
   path.  Periodic maintenance (watermark + prune) keeps
   the packed store and the registry window index at steady capacity so
   in-place compaction absorbs all growth.

   Bytes per commit are measured by differencing an N-commit window and
   a 2N-commit window, which cancels the constant allocation of the
   measurement itself (Gc.allocated_bytes boxes its result). *)

let probe_maintain ctx =
  let now = Gclock.now ctx.sh.clock in
  Pstore.set_watermark ctx.sh.seg_stores.(0) now;
  Registry.prune ctx.registry ~upto:(now - 1)

let rec probe_run ctx descs i n =
  if i < n then begin
    if i land 255 = 0 then probe_maintain ctx;
    exec_update ctx (Array.unsafe_get descs (i land 7)) 0;
    probe_run ctx descs (i + 1) n
  end

let alloc_probe ?(commits = 20_000) () =
  let partition =
    P.build_exn
      (Hdd_core.Spec.make ~segments:[ "D0"; "D1" ]
         ~types:
           [ Hdd_core.Spec.txn_type ~name:"t0" ~writes:[ 0 ] ~reads:[ 0; 1 ];
             Hdd_core.Spec.txn_type ~name:"t1" ~writes:[ 1 ] ~reads:[ 1 ] ])
  in
  let s =
    setup ~partition
      ~init:(fun _ -> 0)
      ~workers:1 ~traced:false ~trace_capacity:1024 ~publish_every:max_int
  in
  let ctx =
    fresh_wctx s.s_sh ~me:0 ~registry:s.s_regs.(0) ~trace:None
      ~keep_outcomes:false ~timed:false
  in
  let descs =
    Array.init 8 (fun i ->
        let g = Granule.make ~segment:0 ~key:i in
        let g1 = Granule.make ~segment:1 ~key:i in
        { d_id = i + 1; d_kind = `Update 0;
          d_ops = [ Write (g, i); Read g; Read g1 ]; d_abort = false })
  in
  (* reach steady-state capacities before measuring *)
  probe_run ctx descs 0 4096;
  let b0 = Gc.allocated_bytes () in
  probe_run ctx descs 0 commits;
  let b1 = Gc.allocated_bytes () in
  probe_run ctx descs 0 (2 * commits);
  let b2 = Gc.allocated_bytes () in
  ((b2 -. b1) -. (b1 -. b0)) /. float_of_int commits
