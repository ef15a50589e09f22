module T = Hdd_obs.Trace
module P = Hdd_core.Partition
module TW = Hdd_core.Timewall
module Activity = Hdd_core.Activity
module Pstore = Hdd_mvstore.Pstore
module E = Hdd_runtime.Engine

type config = {
  traced : bool;
  trace_capacity : int;
  stall_limit : int;
  publish_every : int;
}

let default_config =
  { traced = true; trace_capacity = 1 lsl 16; stall_limit = 2_000_000;
    publish_every = 1 }

(* The latest accepted publication of a remote shard. *)
type rpub = {
  r_seq : int;
  r_upto : Time.t;
  r_marks : int array;
  r_snap : Registry.snapshot;
}

type counters = {
  mutable n_committed : int;
  mutable n_aborted : int;
  mutable n_reads_a : int;
  mutable n_reads_b : int;
  mutable n_reads_c : int;
  mutable n_writes : int;
  mutable n_stale_waits : int;
  mutable n_wall_releases : int;
  mutable n_wall_lag_sum : int;
  mutable n_wall_lag_max : int;
}

type coord = {
  primary : int;
  starts : int array;
  mutable last_m : Time.t;
  mutable last_seen : Time.t;  (** clock value at the last attempt *)
}

type t = {
  partition : P.t;
  nseg : int;
  shards : int;
  me : int;
  init_fn : Granule.t -> int;
  net : Transport.t;
  clock : Sclock.t;
  registry : Registry.t;
  store : Pstore.t array;
      (** per segment: own segments authoritative, remote ones a
          delta-replicated cache; the node is single-threaded, so the
          owner face serves both *)
  applied : int array;  (** delta messages applied, per segment *)
  sent_marks : int array;  (** delta messages broadcast, per own segment *)
  mutable pub_seq : int;
  rpubs : rpub option array;  (** per shard *)
  mutable wall : TW.wall;
  trace : T.t option;
  c : counters;
  mutable outcomes : (Txn.id * bool) list;
  mutable on_wait : unit -> unit;
  stall_limit : int;
  publish_every : int;
  mutable since_pub : int;  (** commits since the last publication *)
  coord : coord option;
  (* process-mode work dispatch *)
  work : E.desc Queue.t;
  mutable drain_seen : bool;
  mutable bye : bool;
  (* 2PC baseline server state, per own segment *)
  locked : bool array;
  lock_waiters : (int * int) Queue.t array;  (** (requester shard, req) *)
  (* 2PC baseline client state *)
  mutable next_req : int;
  lock_replies : (int, bool) Hashtbl.t;
  read_replies : (int, (Time.t * int) list) Hashtbl.t;
}

let me t = t.me
let now t = Sclock.now t.clock
let set_on_wait t f = t.on_wait <- f
let owner t class_id = class_id mod t.shards
let outcomes t = List.rev t.outcomes
let trace t = t.trace
let records t = match t.trace with None -> [] | Some tr -> T.records tr
let take_work t = Queue.take_opt t.work
let drained t = t.drain_seen
let bye_seen t = t.bye

let counters t =
  { Wire.k_committed = t.c.n_committed;
    k_aborted = t.c.n_aborted;
    k_reads_a = t.c.n_reads_a;
    k_reads_b = t.c.n_reads_b;
    k_reads_c = t.c.n_reads_c;
    k_writes = t.c.n_writes;
    k_stale_waits = t.c.n_stale_waits;
    k_wall_releases = t.c.n_wall_releases;
    k_wall_lag_sum = t.c.n_wall_lag_sum;
    k_wall_lag_max = t.c.n_wall_lag_max }

let emit_at t ~at ev =
  match t.trace with None -> () | Some tr -> T.emit tr ~at ev

let op_at t =
  match t.trace with Some _ -> Sclock.tick t.clock | None -> 0

(* --- publications --- *)

let publish_upto t upto =
  t.since_pub <- 0;
  t.pub_seq <- t.pub_seq + 1;
  Transport.broadcast t.net ~stamp:(Sclock.now t.clock)
    (Wire.Pub
       { p_shard = t.me;
         p_seq = t.pub_seq;
         p_upto = upto;
         p_marks = Array.copy t.sent_marks;
         p_snap = Registry.snapshot t.registry })

(* The capture reads the clock first, so [upto] never claims more than
   the snapshot holds: everything of this shard's initiating later
   ticks later. *)
let publish t = publish_upto t (Sclock.now t.clock)
let publish_final t = publish_upto t max_int

(* --- receiving --- *)

(* Segment indices and keys off the wire are checked before they index
   anything: a segment must be in range and owned by [by] — the sender
   of a delta, the addressee of a lock or read request — and keys are
   never negative. *)
let owned_by t ~by segment =
  segment >= 0 && segment < t.nseg && owner t segment = by

let refuse t what segment =
  invalid_arg (Printf.sprintf "Node %d: malformed %s for D%d" t.me what segment)

let apply_delta t ~src (d : Wire.delta) =
  let seg = d.Wire.dl_segment in
  (* a delta never overwrites the receiver's own, authoritative store *)
  if src = t.me || (not (owned_by t ~by:src seg))
     || List.exists (fun (key, _, _) -> key < 0) d.Wire.dl_versions
  then refuse t "delta" seg;
  List.iter
    (fun (key, ts, value) -> Pstore.add_commit t.store.(seg) ~key ~ts ~value)
    d.Wire.dl_versions;
  t.applied.(seg) <- t.applied.(seg) + 1

let serve_local t ~segment ~key ~th =
  match Pstore.latest_before_pair t.store.(segment) ~key ~ts:th with
  | Some (vts, v) -> [ (vts, v) ]
  | None -> []

let handle t (pkt : Wire.packet) =
  Sclock.catch_up t.clock pkt.Wire.stamp;
  match pkt.Wire.msg with
  | Wire.Pub p ->
    let keep =
      match t.rpubs.(p.Wire.p_shard) with
      | Some old -> old.r_seq < p.Wire.p_seq
      | None -> true
    in
    if keep then
      t.rpubs.(p.Wire.p_shard) <-
        Some
          { r_seq = p.Wire.p_seq;
            r_upto = p.Wire.p_upto;
            r_marks = p.Wire.p_marks;
            r_snap = p.Wire.p_snap }
  | Wire.Delta d -> apply_delta t ~src:pkt.Wire.src d
  | Wire.Wall w ->
    if w.TW.released_at > t.wall.TW.released_at then begin
      let advanced = w.TW.m > t.wall.TW.m in
      t.wall <- w;
      (* wall-driven registry GC, as in the serial scheduler: no
         composition or wall query ever reaches below the wall's
         argument [m], so windows closed under it are dead weight —
         and publication cost is O(retained windows), so without this
         every snapshot broadcast grows with history *)
      if advanced then Registry.prune t.registry ~upto:(w.TW.m - 1)
    end
  | Wire.Exec d -> Queue.add d t.work
  | Wire.Drain -> t.drain_seen <- true
  | Wire.Bye _ -> t.bye <- true
  | Wire.Lock_req { req; segment } ->
    if not (owned_by t ~by:t.me segment) then refuse t "lock request" segment;
    if t.locked.(segment) then Queue.add (pkt.Wire.src, req) t.lock_waiters.(segment)
    else begin
      t.locked.(segment) <- true;
      Transport.send_to t.net ~dst:pkt.Wire.src ~stamp:(Sclock.now t.clock)
        (Wire.Lock_reply { req; granted = true })
    end
  | Wire.Unlock { segment } -> (
    if not (owned_by t ~by:t.me segment) then refuse t "unlock" segment;
    match Queue.take_opt t.lock_waiters.(segment) with
    | Some (dst, req) ->
      Transport.send_to t.net ~dst ~stamp:(Sclock.now t.clock)
        (Wire.Lock_reply { req; granted = true })
    | None -> t.locked.(segment) <- false)
  | Wire.Read_req { req; segment; key; threshold } ->
    if key < 0 || not (owned_by t ~by:t.me segment) then
      refuse t "read request" segment;
    Transport.send_to t.net ~dst:pkt.Wire.src ~stamp:(Sclock.now t.clock)
      (Wire.Read_reply
         { req; slice = serve_local t ~segment ~key ~th:threshold })
  | Wire.Lock_reply { req; granted } -> Hashtbl.replace t.lock_replies req granted
  | Wire.Read_reply { req; slice } -> Hashtbl.replace t.read_replies req slice
  | Wire.Outcome _ | Wire.Trace_slice _ -> ()  (* router traffic, not ours *)

(* --- the wall coordinator (shard 0) --- *)

(* A release attempt that must wait: a publication does not cover a
   step's argument yet, or a straggler blocks a C_late. *)
exception Wall_stale

(* The coordinator's kernel steps over per-class (snapshot, upto)
   publications: a step whose argument its publication does not cover
   is stale. *)
let covering (snap, upto) a =
  if upto < a then raise Wall_stale;
  snap

let wall_i_old pubs c a =
  Registry.snap_i_old (covering pubs.(c) a) ~class_id:c ~at:a

let wall_c_late pubs c a =
  Registry.snap_c_late (covering pubs.(c) a) ~class_id:c ~at:a

let coordinator_attempt t co =
  let now_ = Sclock.now t.clock in
  if now_ <> co.last_seen then begin
    co.last_seen <- now_;
    try
      let own = (Registry.snapshot t.registry, now_) in
      let pubs =
        Array.init t.nseg (fun c ->
            if owner t c = t.me then own
            else
              match t.rpubs.(owner t c) with
              | Some p -> (p.r_snap, p.r_upto)
              | None -> raise Wall_stale)
      in
      let q =
        Array.mapi
          (fun c (snap, upto) -> Registry.snap_i_old snap ~class_id:c ~at:upto)
          pubs
      in
      let m = Array.fold_left Time.min q.(0) q in
      if m > co.last_m && m < max_int then begin
        let components =
          match
            Activity.wall_components t.partition ~starts:co.starts
              ~i_old:wall_i_old ~c_late:wall_c_late pubs m
          with
          | Ok components -> components
          | Error _ -> raise Wall_stale
        in
        (* stability: a component above q.(i) could admit a version a
           class-i straggler has yet to replicate *)
        Array.iteri (fun i v -> if v > q.(i) then raise Wall_stale) components;
        let released_at = Sclock.tick t.clock in
        let wall = TW.make ~s:co.primary ~m ~components ~released_at in
        t.wall <- wall;
        Transport.broadcast t.net ~stamp:released_at (Wire.Wall wall);
        emit_at t ~at:released_at
          (T.Wall_release
             { m; released_at; components = Array.copy components });
        co.last_m <- m;
        Registry.prune t.registry ~upto:(m - 1);
        t.c.n_wall_releases <- t.c.n_wall_releases + 1;
        let lag = released_at - m in
        t.c.n_wall_lag_sum <- t.c.n_wall_lag_sum + lag;
        if lag > t.c.n_wall_lag_max then t.c.n_wall_lag_max <- lag
      end
    with Wall_stale -> ()
  end

let pump t =
  let rec drain () =
    match t.net.Transport.poll () with
    | Some pkt ->
      handle t pkt;
      drain ()
    | None -> ()
  in
  drain ();
  match t.coord with Some co -> coordinator_attempt t co | None -> ()

(* --- waiting --- *)

(* Republish-then-pump until [check] holds.  Republishing our own
   activity is what unblocks a peer that is itself waiting for our
   coverage; the hook lets the cluster pump other nodes (deterministic
   mode) or yield the core (domain/process mode). *)
let await t ~why check =
  if not (check ()) then begin
    t.c.n_stale_waits <- t.c.n_stale_waits + 1;
    let n = ref 0 in
    while not (check ()) do
      incr n;
      if !n > t.stall_limit then
        failwith
          (Printf.sprintf "Shard node %d: stalled waiting for %s" t.me why);
      publish t;
      t.on_wait ();
      pump t
    done
  end

(* The owner's publication covering argument [m] — the step of the
   threshold composition that crosses a shard boundary. *)
let await_pub t ~class_id m =
  let ow = owner t class_id in
  await t
    ~why:(Printf.sprintf "a publication of shard %d covering %d" ow m)
    (fun () ->
      match t.rpubs.(ow) with Some p -> p.r_upto >= m | None -> false);
  match t.rpubs.(ow) with Some p -> p | None -> assert false

(* The I_old step of A_i^j(m) for the composition kernel: local classes
   from the live registry, remote ones from received publications. *)
let a_step t cls m =
  if owner t cls = t.me then Registry.i_old t.registry ~class_id:cls ~at:m
  else
    let pub = await_pub t ~class_id:cls m in
    Registry.snap_i_old pub.r_snap ~class_id:cls ~at:m

(* Wait until the cache of remote segment [seg] provably holds every
   committed version below [th]: the owner's publication must cover the
   times queried, show class [seg] quiescent {e strictly} below [th],
   and every delta the publication counts must have been applied here.
   Strictly: versions carry their writer's initiation time and
   [latest_before]/the monitors are exclusive at the threshold, so a
   transaction initiated {e at} [th] can never serve — quiescence at
   [th - 1] is enough.  That exactness is what makes the wait cheap:
   [th] is typically an [I_old], the initiation time of the owner's
   oldest {e active} transaction, and the same snapshot that yielded it
   already shows everything below it finished — demanding [c_late]
   computable at [th] itself would stall every cross-shard read behind
   the owner's in-flight transaction.  A dropped or stale publication
   just fails the check a while longer — waiting, never
   inconsistency. *)
let await_store t ~seg ~th =
  let ow = owner t seg in
  await t
    ~why:
      (Printf.sprintf "segment D%d of shard %d to quiesce below %d" seg ow th)
    (fun () ->
      match t.rpubs.(ow) with
      | None -> false
      | Some p ->
        p.r_upto >= th - 1
        && t.applied.(seg) >= p.r_marks.(seg)
        && (match Registry.snap_c_late p.r_snap ~class_id:seg ~at:(th - 1) with
           | Ok _ -> true
           | Error _ -> false))

let bootstrap t g = (Time.zero, t.init_fn g)

let serve t ~segment ~key ~th =
  match serve_local t ~segment ~key ~th with
  | (vts, v) :: _ -> (vts, v)
  | [] -> bootstrap t (Granule.make ~segment ~key)

(* --- transaction execution --- *)

let exec_update t (d : E.desc) cls =
  let init = Sclock.tick t.clock in
  let txn = Txn.make ~id:d.E.d_id ~kind:(Txn.Update cls) ~init in
  Registry.register_in t.registry ~class_id:cls txn;
  emit_at t ~at:init (T.Begin { txn = d.E.d_id; kind = T.Update cls; init });
  let pending = ref [] in
  List.iter
    (fun op ->
      match op with
      | E.Write (g, v) ->
        if g.Granule.segment <> cls then
          invalid_arg
            (Printf.sprintf "Shard node: T%d writing outside root segment D%d"
               cls g.Granule.segment);
        pending :=
          (g, v)
          :: List.filter (fun (g', _) -> not (Granule.equal g g')) !pending;
        t.c.n_writes <- t.c.n_writes + 1;
        emit_at t ~at:(op_at t)
          (T.Write
             { txn = d.E.d_id; segment = g.Granule.segment;
               key = g.Granule.key; ts = init })
      | E.Read g ->
        let seg = g.Granule.segment in
        if seg = cls then begin
          (* Protocol B: this node runs class [cls] one transaction at
             a time against its own authoritative store *)
          let vts, _ = serve t ~segment:seg ~key:g.Granule.key ~th:init in
          t.c.n_reads_b <- t.c.n_reads_b + 1;
          emit_at t ~at:(op_at t)
            (T.Read
               { txn = d.E.d_id; protocol = T.B; segment = seg;
                 key = g.Granule.key; threshold = init; version = vts })
        end
        else begin
          if not (P.may_read t.partition ~class_id:cls ~segment:seg) then
            invalid_arg
              (Printf.sprintf "Shard node: T%d may not read D%d" cls seg);
          let th =
            Activity.threshold t.partition ~i_old:a_step t ~from_class:cls
              ~to_class:seg init
          in
          if owner t seg <> t.me then await_store t ~seg ~th;
          let vts, _ = serve t ~segment:seg ~key:g.Granule.key ~th in
          t.c.n_reads_a <- t.c.n_reads_a + 1;
          emit_at t ~at:(op_at t)
            (T.Read
               { txn = d.E.d_id; protocol = T.A; segment = seg;
                 key = g.Granule.key; threshold = th; version = vts })
        end)
    d.E.d_ops;
  if d.E.d_abort then begin
    let a = Sclock.tick t.clock in
    Txn.abort txn ~at:a;
    emit_at t ~at:a (T.Abort { txn = d.E.d_id; at = a });
    t.c.n_aborted <- t.c.n_aborted + 1;
    t.outcomes <- (d.E.d_id, false) :: t.outcomes
  end
  else begin
    let e = Sclock.tick t.clock in
    Txn.commit txn ~at:e;
    let touched = ref [] in
    List.iter
      (fun ((g : Granule.t), v) ->
        let seg = g.segment in
        Pstore.add_commit t.store.(seg) ~key:g.key ~ts:init ~value:v;
        let batch =
          match List.assoc_opt seg !touched with Some b -> b | None -> []
        in
        touched :=
          (seg, (g.key, init, v) :: batch)
          :: List.remove_assoc seg !touched)
      !pending;
    (* replicate before publishing: by the time any publication shows
       this transaction finished, its versions are already on the wire
       (FIFO), so a reader passing the marks check holds them *)
    List.iter
      (fun (seg, versions) ->
        Transport.broadcast t.net ~stamp:(Sclock.now t.clock)
          (Wire.Delta
             { dl_shard = t.me; dl_segment = seg;
               dl_versions = List.rev versions });
        t.sent_marks.(seg) <- t.sent_marks.(seg) + 1)
      !touched;
    emit_at t ~at:e (T.Commit { txn = d.E.d_id; at = e });
    t.c.n_committed <- t.c.n_committed + 1;
    t.outcomes <- (d.E.d_id, true) :: t.outcomes
  end;
  (* batched publication: amortize the snapshot + broadcast over K
     transactions.  Deltas (the versions themselves) already shipped
     above regardless of K; what batching delays is only how soon peers
     see this shard's refreshed activity intervals, and [await]'s
     unconditional republication bounds that delay whenever anyone is
     actually waiting on us. *)
  t.since_pub <- t.since_pub + 1;
  if t.since_pub >= t.publish_every then publish t

let exec_ro t (d : E.desc) =
  (* wall first, initiation tick second: released_at < init, always *)
  let wall = t.wall in
  let init = Sclock.tick t.clock in
  emit_at t ~at:init (T.Begin { txn = d.E.d_id; kind = T.Read_only; init });
  List.iter
    (fun op ->
      match op with
      | E.Write _ -> invalid_arg "Shard node: read-only transaction writes"
      | E.Read g ->
        let seg = g.Granule.segment in
        let th = TW.threshold wall ~class_id:seg in
        (* th = 0 can only serve the bootstrap value — nothing to wait for *)
        if owner t seg <> t.me && th > Time.zero then await_store t ~seg ~th;
        let vts, _ = serve t ~segment:seg ~key:g.Granule.key ~th in
        t.c.n_reads_c <- t.c.n_reads_c + 1;
        emit_at t ~at:(op_at t)
          (T.Read
             { txn = d.E.d_id; protocol = T.C; segment = seg;
               key = g.Granule.key; threshold = th; version = vts }))
    d.E.d_ops;
  let e = Sclock.tick t.clock in
  emit_at t ~at:e (T.Commit { txn = d.E.d_id; at = e });
  t.c.n_committed <- t.c.n_committed + 1;
  t.outcomes <- (d.E.d_id, true) :: t.outcomes

let exec t (d : E.desc) =
  match d.E.d_kind with
  | `Update cls -> exec_update t d cls
  | `Read_only -> exec_ro t d

(* --- the 2PC-read baseline --- *)

let read_2pc t ~segment ~key =
  t.c.n_reads_a <- t.c.n_reads_a + 1;
  if owner t segment = t.me then
    serve t ~segment ~key ~th:max_int
  else begin
    let ow = owner t segment in
    let req = t.next_req in
    t.next_req <- t.next_req + 1;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Lock_req { req; segment });
    await t ~why:(Printf.sprintf "lock grant for D%d" segment) (fun () ->
        Hashtbl.mem t.lock_replies req);
    Hashtbl.remove t.lock_replies req;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Read_req { req; segment; key; threshold = max_int });
    await t ~why:(Printf.sprintf "read reply for D%d" segment) (fun () ->
        Hashtbl.mem t.read_replies req);
    let slice =
      match Hashtbl.find_opt t.read_replies req with
      | Some s -> s
      | None -> []
    in
    Hashtbl.remove t.read_replies req;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Unlock { segment });
    match slice with
    | (vts, v) :: _ -> (vts, v)
    | [] -> bootstrap t (Granule.make ~segment ~key)
  end

let commit_local t ~segment ~key ~value =
  if owner t segment <> t.me then
    invalid_arg "Node.commit_local: not an owned segment";
  let ts = Sclock.tick t.clock in
  Pstore.add_commit t.store.(segment) ~key ~ts ~value;
  t.c.n_writes <- t.c.n_writes + 1;
  t.c.n_committed <- t.c.n_committed + 1

(* --- creation --- *)

let create ?(config = default_config) ~partition ~init ~net () =
  let shards = net.Transport.nodes and me = net.Transport.me in
  let nseg = P.segment_count partition in
  let clock = Sclock.create ~shards ~me in
  let trace =
    if config.traced then
      Some (T.create ~capacity:config.trace_capacity ~domain:(me + 1) ())
    else None
  in
  let primary =
    match P.lowest_classes partition with s :: _ -> s | [] -> 0
  in
  (* The bootstrap wall, identical on every node without a message:
     components all 1 — the only version below 1 is the bootstrap
     value, and no tick ever stamps below 1, so it is sound forever —
     released "at" 0, before every initiation, so read-only work never
     finds the slot empty.  (All-zero components would be sound too,
     but a C-read at threshold 0 would have to serve version 0, which
     the monitors rightly reject as not-below-threshold.) *)
  let wall0 =
    TW.make ~s:primary ~m:1
      ~components:(Array.make nseg 1)
      ~released_at:Time.zero
  in
  let coord =
    if me = 0 then
      Some
        { primary;
          starts = TW.component_starts partition;
          last_m = Time.zero;
          last_seen = -1 }
    else None
  in
  let t =
    { partition;
      nseg;
      shards;
      me;
      init_fn = init;
      net;
      clock;
      registry = Registry.create ?trace ~classes:nseg ();
      store = Array.init nseg (fun _ -> Pstore.create ());
      applied = Array.make nseg 0;
      sent_marks = Array.make nseg 0;
      pub_seq = 0;
      rpubs = Array.make shards None;
      wall = wall0;
      trace;
      c =
        { n_committed = 0; n_aborted = 0; n_reads_a = 0; n_reads_b = 0;
          n_reads_c = 0; n_writes = 0; n_stale_waits = 0;
          n_wall_releases = 0; n_wall_lag_sum = 0; n_wall_lag_max = 0 };
      outcomes = [];
      on_wait = (fun () -> ());
      stall_limit = config.stall_limit;
      publish_every = Int.max 1 config.publish_every;
      since_pub = 0;
      coord;
      work = Queue.create ();
      drain_seen = false;
      bye = false;
      locked = Array.make nseg false;
      lock_waiters = Array.init nseg (fun _ -> Queue.create ());
      next_req = 0;
      lock_replies = Hashtbl.create 16;
      read_replies = Hashtbl.create 16 }
  in
  (match t.trace, coord with
  | Some tr, Some _ ->
    T.emit tr ~at:Time.zero
      (T.Wall_release
         { m = 1; released_at = Time.zero;
           components = Array.make nseg 1 })
  | _ -> ());
  t
