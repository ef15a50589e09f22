(* The closed loop serial-chain8 and durable-writes share: eight
   transactions in flight, advanced one call at a time in round-robin
   order, each finished or restarted transaction replaced by the next
   template of the pool.  Every decision depends only on the pool and on
   the scheduler's answers, so a run stopped on a commit count repeats
   exactly for a seed.

   With [spans] every call into the layer gets a span whose parent is the
   client step that issued it; the step span holds the client's own
   work. *)

module S = Hdd_core.Scheduler
module O = Hdd_core.Outcome
module Store = Hdd_mvstore.Store

type backend = {
  prefix : string;  (** the module called: span and metric names start with it *)
  begin_update : int -> Txn.t;
  begin_ro : unit -> Txn.t;
  read : Txn.t -> Granule.t -> int O.t;
  write : Txn.t -> Granule.t -> int -> unit O.t;
  commit : Txn.t -> t0:int -> unit;  (** [t0]: when the transaction began *)
  abort : Txn.t -> unit;
  after_step : parent:int -> unit;  (** backend upkeep between steps *)
}

type stop = Commits of int | Seconds of float

type counts = {
  mutable begins : int;
  mutable upd_begins : int;
  mutable commits : int;
  mutable upd_commits : int;
  mutable restarts : int;  (** aborts after Blocked/Rejected *)
  mutable cut : int;  (** in flight when the run stopped, aborted *)
  mutable reads_a : int;
  mutable reads_b : int;
  mutable reads_c : int;
  mutable writes : int;
  mutable blocks : int;
  mutable rejects : int;
  mutable violations : int;  (** A or C reads that blocked or were rejected *)
}

type gauges = {
  versions : int;
  max_chain : int;
  records : int;
  windows : int;
  wall_releases : int;
}

type result = {
  elapsed_s : float;
  c : counts;
  upd_lat_ns : Pstats.Hist.t;  (** begin to commit return, update transactions *)
  ro_lat_ns : Pstats.Hist.t;
  windows : Pstats.Windows.t;
  gauges : gauges array;  (** sampled at each window mark *)
  commit_call_ns : Pstats.Hist.t;  (** traced runs only *)
  snapshot : S.metrics option;  (** scheduler metrics when commits reached [snap_at] *)
  last_ts : int array;  (** per granule: newest committed write's timestamp *)
  last_value : int array;
}

let slots = 8

let span_names prefix = "bench.step" :: List.map (fun c -> prefix ^ "." ^ c) Common.call_kinds

let gauges_of sched store =
  let reg = S.registry sched in
  let classes = Registry.class_count reg in
  let sum f = List.fold_left (fun acc c -> acc + f reg ~class_id:c) 0 (List.init classes Fun.id) in
  { versions = Store.version_count store;
    max_chain = Store.max_chain_length store;
    records = sum Registry.record_count;
    windows = sum Registry.window_count;
    wall_releases = Hdd_core.Timewall.release_count (S.wall_manager sched) }

let value_of ~seq ~pc = (seq * 8) + pc

let run ?spans ?snap_at ~backend ~sched ~store ~keys ~(pool : Mixgen.tmpl array) ~stop () =
  let nid name = match spans with Some sp -> Spans.id sp name | None -> 0 in
  let id_step = nid "bench.step" in
  let id_of c = nid (backend.prefix ^ "." ^ c) in
  let id_begin = id_of "begin" and id_write = id_of "write" and id_commit = id_of "commit" in
  let id_abort = id_of "abort" in
  let id_ra = id_of "read_a" and id_rb = id_of "read_b" and id_rc = id_of "read_c" in
  let sopen name parent txn =
    match spans with None -> -1 | Some sp -> Spans.open_ sp ~name ~parent ~txn
  in
  let sclose i = match spans with None -> 0 | Some sp -> Spans.close sp i in
  let c =
    { begins = 0; upd_begins = 0; commits = 0; upd_commits = 0; restarts = 0; cut = 0;
      reads_a = 0; reads_b = 0; reads_c = 0; writes = 0; blocks = 0; rejects = 0;
      violations = 0 }
  in
  let busy = Array.make slots false and txn = Array.make slots Txn.bootstrap in
  let tm = Array.make slots 0 and pc = Array.make slots 0 in
  let t0 = Array.make slots 0 and seq = Array.make slots 0 in
  let npool = Array.length pool in
  let segments = Store.segment_count store in
  let last_ts = Array.make (segments * keys) 0 and last_value = Array.make (segments * keys) 0 in
  let upd_lat = Pstats.Hist.create () and ro_lat = Pstats.Hist.create () in
  let commit_ns = Pstats.Hist.create () in
  let gauges = ref [] and snapshot = ref None in
  let start = Clock.now_ns () in
  let q, deadline =
    match stop with
    | Commits n -> (Pstats.Windows.create (Count n), max_int)
    | Seconds s -> (Pstats.Windows.create (Time s), start + int_of_float (s *. 1e9))
  in
  let running = ref true in
  let restart s st =
    let x = txn.(s) in
    let i = sopen id_abort st x.Txn.id in
    backend.abort x;
    ignore (sclose i);
    busy.(s) <- false;
    c.restarts <- c.restarts + 1
  in
  let refused s st (proto : Mixgen.proto) =
    if proto <> B then c.violations <- c.violations + 1;
    restart s st
  in
  let begin_txn s st =
    let k = c.begins mod npool in
    let tp = pool.(k) in
    c.begins <- c.begins + 1;
    let now = Clock.now_ns () in
    let i = sopen id_begin st 0 in
    let x = if tp.cls >= 0 then backend.begin_update tp.cls else backend.begin_ro () in
    ignore (sclose i);
    (match spans with Some sp -> Spans.set_txn sp i x.Txn.id | None -> ());
    if tp.cls >= 0 then c.upd_begins <- c.upd_begins + 1;
    txn.(s) <- x;
    tm.(s) <- k;
    pc.(s) <- 0;
    t0.(s) <- now;
    seq.(s) <- c.begins;
    busy.(s) <- true
  in
  let finish s st (tp : Mixgen.tmpl) =
    let x = txn.(s) in
    let i = sopen id_commit st x.Txn.id in
    backend.commit x ~t0:t0.(s);
    let d = sclose i in
    let now = Clock.now_ns () in
    if spans <> None then Pstats.Hist.add commit_ns d;
    busy.(s) <- false;
    c.commits <- c.commits + 1;
    if tp.cls >= 0 then begin
      Pstats.Hist.add upd_lat (now - t0.(s));
      c.upd_commits <- c.upd_commits + 1;
      Array.iteri
        (fun p (op : Mixgen.op) ->
          if op.write then begin
            let k = (op.g.Granule.segment * keys) + op.g.Granule.key in
            if x.Txn.init >= last_ts.(k) then begin
              last_ts.(k) <- x.Txn.init;
              last_value.(k) <- value_of ~seq:seq.(s) ~pc:p
            end
          end)
        tp.ops
    end
    else Pstats.Hist.add ro_lat (now - t0.(s));
    let t = float_of_int (now - start) /. 1e9 in
    if Pstats.Windows.observe q ~t ~n:c.commits then gauges := gauges_of sched store :: !gauges;
    (match snap_at with
    | Some k when k = c.commits ->
      (* a copy: the scheduler keeps counting in the record it returns *)
      let m = S.metrics sched in
      snapshot := Some { m with S.begins = m.S.begins }
    | _ -> ());
    match stop with
    | Commits n -> if c.commits >= n then running := false
    | Seconds _ -> if now >= deadline then running := false
  in
  let step s =
    let st = sopen id_step (-1) 0 in
    (if not busy.(s) then begin_txn s st
     else begin
       let tp = pool.(tm.(s)) in
       let p = pc.(s) in
       if p = Array.length tp.ops then finish s st tp
       else begin
         let op = tp.ops.(p) in
         let x = txn.(s) in
         if op.write then begin
           let i = sopen id_write st x.Txn.id in
           let r = backend.write x op.g (value_of ~seq:seq.(s) ~pc:p) in
           ignore (sclose i);
           match r with
           | O.Granted () ->
             c.writes <- c.writes + 1;
             pc.(s) <- p + 1
           | O.Blocked _ ->
             c.blocks <- c.blocks + 1;
             refused s st op.proto
           | O.Rejected _ ->
             c.rejects <- c.rejects + 1;
             refused s st op.proto
         end
         else begin
           let i = sopen (match op.proto with A -> id_ra | B -> id_rb | C -> id_rc) st x.Txn.id in
           let r = backend.read x op.g in
           ignore (sclose i);
           (match op.proto with
           | A -> c.reads_a <- c.reads_a + 1
           | B -> c.reads_b <- c.reads_b + 1
           | C -> c.reads_c <- c.reads_c + 1);
           match r with
           | O.Granted _ -> pc.(s) <- p + 1
           | O.Blocked _ ->
             c.blocks <- c.blocks + 1;
             refused s st op.proto
           | O.Rejected _ ->
             c.rejects <- c.rejects + 1;
             refused s st op.proto
         end
       end
     end);
    backend.after_step ~parent:st;
    match spans with
    | Some sp ->
      ignore (Spans.close sp st);
      Spans.boundary sp
    | None -> ()
  in
  while !running do
    let s = ref 0 in
    while !running && !s < slots do
      step !s;
      incr s
    done
  done;
  let stop_ns = Clock.now_ns () in
  let elapsed_s = float_of_int (stop_ns - start) /. 1e9 in
  Pstats.Windows.finish q ~t:elapsed_s ~n:c.commits;
  let marks = Array.length (Pstats.Windows.marks q) in
  while List.length !gauges < marks do
    gauges := gauges_of sched store :: !gauges
  done;
  for s = 0 to slots - 1 do
    if busy.(s) then begin
      backend.abort txn.(s);
      busy.(s) <- false;
      c.cut <- c.cut + 1
    end
  done;
  { elapsed_s;
    c;
    upd_lat_ns = upd_lat;
    ro_lat_ns = ro_lat;
    windows = q;
    gauges = Array.of_list (List.rev !gauges);
    commit_call_ns = commit_ns;
    snapshot = !snapshot;
    last_ts;
    last_value }

(* granules whose newest committed version in [store] is not the
   client's newest committed write *)
let stale_granules store ~keys (res : result) =
  let bad = ref 0 in
  for k = 0 to Array.length res.last_ts - 1 do
    let g = Granule.make ~segment:(k / keys) ~key:(k mod keys) in
    match Store.latest_committed store g with
    | Some v when v.Hdd_mvstore.Chain.ts = res.last_ts.(k) && v.value = res.last_value.(k) -> ()
    | _ -> incr bad
  done;
  !bad

(* --- what the two workloads report alike --- *)

let add_latency r prefix h =
  Report.add r (prefix ^ "_p50_us") "us" (Pstats.Hist.quantile h 0.5 /. 1e3);
  Report.add r (prefix ^ "_p99_us") "us" (Pstats.Hist.quantile h 0.99 /. 1e3)

let add_end_to_end r (res : result) =
  let c = res.c in
  Report.add r "txn_per_s" "txn/s" (Pstats.Windows.rate res.windows);
  Report.add r "txn_per_s_mean" "txn/s" (float_of_int c.commits /. res.elapsed_s);
  add_latency r "commit" res.upd_lat_ns;
  add_latency r "ro" res.ro_lat_ns;
  Report.add r "restart_frac" "ratio" (float_of_int c.restarts /. float_of_int c.upd_begins);
  Report.add r "tail_ratio" "ratio" (Pstats.Windows.tail res.windows);
  Report.add r "first_quarter_txn_per_s" "txn/s" (Pstats.Windows.first_quarter_rate res.windows)

(* the tail diagnostic: the highest percentile the sample count allows *)
let add_tail_diagnostic r (res : result) =
  let h = res.upd_lat_ns in
  let q = Pstats.tail_quantile (Pstats.Hist.count h) in
  Report.add r "latency.commit_samples" "count" (float_of_int (Pstats.Hist.count h));
  Report.add r "latency.commit_tail_percentile" "ratio" q;
  Report.add r "latency.commit_p999_us" "us" (Pstats.Hist.quantile h (Float.min q 0.999) /. 1e3)

let add_state r (res : result) =
  let g = res.gauges in
  let last = g.(Array.length g - 1) in
  let c = res.c in
  Report.add r "cc.wall_releases_per_1k_commits" "count"
    (1000. *. float_of_int last.wall_releases /. float_of_int c.commits);
  Report.add r "store.versions" "count" (float_of_int last.versions);
  Report.add r "store.max_chain" "count" (float_of_int last.max_chain);
  Report.add r "registry.records" "count" (float_of_int last.records);
  Report.add r "registry.windows" "count" (float_of_int last.windows);
  let first = g.((Array.length g / 4) - 1) in
  Report.add r "store.versions_growth" "ratio"
    (float_of_int last.versions /. float_of_int (Int.max 1 first.versions))

let add_scheduler_counts r (m : S.metrics) =
  let per x = float_of_int x /. float_of_int (Int.max 1 m.S.begins) in
  Report.add r "scheduler.blocks_per_txn" "count" (per m.S.blocks);
  Report.add r "scheduler.rejects_per_txn" "count" (per m.S.rejects);
  Report.add r "scheduler.read_registrations_per_txn" "count" (per m.S.read_registrations)

(* per-call self time from the traced run *)
let add_spans r sp ~prefix ~wall_s ~(res : result) ~outside =
  Spans.flush sp;
  List.iter
    (fun (name, n, self) ->
      if String.starts_with ~prefix:(prefix ^ ".") name then begin
        Report.add r (name ^ "_ns") "ns" (if n = 0 then 0. else float_of_int self /. float_of_int n);
        Report.add r (name ^ "_calls") "count" (float_of_int n)
      end)
    (Spans.totals sp);
  Report.add r (prefix ^ ".commit_p99_ns") "ns" (Pstats.Hist.quantile res.commit_call_ns 0.99);
  Common.add_span_fracs r sp ~prefix ~wall_ns:(wall_s *. 1e9) ~outside
