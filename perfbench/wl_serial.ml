(* serial-chain8: the in-memory Scheduler over a chain-8 partition, the
   serial protocol stack with no domains and no I/O. *)

module S = Hdd_core.Scheduler
module Store = Hdd_mvstore.Store

let segments = 8
let keys = 64
let pool_size = 8192

(* sizes the commit count from --seconds: the loop stops on a count so
   that its counts repeat exactly for a seed *)
let nominal_txn_per_s = 250_000.

(* the prefix of the schedule the certifier checks *)
let certify_commits = 2_000

let setup ?log ~seed () =
  let partition = Hdd_benchkit.Fixtures.chain_partition segments in
  let store = Store.create ~segments ~init:(fun _ -> 0) in
  let sched = S.create ?log ~partition ~clock:(Time.Clock.create ()) ~store () in
  let pool = Mixgen.pool ~seed ~size:pool_size ~segments ~keys ~b_pct:55 ~a_pct:30 in
  (sched, store, pool)

let backend sched =
  { Closed.prefix = "scheduler";
    begin_update = (fun c -> S.begin_update sched ~class_id:c);
    begin_ro = (fun () -> S.begin_read_only sched);
    read = S.read sched;
    write = S.write sched;
    commit = (fun x ~t0:_ -> S.commit sched x);
    abort = S.abort sched;
    after_step = (fun ~parent:_ -> ()) }

let run_loop ?spans ?snap_at (sched, store, pool) ~commits =
  Closed.run ?spans ?snap_at ~backend:(backend sched) ~sched ~store ~keys ~pool
    ~stop:(Commits commits) ()

(* the client's own counts against Scheduler.metrics *)
let counts_match sched (c : Closed.counts) =
  let m = S.metrics sched in
  m.S.begins = c.begins && m.S.commits = c.commits
  && m.S.aborts = c.restarts + c.cut
  && m.S.reads_a = c.reads_a && m.S.reads_b = c.reads_b && m.S.reads_c = c.reads_c
  && m.S.writes = c.writes && m.S.blocks = c.blocks && m.S.rejects = c.rejects

let run ~seed ~seconds ~trace ~out =
  let r = Report.create () in
  let commits = int_of_float (seconds *. nominal_txn_per_s) in
  let su = Common.new_setup () in
  let world = Common.setup_before su (fun () -> setup ~seed ()) in
  let sched, store, _ = world in
  let before = Gc.quick_stat () in
  let res = run_loop ~snap_at:certify_commits world ~commits in
  let after = Gc.quick_stat () in
  let c = res.c in
  let peak_heap = Common.heap_mb () in
  Report.add r "setup_s" "s" (Common.setup_after su (fun () -> setup ~seed ()));
  Closed.add_end_to_end r res;
  Report.add r "peak_heap_mb" "MB" peak_heap;
  Closed.add_tail_diagnostic r res;
  let m = S.metrics sched in
  Closed.add_scheduler_counts r m;
  Closed.add_state r res;
  Common.add_gc r ~before ~after ~commits:c.commits ~seconds:res.elapsed_s;
  Report.add r "cc.reads_a_per_s" "1/s" (float_of_int m.S.reads_a /. res.elapsed_s);
  let mismatched = Closed.stale_granules store ~keys res in
  (* the certified prefix: a second run with the same seed and a schedule
     log, stopped after [certify_commits]; its metrics at that point must
     equal the main run's, so it is the main run's prefix *)
  let log = Sched_log.create () in
  let cworld = setup ~log ~seed () in
  let cres = run_loop ~snap_at:certify_commits cworld ~commits:certify_commits in
  let serializable = Hdd_core.Certifier.serializable log in
  let same_prefix = cres.snapshot <> None && cres.snapshot = res.snapshot in
  let traced_ok =
    if not trace then true
    else begin
      let sp = Spans.create ~names:(Closed.span_names "scheduler") ~capacity:65536 in
      let tworld = setup ~seed () in
      let tsched, _, _ = tworld in
      let tres = run_loop ~spans:sp tworld ~commits in
      Closed.add_spans r sp ~prefix:"scheduler" ~wall_s:tres.elapsed_s ~res:tres ~outside:[];
      Common.add_overhead r
        ~untraced:(float_of_int c.commits /. res.elapsed_s)
        ~traced:(float_of_int tres.c.commits /. tres.elapsed_s);
      Spans.write_chrome sp (Filename.concat out "serial-chain8.trace.json");
      tres.c.violations = 0 && counts_match tsched tres.c
    end
  in
  let checks =
    [ ("protocol_a_c_never_wait_or_reject", c.violations = 0);
      ("client_counts_equal_scheduler_metrics", counts_match sched c);
      ("store_latest_equals_last_committed_write", mismatched = 0);
      ("certified_prefix_serializable", serializable);
      ("certified_run_is_prefix", same_prefix);
      ("traced_run_checks", traced_ok) ]
  in
  let failed =
    c.violations + mismatched
    + (if counts_match sched c then 0 else 1)
    + (if serializable && same_prefix then 0 else certify_commits)
    + if traced_ok then 0 else 1
  in
  { Common.report = r; checks; attempted = c.begins; failed = Int.min failed c.begins }
