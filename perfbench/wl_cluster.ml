(* cluster-chain8: Cluster.run_script_processes with two forked shard
   processes over pipes, on a script of Engine.desc values drawn from the
   seed with the engine-chain8 mix.  The only workload through Node,
   Wire, the pipe Transport, Snapshot and Sclock.  A run of the script's
   first quarter gives the first-quarter throughput for tail_ratio. *)

module E = Hdd_runtime.Engine
module Dif = Hdd_runtime.Differential
module C = Hdd_shard.Cluster
module Node = Hdd_shard.Node

let segments = 8
let shards = 2

(* sizes the script from --seconds *)
let nominal_txn_per_s = 16_000.

let config = { Node.default_config with Node.traced = false }

let setup ~seed ~txns () =
  let partition = Dif.chain_partition segments in
  (partition, Mixgen.script ~partition ~seed ~txns)

type timed = { run : E.run; wall_s : float; router_cpu_s : float; shard_cpu_s : float }

let timed partition script =
  let t0 = Clock.now_ns () and u0 = Unix.times () in
  let run = C.run_script_processes ~config ~partition ~init:Dif.default_init ~shards ~script () in
  let u1 = Unix.times () and t1 = Clock.now_ns () in
  { run;
    wall_s = float_of_int (t1 - t0) /. 1e9;
    router_cpu_s = u1.Unix.tms_utime +. u1.Unix.tms_stime -. u0.Unix.tms_utime -. u0.Unix.tms_stime;
    shard_cpu_s =
      u1.Unix.tms_cutime +. u1.Unix.tms_cstime -. u0.Unix.tms_cutime -. u0.Unix.tms_cstime }

(* descriptors whose outcome is missing, repeated, or not the one the
   script asked for: every descriptor commits unless it is a scripted
   abort *)
let wrong_outcomes (script : E.desc array) (run : E.run) =
  let seen = Array.make (Array.length script + 1) 0 in
  let bad = ref 0 in
  List.iter
    (fun (id, committed) ->
      if id < 1 || id > Array.length script then incr bad
      else begin
        seen.(id) <- seen.(id) + 1;
        if committed = script.(id - 1).E.d_abort then incr bad
      end)
    run.E.outcomes;
  for id = 1 to Array.length script do
    if seen.(id) <> 1 then incr bad
  done;
  !bad

let run ~seed ~seconds ~trace ~out =
  let r = Report.create () in
  let txns = int_of_float (seconds *. nominal_txn_per_s) in
  let su = Common.new_setup () in
  let partition, script = Common.setup_before su (setup ~seed ~txns) in
  let qscript = Array.sub script 0 (txns / 4) in
  (* quarter-length runs before and after the full one, so a drift in
     the machine's speed cancels out of tail_ratio *)
  let q1 = timed partition qscript in
  let before = Gc.quick_stat () in
  let full = timed partition script in
  let after = Gc.quick_stat () in
  let peak_heap = Common.heap_mb () in
  let q2 = timed partition qscript in
  let st = full.run.E.stats in
  let q_s = (q1.wall_s +. q2.wall_s) /. 2. in
  let q_n = (q1.run.E.stats.E.committed + q2.run.E.stats.E.committed) / 2 in
  let secs = full.wall_s in
  let committed = st.E.committed in
  let rate = float_of_int committed /. secs in
  Report.add r "setup_s" "s" (Common.setup_after su (setup ~seed ~txns));
  Report.add r "txn_per_s" "txn/s" rate;
  Report.add r "tail_ratio" "ratio" (Pstats.tail_ratio ~first:(q_s, q_n) ~total:(secs, committed));
  Report.add r "peak_heap_mb" "MB" peak_heap;
  (* each class runs its transactions one at a time on its owner, so
     concurrency control never restarts one: only scripted aborts abort *)
  Report.add r "restart_frac" "ratio" 0.;
  Report.add r "first_quarter_txn_per_s" "txn/s" (float_of_int q_n /. q_s);
  let per_txn x = x /. float_of_int (Int.max 1 committed) in
  Report.add r "cc.reads_a_per_s" "1/s" (float_of_int st.E.reads_a /. secs);
  Report.add r "cc.wall_releases_per_1k_commits" "count"
    (1000. *. per_txn (float_of_int st.E.wall_releases));
  Report.add r "cluster.wall_releases_per_s" "1/s" (float_of_int st.E.wall_releases /. secs);
  Report.add r "cluster.wall_lag_mean_ticks" "ticks"
    (float_of_int st.E.wall_lag_sum /. float_of_int (Int.max 1 st.E.wall_releases));
  Report.add r "cluster.shard_cpu_us_per_txn" "us" (1e6 *. per_txn full.shard_cpu_s);
  Report.add r "cluster.router_cpu_us_per_txn" "us" (1e6 *. per_txn full.router_cpu_s);
  Report.add r "cluster.router_cpu_frac" "ratio" (full.router_cpu_s /. secs);
  Report.add r "cluster.wait_frac" "ratio"
    (1. -. (full.shard_cpu_s /. (float_of_int shards *. secs)));
  Common.add_gc r ~before ~after ~commits:committed ~seconds:secs;
  let expected = Array.fold_left (fun n d -> if d.E.d_abort then n else n + 1) 0 script in
  let wrong = wrong_outcomes script full.run in
  let qwrong = wrong_outcomes qscript q1.run + wrong_outcomes qscript q2.run in
  let traced_wrong =
    if not trace then 0
    else begin
      let traced =
        Common.trace_one_call r ~prefix:"cluster" ~call:"cluster.run_script_processes"
          ~path:(Filename.concat out "cluster-chain8.trace.json")
          (fun () -> timed partition script)
      in
      Common.add_overhead r ~untraced:rate
        ~traced:(float_of_int traced.run.E.stats.E.committed /. traced.wall_s);
      wrong_outcomes script traced.run
    end
  in
  let checks =
    [ ("committed_equals_non_abort_descriptors", committed = expected);
      ("outcomes_name_every_descriptor_once", wrong = 0 && qwrong = 0);
      ("traced_run_checks", traced_wrong = 0) ]
  in
  { Common.report = r;
    checks;
    attempted = Array.length script + (2 * Array.length qscript);
    failed = wrong + qwrong + traced_wrong + abs (committed - expected) }
