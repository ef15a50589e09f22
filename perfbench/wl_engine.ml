(* engine-chain8: Engine.run_timed with two worker domains on chain-8 and
   the engine benchmark mix.  The engine generates its own transactions
   from the seed; its public timed mode is the only closed-loop engine
   path.  A second run a quarter as long with the same seed gives the
   throughput of the first quarter, so tail_ratio shows whether the run
   slows as it goes on. *)

module E = Hdd_runtime.Engine
module Dif = Hdd_runtime.Differential

let segments = 8
let check_txns = 2_000

let workers () = Int.max 1 (Int.min 2 (Domain.recommended_domain_count ()))

let setup ~seed () =
  let partition = Dif.chain_partition segments in
  (partition, Mixgen.script ~partition ~seed ~txns:check_txns)

let timed partition ~seconds ~seed =
  E.run_timed ~partition ~init:Dif.default_init ~workers:(workers ()) ~seconds
    ~mix:Mixgen.engine_mix ~seed ()

let hist_quantile (t : E.timed) q =
  Hdd_obs.Metrics.quantile (Hdd_obs.Metrics.histogram t.E.t_latency "commit_latency_us") q

let run ~seed ~seconds ~trace ~out =
  let r = Report.create () in
  let su = Common.new_setup () in
  let partition, script = Common.setup_before su (setup ~seed) in
  (* quarter-length runs go before and after the full run, so a drift in
     the machine's speed cancels out of tail_ratio; the first one comes
     before the full run because the heap high-water mark is process-wide *)
  let q1 = timed partition ~seconds:(seconds /. 4.) ~seed in
  let quarter_heap = Common.heap_mb () in
  let before = Gc.quick_stat () in
  let full = timed partition ~seconds ~seed in
  let after = Gc.quick_stat () in
  let peak_heap = Common.heap_mb () in
  let q2 = timed partition ~seconds:(seconds /. 4.) ~seed in
  let st = full.E.t_stats in
  let q_s = (q1.E.t_elapsed_s +. q2.E.t_elapsed_s) /. 2. in
  let q_n = (q1.E.t_stats.E.committed + q2.E.t_stats.E.committed) / 2 in
  let secs = full.E.t_elapsed_s in
  let rate = float_of_int st.E.committed /. secs in
  Report.add r "setup_s" "s" (Common.setup_after su (setup ~seed));
  Report.add r "txn_per_s" "txn/s" rate;
  Report.add r "tail_ratio" "ratio" (Pstats.tail_ratio ~first:(q_s, q_n) ~total:(secs, st.E.committed));
  Report.add r "peak_heap_mb" "MB" peak_heap;
  Report.add r "engine.quarter_peak_heap_mb" "MB" quarter_heap;
  (* each class runs its transactions one at a time on its owner, so
     concurrency control never restarts one: only scripted aborts abort *)
  Report.add r "restart_frac" "ratio" 0.;
  Report.add r "first_quarter_txn_per_s" "txn/s" (float_of_int q_n /. q_s);
  let per_commit x = float_of_int x /. float_of_int (Int.max 1 st.E.committed) in
  Report.add r "engine.publications_per_commit" "count" (per_commit st.E.publications);
  Report.add r "cc.reads_a_per_s" "1/s" (float_of_int st.E.reads_a /. secs);
  Report.add r "cc.wall_releases_per_1k_commits" "count" (1000. *. per_commit st.E.wall_releases);
  Report.add r "engine.wall_releases_per_s" "1/s" (float_of_int st.E.wall_releases /. secs);
  Report.add r "engine.wall_lag_mean_ticks" "ticks"
    (float_of_int st.E.wall_lag_sum /. float_of_int (Int.max 1 st.E.wall_releases));
  Report.add r "engine.wall_lag_max_ticks" "ticks" (float_of_int st.E.wall_lag_max);
  Common.add_gc r ~before ~after ~commits:st.E.committed ~seconds:secs;
  (* diagnostic only: the engine's histogram has power-of-two buckets *)
  Report.add r "engine.commit_p50_us_bucket" "us" (hist_quantile full 0.5);
  Report.add r "engine.commit_p99_us_bucket" "us" (hist_quantile full 0.99);
  let traced_ok =
    if not trace then true
    else begin
      let traced =
        Common.trace_one_call r ~prefix:"engine" ~call:"engine.run_timed"
          ~path:(Filename.concat out "engine-chain8.trace.json")
          (fun () -> timed partition ~seconds ~seed)
      in
      Common.add_overhead r ~untraced:rate
        ~traced:(float_of_int traced.E.t_stats.E.committed /. traced.E.t_elapsed_s);
      traced.E.t_stats.E.committed > 0
    end
  in
  (* the four-check oracle on a short script of the same mix *)
  let report =
    Dif.check ~partition ~init:Dif.default_init ~config:(E.default_config ~workers:(workers ())) script
  in
  let oracle_ok = Dif.ok report in
  let checks =
    [ ("differential_four_checks", oracle_ok);
      ("runs_commit", st.E.committed > 0 && q_n > 0);
      ("traced_run_checks", traced_ok) ]
  in
  let attempted =
    List.fold_left
      (fun n (t : E.timed) -> n + t.E.t_stats.E.committed + t.E.t_stats.E.aborted)
      (Array.length script) [ q1; full; q2 ]
  in
  let failed =
    (if oracle_ok then 0 else Array.length script)
    + (if st.E.committed > 0 && q_n > 0 then 0 else 1)
    + if traced_ok then 0 else 1
  in
  { Common.report = r; checks; attempted; failed }
