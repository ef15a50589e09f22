(* Bechamel microbenchmarks: one [Test.make] per experiment-relevant hot
   path / ablation (DESIGN.md §6): the activity-link composition and wall
   vector (E6/E9), the per-protocol read path behind the E10 comparison,
   version-chain lookups at two chain lengths (storage ablation), the
   certifier, and the simulator's event queue.  The paper's tables come
   from [hdd_cli experiments]. *)

module Scheduler = Hdd_core.Scheduler
module Activity = Hdd_core.Activity
module Timewall = Hdd_core.Timewall
module Certifier = Hdd_core.Certifier
module Partition = Hdd_core.Partition
module Spec = Hdd_core.Spec
module B = Hdd_baselines
module Chain = Hdd_mvstore.Chain
module Store = Hdd_mvstore.Store
module EQ = Hdd_sim.Event_queue
module T = Hdd_txn

(* --- fixtures for the microbenchmarks ---

   All shared with the [hdd_cli bench] macro-benchmark via
   {!Hdd_benchkit.Fixtures}; the steady-state knobs (finished/active
   transactions per class, chain depth) live there. *)

module BK = Hdd_benchkit.Fixtures

let chain_partition depth = BK.chain_partition depth
let populated_ctx depth = BK.populated_ctx ~depth ()
let branch_partition branches = BK.branch_partition branches
let mv_chain n = BK.list_chain ~versions:n ()
let mv_achain n = BK.array_chain ~versions:n ()

let big_log steps =
  let log = T.Sched_log.create () in
  let granules = 64 in
  for i = 1 to steps do
    let g = T.Granule.make ~segment:0 ~key:(i mod granules) in
    if i mod 3 = 0 then
      T.Sched_log.log_write log ~txn:(i / 3) ~granule:g ~version:i
    else T.Sched_log.log_read log ~txn:(i / 3) ~granule:g ~version:0
  done;
  log

let hdd_fixture () =
  let partition = chain_partition 3 in
  let clock = T.Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s = Scheduler.create ~partition ~clock ~store () in
  let t = Scheduler.begin_update s ~class_id:0 in
  (s, t)

let bechamel_tests () =
  let open Bechamel in
  let ctx5, now5 = populated_ctx 5 in
  let ctx3, now3 = populated_ctx 3 in
  let branch_ctx =
    let p = branch_partition 3 in
    let registry = T.Registry.create ~classes:4 () in
    Activity.make_ctx p registry
  in
  let branch_starts = Timewall.component_starts branch_ctx.Activity.partition in
  let chain10 = mv_chain 10 in
  let chain200 = mv_chain 200 in
  let achain10 = mv_achain 10 in
  let achain200 = mv_achain 200 in
  let log1k = big_log 1000 in
  let hdd_s, hdd_t = hdd_fixture () in
  let g_top = T.Granule.make ~segment:2 ~key:0 in
  let g_own = T.Granule.make ~segment:0 ~key:0 in
  let s2pl =
    B.S2pl.create ~clock:(T.Time.Clock.create ()) ~init:(fun _ -> 0) ()
  in
  let s2pl_t = B.S2pl.begin_txn s2pl ~read_only:false in
  let tso =
    B.Tso.create ~clock:(T.Time.Clock.create ()) ~init:(fun _ -> 0) ()
  in
  let tso_t = B.Tso.begin_txn tso in
  let mvto =
    B.Mvto.create ~clock:(T.Time.Clock.create ()) ~segments:1
      ~init:(fun _ -> 0) ()
  in
  let mvto_t = B.Mvto.begin_txn mvto in
  [ Test.make ~name:"E6/activity: A over a 3-class chain"
      (Staged.stage (fun () ->
           Activity.a_fn ctx3 ~from_class:0 ~to_class:2 (now3 / 2)));
    Test.make ~name:"E6/activity: A over a 5-class chain"
      (Staged.stage (fun () ->
           Activity.a_fn ctx5 ~from_class:0 ~to_class:4 (now5 / 2)));
    Test.make ~name:"E9/wall: E-vector on a 3-branch tree"
      (Staged.stage (fun () -> Timewall.compute branch_ctx ~starts:branch_starts ~m:100));
    Test.make ~name:"mvstore: snapshot read, 10-version chain"
      (Staged.stage (fun () -> Chain.committed_before chain10 ~ts:15));
    Test.make ~name:"mvstore: snapshot read, 200-version chain"
      (Staged.stage (fun () -> Chain.committed_before chain200 ~ts:299));
    Test.make ~name:"mvstore/ablation: array chain, 10 versions"
      (Staged.stage (fun () ->
           Hdd_mvstore.Achain.committed_before achain10 ~ts:15));
    Test.make ~name:"mvstore/ablation: array chain, 200 versions"
      (Staged.stage (fun () ->
           Hdd_mvstore.Achain.committed_before achain200 ~ts:299));
    Test.make ~name:"E10/read: HDD protocol A (cross-class)"
      (Staged.stage (fun () -> Scheduler.read hdd_s hdd_t g_top));
    Test.make ~name:"E10/read: HDD protocol B (root segment)"
      (Staged.stage (fun () -> Scheduler.read hdd_s hdd_t g_own));
    Test.make ~name:"E10/read: 2PL (lock + registration)"
      (Staged.stage (fun () -> B.S2pl.read s2pl s2pl_t g_own));
    Test.make ~name:"E10/read: TSO (stamp + registration)"
      (Staged.stage (fun () -> B.Tso.read tso tso_t g_own));
    Test.make ~name:"E10/read: MVTO (version + registration)"
      (Staged.stage (fun () -> B.Mvto.read mvto mvto_t g_own));
    Test.make ~name:"certifier: MVSG over a 1000-step log"
      (Staged.stage (fun () -> Certifier.serializable log1k));
    Test.make
      ~name:"sim: event queue push+pop"
      (let q = EQ.create () in
       Staged.stage (fun () ->
           EQ.push q ~time:1.0 0;
           EQ.pop q));
    Test.make ~name:"sim: Retry.backoff (jittered exponential)"
      (let rng = Hdd_util.Prng.create 7 in
       Staged.stage (fun () ->
           Hdd_sim.Retry.backoff Hdd_sim.Retry.default rng ~attempt:5));
    Test.make ~name:"storage: fault-sink append (armed, no fault)"
      (let path =
         Filename.concat (Filename.get_temp_dir_name ()) "hdd_bench_sink.log"
       in
       let sink =
         Hdd_storage.Fault.apply
           (Hdd_storage.Fault.plan
              [ Hdd_storage.Fault.Bit_flip { byte = max_int; bit = 0 } ])
           (Hdd_storage.Fault.file_sink ~path ())
       in
       let frame =
         Hdd_storage.Codec.encode
           (Hdd_storage.Codec.Commit { txn = 1; at = 1 })
       in
       Staged.stage (fun () -> sink.Hdd_storage.Fault.append frame));
    Test.make ~name:"storage: WAL append (buffered)"
      (let path =
         Filename.concat (Filename.get_temp_dir_name ()) "hdd_bench.log"
       in
       let wal = Hdd_storage.Wal.create ~path () in
       let record =
         Hdd_storage.Codec.Write
           { txn = 1; granule = T.Granule.make ~segment:0 ~key:0; ts = 1;
             value = 42 }
       in
       Staged.stage (fun () -> Hdd_storage.Wal.append wal record));
    Test.make ~name:"storage: recovery replay, 3k-record log"
      (let path =
         Filename.concat (Filename.get_temp_dir_name ()) "hdd_bench_rec.log"
       in
       (if Sys.file_exists path then Sys.remove path);
       let wal = Hdd_storage.Wal.create ~path () in
       for i = 1 to 1000 do
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Begin { txn = i; class_id = 0; init = i });
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Write
              { txn = i; granule = T.Granule.make ~segment:0 ~key:(i mod 64);
                ts = i; value = i });
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Commit { txn = i; at = i })
       done;
       Hdd_storage.Wal.close wal;
       Staged.stage (fun () ->
           Hdd_storage.Durable.recover ~path ~segments:1 ~init:(fun _ -> 0))) ]

let run_bechamel () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let tests = bechamel_tests () in
  let table =
    Hdd_util.Table.create ~title:"Microbenchmarks (monotonic clock)"
      ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      Hashtbl.iter
        (fun name raw ->
          let estimate = Analyze.one ols instance raw in
          let ns =
            match Analyze.OLS.estimates estimate with
            | Some [ e ] -> Printf.sprintf "%.1f" e
            | _ -> "-"
          in
          let r2 =
            match Analyze.OLS.r_square estimate with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "-"
          in
          Hdd_util.Table.add_row table [ name; ns; r2 ])
        results)
    tests;
  Hdd_util.Table.print table

let () = run_bechamel ()
