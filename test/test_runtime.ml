(* The parallel runtime: unit tests for the multicore primitives, the
   1000-seed registry snapshot-vs-live equivalence property, JSON schema
   versioning, and the randomized multicore differential stress
   (reduced seed count in-tree; CI nightly raises HDD_PAR_SEEDS to the
   full 500). *)

module R = Hdd_runtime
module T = Hdd_obs.Trace
module J = Hdd_benchkit.Jsonlite
module P = Hdd_core.Partition

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- global logical clock --- *)

let test_gclock_unique () =
  let clock = R.Gclock.create () in
  let domains = 4 and per = 2000 in
  let spawned =
    Array.init domains (fun _ ->
        Domain.spawn (fun () -> Array.init per (fun _ -> R.Gclock.tick clock)))
  in
  let all =
    Array.to_list spawned
    |> List.concat_map (fun d -> Array.to_list (Domain.join d))
  in
  let sorted = List.sort_uniq compare all in
  checki "all ticks distinct" (domains * per) (List.length sorted);
  checki "clock advanced exactly once per tick" (domains * per)
    (R.Gclock.now clock);
  List.iter (fun t -> checkb "tick positive" true (t > 0)) sorted

(* --- bounded MPSC mailbox --- *)

let test_mailbox_fifo () =
  let mb = R.Mailbox.create ~capacity:8 in
  for i = 1 to 5 do
    checkb "push accepted" true (R.Mailbox.push mb i)
  done;
  checki "length" 5 (R.Mailbox.length mb);
  for i = 1 to 5 do
    check (Alcotest.option Alcotest.int) "fifo order" (Some i)
      (R.Mailbox.try_pop mb)
  done;
  check (Alcotest.option Alcotest.int) "empty" None (R.Mailbox.try_pop mb);
  for i = 1 to 6 do
    ignore (R.Mailbox.push mb i)
  done;
  let buf = Array.make 4 0 in
  checki "pop_into bounded by max" 4 (R.Mailbox.pop_into mb buf ~max:4);
  checkb "pop_into kept order" true (buf = [| 1; 2; 3; 4 |]);
  checki "pop_into drains the rest" 2 (R.Mailbox.pop_into mb buf ~max:4);
  checki "pop_into on empty" 0 (R.Mailbox.pop_into mb buf ~max:4);
  R.Mailbox.close mb;
  checkb "push to closed refused" false (R.Mailbox.push mb 99);
  checkb "drained" true (R.Mailbox.is_drained mb)

let test_mailbox_backpressure () =
  (* a tiny ring forces the producer to wait for the consumer *)
  let n = 500 in
  let mb = R.Mailbox.create ~capacity:4 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          ignore (R.Mailbox.push mb i)
        done;
        R.Mailbox.close mb)
  in
  let received = ref [] in
  let rec drain () =
    match R.Mailbox.try_pop mb with
    | Some v ->
      received := v :: !received;
      drain ()
    | None -> if not (R.Mailbox.is_drained mb) then (Domain.cpu_relax (); drain ())
  in
  drain ();
  Domain.join producer;
  checki "all delivered" n (List.length !received);
  check
    (Alcotest.list Alcotest.int)
    "in order" (List.init n (fun i -> i + 1))
    (List.rev !received)

(* --- seqlock-published wall --- *)

let test_seqwall_no_tearing () =
  (* every published wall has all components equal to its anchor; a torn
     read would mix two publications and break the uniformity *)
  let mk m =
    Hdd_core.Timewall.make ~s:0 ~m ~components:(Array.make 6 m)
      ~released_at:(m + 1)
  in
  let sw = R.Seqwall.create (mk 0) in
  let rounds = 2000 in
  let writer =
    Domain.spawn (fun () ->
        for m = 1 to rounds do
          R.Seqwall.publish sw (mk m)
        done)
  in
  let torn = ref 0 and seen_m = ref (-1) in
  let reads = ref 0 in
  while !seen_m < rounds do
    let w = R.Seqwall.read sw in
    incr reads;
    let m = w.Hdd_core.Timewall.m in
    Array.iter
      (fun c -> if c <> m then incr torn)
      w.Hdd_core.Timewall.components;
    if w.Hdd_core.Timewall.released_at <> m + 1 then incr torn;
    if m > !seen_m then seen_m := m
  done;
  Domain.join writer;
  checki "no torn reads" 0 !torn;
  checkb "reader made progress" true (!reads > 0)

(* --- packed store: reads and published views --- *)

let test_pstore_latest_before () =
  let module S = Hdd_mvstore.Pstore in
  let s = S.create () in
  checki "empty reads bootstrap" Time.zero (S.latest_before s ~key:1 ~ts:100);
  S.add_commit s ~key:1 ~ts:5 ~value:50;
  let v1 = S.publish s in
  S.add_commit s ~key:1 ~ts:9 ~value:90;
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "latest below 100" (Some (9, 90))
    (S.latest_before_pair s ~key:1 ~ts:100);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "latest below 9" (Some (5, 50))
    (S.latest_before_pair s ~key:1 ~ts:9);
  checki "below oldest reads bootstrap" Time.zero
    (S.latest_before s ~key:1 ~ts:5);
  (* a published view is unaffected by later commits *)
  checki "view frozen" 5 (S.view_latest_before v1 ~key:1 ~ts:100);
  checki "republished view sees the commit" 9
    (S.view_latest_before (S.publish s) ~key:1 ~ts:100);
  checki "version count" 2 (S.version_count s);
  checkb "non-monotone ts refused" true
    (try
       S.add_commit s ~key:1 ~ts:9 ~value:0;
       false
     with Invalid_argument _ -> true)

(* --- per-domain traces merge by logical time --- *)

let test_trace_merge () =
  let t1 = T.create ~domain:1 () and t2 = T.create ~domain:2 () in
  T.emit t1 ~at:3 (T.Note "a");
  T.emit t2 ~at:1 (T.Note "b");
  T.emit t1 ~at:5 (T.Note "c");
  T.emit t2 ~at:4 (T.Note "d");
  let merged = T.merged [ t1; t2 ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted by (at, dom)"
    [ (1, 2); (3, 1); (4, 2); (5, 1) ]
    (List.map (fun (r : T.record) -> (r.at, r.dom)) merged);
  checki "domain tag" 1 (T.domain t1)

(* --- monitor wall rules --- *)

let test_monitor_any_released () =
  let mk_records () =
    let wall1 = T.Wall_release { m = 1; released_at = 2; components = [| 5; 5 |] } in
    let wall2 = T.Wall_release { m = 3; released_at = 4; components = [| 7; 7 |] } in
    let begin_ro = T.Begin { txn = 9; kind = T.Read_only; init = 6 } in
    let read_old =
      T.Read { txn = 9; protocol = T.C; segment = 1; key = 0; threshold = 5;
               version = 0 }
    in
    List.mapi
      (fun i ev -> { T.seq = i; at = i + 1; dom = 0; ev })
      [ wall1; wall2; begin_ro; read_old ]
  in
  (* under the serial rule the reader must hold the newest wall (7) *)
  let strict =
    Hdd_obs.Monitor.create ~raise_on_violation:false ~wall_rule:`Latest ()
  in
  List.iter (Hdd_obs.Monitor.feed strict) (mk_records ());
  checkb "Latest flags the stale wall" true
    (Hdd_obs.Monitor.violations strict <> []);
  (* the parallel rule accepts any wall released before initiation *)
  let relaxed =
    Hdd_obs.Monitor.create ~raise_on_violation:false
      ~wall_rule:`Any_released ()
  in
  List.iter (Hdd_obs.Monitor.feed relaxed) (mk_records ());
  check (Alcotest.list Alcotest.string) "Any_released accepts it" []
    (Hdd_obs.Monitor.violations relaxed);
  (* but still rejects a threshold no released wall ever had *)
  let bogus =
    Hdd_obs.Monitor.create ~raise_on_violation:false
      ~wall_rule:`Any_released ()
  in
  List.iter (Hdd_obs.Monitor.feed bogus)
    (List.map
       (fun (r : T.record) ->
         match r.ev with
         | T.Read p -> { r with ev = T.Read { p with threshold = 6 } }
         | _ -> r)
       (mk_records ()));
  checkb "Any_released rejects invented threshold" true
    (Hdd_obs.Monitor.violations bogus <> [])

(* --- registry snapshot-vs-live equivalence, 1000 seeds --- *)

(* A random in-forest over [n] classes: each class above 0 usually reads
   one lower-numbered parent, so forks give the wall walk down-arcs. *)
let forest_partition prng n =
  let module Spec = Hdd_core.Spec in
  let types =
    List.init n (fun i ->
        let reads =
          if i > 0 && Hdd_util.Prng.float prng 1. < 0.8 then
            [ i; Hdd_util.Prng.int prng i ]
          else [ i ]
        in
        Spec.txn_type ~name:(Printf.sprintf "t%d" i) ~writes:[ i ] ~reads)
  in
  P.build_exn
    (Spec.make ~segments:(List.init n (Printf.sprintf "D%d")) ~types)

let snap_i_old snap c m = Registry.snap_i_old snap ~class_id:c ~at:m
let snap_c_late snap c m = Registry.snap_c_late snap ~class_id:c ~at:m

let test_registry_snapshot_property () =
  let module A = Hdd_core.Activity in
  let seeds = 1000 in
  for seed = 1 to seeds do
    let prng = Hdd_util.Prng.create seed in
    let classes = 1 + Hdd_util.Prng.int prng 4 in
    let reg = Registry.create ~classes () in
    let now = ref 0 in
    let tick () = incr now; !now in
    let actives = ref [] in
    let steps = 10 + Hdd_util.Prng.int prng 40 in
    let next_id = ref 0 in
    let mutate () =
      if !actives <> [] && Hdd_util.Prng.float prng 1. < 0.45 then begin
        let arr = Array.of_list !actives in
        let t = Hdd_util.Prng.pick prng arr in
        actives := List.filter (fun u -> u != t) !actives;
        if Hdd_util.Prng.bool prng then Txn.commit t ~at:(tick ())
        else Txn.abort t ~at:(tick ())
      end
      else begin
        incr next_id;
        let c = Hdd_util.Prng.int prng classes in
        let t =
          Txn.make ~id:!next_id ~kind:(Txn.Update c) ~init:(tick ())
        in
        Registry.register reg t;
        actives := t :: !actives
      end
    in
    for _ = 1 to steps do mutate () done;
    let capture = !now in
    let snap = Registry.snapshot reg in
    let queries =
      List.init 20 (fun _ ->
          (Hdd_util.Prng.int prng classes, Hdd_util.Prng.int prng (capture + 1)))
    in
    let expect =
      List.map
        (fun (c, at) ->
          ( Registry.i_old reg ~class_id:c ~at,
            Registry.c_late reg ~class_id:c ~at ))
        queries
    in
    let compare_snap () =
      List.iter2
        (fun (c, at) (io, cl) ->
          if Registry.snap_i_old snap ~class_id:c ~at <> io then
            Alcotest.failf "seed %d: snap_i_old(%d, %d) diverges" seed c at;
          if Registry.snap_c_late snap ~class_id:c ~at <> cl then
            Alcotest.failf "seed %d: snap_c_late(%d, %d) diverges" seed c at)
        queries expect
    in
    (* the one composition kernel, fed live-registry steps and snapshot
       steps — the scheduler's and the engine/node coordinators' sources:
       A for every class pair on a critical path and the wall vector, at
       every argument up to capture *)
    let partition =
      forest_partition (Hdd_util.Prng.create (seed + 1_000_003)) classes
    in
    let starts = Hdd_core.Timewall.component_starts partition in
    let pairs =
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j ->
              if P.critical_path partition i j <> None then Some (i, j)
              else None)
            (List.init classes Fun.id))
        (List.init classes Fun.id)
    in
    let composed i_old c_late src =
      List.init (capture + 1) (fun m ->
          ( List.map
              (fun (i, j) ->
                A.threshold partition ~i_old src ~from_class:i ~to_class:j m)
              pairs,
            A.wall_components partition ~starts ~i_old ~c_late src m ))
    in
    let live = composed A.live_i_old A.live_c_late reg in
    let ctx = A.make_ctx partition reg in
    List.iteri
      (fun m (a, wall) ->
        List.iter2
          (fun (i, j) th ->
            if A.a_fn ctx ~from_class:i ~to_class:j m <> th then
              Alcotest.failf "seed %d: cached A(%d->%d, %d) diverges" seed i
                j m)
          pairs a;
        if Hdd_core.Timewall.compute ctx ~starts ~m <> wall then
          Alcotest.failf "seed %d: Timewall.compute at %d diverges" seed m)
      live;
    let compare_kernel () =
      List.iteri
        (fun m (expect, got) ->
          if expect <> got then
            Alcotest.failf "seed %d: kernel over snapshot diverges at %d" seed
              m)
        (List.combine live (composed snap_i_old snap_c_late snap))
    in
    compare_snap ();
    compare_kernel ();
    (* the snapshot is immutable: later registry activity on fresh
       transactions must not change any answer at or below capture *)
    for _ = 1 to 10 do mutate () done;
    compare_snap ();
    compare_kernel ();
    List.iter
      (fun c ->
        checki "generation frozen at capture"
          (Registry.snap_generation snap ~class_id:c)
          (Registry.snap_generation snap ~class_id:c))
      (List.init classes Fun.id)
  done

(* --- JSON schema versioning --- *)

let test_jsonlite_schema () =
  let doc = J.with_schema [ ("x", J.num_of_int 1) ] in
  check (Alcotest.option Alcotest.int) "stamped" (Some J.schema_version)
    (J.schema_of doc);
  check (Alcotest.option Alcotest.int) "survives round-trip"
    (Some J.schema_version)
    (J.schema_of (J.of_string (J.to_string doc)));
  check (Alcotest.option Alcotest.int) "pre-versioning doc" None
    (J.schema_of (J.Obj [ ("x", J.Num 1.) ]));
  (* unknown fields are kept by the parser and ignored by accessors *)
  let fancy =
    J.of_string
      {|{"schema_version": 99, "future_blob": {"deep": [1, 2, {"k": true}]},
         "x": 7}|}
  in
  check (Alcotest.option Alcotest.int) "future version readable" (Some 99)
    (J.schema_of fancy);
  check
    (Alcotest.option (Alcotest.float 0.))
    "known fields still reachable" (Some 7.)
    (Option.bind (J.member "x" fancy) J.number)

(* --- the engine itself --- *)

let ok_or_fail label r =
  if not (R.Differential.ok r) then
    Alcotest.failf "%s:@.%a" label R.Differential.pp_report r

let test_engine_single_worker () =
  let partition = R.Differential.chain_partition 4 in
  let script =
    R.Differential.gen_script ~partition ~seed:7 ~txns:60 ()
  in
  let config = R.Engine.default_config ~workers:1 in
  let r = R.Differential.check ~partition ~init:R.Differential.default_init ~config script in
  ok_or_fail "single worker" r;
  checki "every descriptor got a verdict" 60 (r.R.Differential.r_committed + r.R.Differential.r_aborted);
  checkb "traced events present" true (r.R.Differential.r_events > 0);
  checkb "walls released" true (r.R.Differential.r_wall_releases >= 1)

let cross_class_check ~publish_every =
  let partition = R.Differential.chain_partition 2 in
  let g1 = Granule.make ~segment:1 ~key:0 in
  let script =
    [| { R.Engine.d_id = 1; d_kind = `Update 1;
         d_ops = [ R.Engine.Write (g1, 111); R.Engine.Read g1 ];
         d_abort = false };
       { R.Engine.d_id = 2; d_kind = `Update 1;
         d_ops = [ R.Engine.Write (g1, 222) ]; d_abort = true };
       { R.Engine.d_id = 3; d_kind = `Update 0;
         d_ops =
           [ R.Engine.Write (Granule.make ~segment:0 ~key:0, 9);
             R.Engine.Read g1 ];
         d_abort = false } |]
  in
  let config =
    { (R.Engine.default_config ~workers:2) with publish_every }
  in
  let r = R.Differential.check ~partition ~init:R.Differential.default_init ~config script in
  ok_or_fail (Printf.sprintf "two-class script at K=%d" publish_every) r;
  checki "aborts" 1 r.R.Differential.r_aborted;
  checki "commits" 2 r.R.Differential.r_committed

(* deterministic two-class script: the cross-class reader must see the
   initial value while the writer is uncommitted, then the committed
   value once the writer's activity has cleared *)
let test_engine_cross_class_values () = cross_class_check ~publish_every:1

(* the PR 5 drain-deadlock shape — a worker going idle while a peer
   still needs its publication — re-run at every batch K: with K > 1 the
   blocked reader must get unstuck through a republication request, not
   by luck of the next commit *)
let test_drain_deadlock_every_k () =
  List.iter (fun k -> cross_class_check ~publish_every:k) [ 1; 4; 16; 64 ]

let stress_seeds () = Fixtures.seeds_from_env "HDD_PAR_SEEDS"

let test_multicore_stress () =
  let seeds = stress_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let workers = Fixtures.scaled_workers seed
    and profile = Fixtures.stress_profile seed in
    let r = R.Differential.stress_one ~seed ~workers ~txns:40 ~profile () in
    if not (R.Differential.ok r) then
      failures :=
        Format.asprintf "seed %d workers %d: %a" seed workers
          R.Differential.pp_report r
        :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "%d/%d stress runs diverged:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" !failures)

let test_run_timed_smoke () =
  let partition = R.Differential.chain_partition 4 in
  let t =
    R.Engine.run_timed ~partition ~init:R.Differential.default_init
      ~workers:2 ~seconds:0.1
      ~mix:
        { R.Engine.ro_frac = 0.1; abort_frac = 0.05; cross_reads = 2;
          own_ops = 2; keys_per_segment = 4 }
      ~seed:3 ()
  in
  let s = t.R.Engine.t_stats in
  checkb "made progress" true (s.R.Engine.committed > 0);
  checkb "cross-class reads happened" true (s.R.Engine.reads_a > 0);
  let hist =
    Hdd_obs.Metrics.histogram t.R.Engine.t_latency "commit_latency_us"
  in
  let samples = Hdd_obs.Metrics.hist_count hist in
  checkb "latency samples for update commits" true
    (samples > 0 && samples <= s.R.Engine.committed)

let test_parbench_json () =
  let r =
    R.Parbench.run ~workers_list:[ 1; 2 ] ~depth:4 ~seconds:0.05 ~seed:1 ()
  in
  let json = R.Parbench.to_json r in
  check (Alcotest.option Alcotest.int) "schema stamped"
    (Some J.schema_version) (J.schema_of json);
  let parsed = J.of_string (J.to_string json) in
  (match J.member "points" parsed with
  | Some (J.List pts) -> checki "two points" 2 (List.length pts)
  | _ -> Alcotest.fail "points missing");
  checkb "no 1->4 ratio without a 4-worker point" true
    (r.R.Parbench.r_scaling_1_to_4 = None)

(* --- activity board: the seqlocked per-class fast path --- *)

let test_actboard_registry_equivalence () =
  (* 1000 random single-owner histories, driven into the registry and
     the board in lockstep: whenever the board's record decides (returns
     >= 0) it must equal Registry.i_old exactly — the monitor replays
     thresholds from the trace, so a lower-but-serializable answer still
     fails the oracle.  Mid-transition reads must refuse to decide. *)
  let out = Array.make 6 0 in
  for seed = 1 to 1000 do
    let prng = Hdd_util.Prng.create (seed + 7919) in
    let ab = R.Actboard.create ~classes:1 in
    let reg = Registry.create ~classes:1 () in
    let now = ref 0 in
    let tick () = incr now; !now in
    let next_id = ref 0 in
    let probe () =
      let at = 1 + Hdd_util.Prng.int prng (!now + 2) in
      checkb "single-threaded read always stable" true
        (R.Actboard.read_into ab 0 ~out ~retries:4);
      let fast = R.Actboard.i_old_of_record out ~at in
      if fast >= 0 then
        checki
          (Printf.sprintf "seed %d I_old at %d" seed at)
          (Registry.i_old reg ~class_id:0 ~at)
          fast
    in
    for _ = 1 to 12 do
      if Hdd_util.Prng.bool prng then ignore (tick ());
      probe ();
      incr next_id;
      R.Actboard.begin_txn ab 0;
      let init = tick () in
      Registry.register_active reg ~class_id:0 ~id:!next_id ~init;
      R.Actboard.set_busy ab 0 ~init;
      probe ();
      if Hdd_util.Prng.bool prng then ignore (tick ());
      probe ();
      R.Actboard.set_ending ab 0;
      checkb "read mid-transition stays stable" true
        (R.Actboard.read_into ab 0 ~out ~retries:4);
      checki "transition state falls back" (-1)
        (R.Actboard.i_old_of_record out ~at:(!now + 1));
      let endt = tick () in
      Registry.finish_active reg ~class_id:0 ~endt;
      R.Actboard.set_idle ab 0 ~init ~endt;
      probe ()
    done
  done

(* --- version rings --- *)

let test_vring_ring () =
  let v = R.Vring.create ~entries:8 in
  checki "capacity" 8 (R.Vring.capacity v);
  checki "empty ring: view complete" 0
    (R.Vring.latest_below v ~key:0 ~ts:100 ~floor:0);
  (* one transaction writing two keys publishes with a single advance *)
  R.Vring.stage v 0 ~ts:5 ~key:1 ~value:50;
  R.Vring.stage v 1 ~ts:5 ~key:2 ~value:51;
  checki "staged entries invisible" 0
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:0);
  R.Vring.advance v 2;
  checki "found after advance" 5
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:0);
  checki "whole equal-ts block visible" 5
    (R.Vring.latest_below v ~key:2 ~ts:100 ~floor:0);
  check (Alcotest.option Alcotest.int) "value travels" (Some 50)
    (R.Vring.value_at v ~key:1 ~ts:5);
  (* threshold at the entry: strictly-below finds nothing newer *)
  checki "threshold excludes own ts" 0
    (R.Vring.latest_below v ~key:1 ~ts:5 ~floor:0);
  (* floor at the block's ts: the stop block is still examined in full,
     so a multi-key transaction straddling the floor resolves in-ring *)
  checki "stop block examined in full" 5
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:5);
  (* overflow the ring: a scan that would need evicted entries reports
     the wrap instead of a silently incomplete answer *)
  for i = 0 to 11 do
    R.Vring.stage v (2 + i) ~ts:(10 + i) ~key:(i mod 3) ~value:i;
    R.Vring.advance v (3 + i)
  done;
  checki "head counts every append" 14 (R.Vring.head v);
  checki "newest still found" 21 (R.Vring.latest_below v ~key:2 ~ts:100 ~floor:20);
  checki "wrapped scan falls back" (-1)
    (R.Vring.latest_below v ~key:7 ~ts:100 ~floor:4)

(* --- epoch wall vs seqlock wall --- *)

let mkwall m =
  Hdd_core.Timewall.make ~s:0 ~m ~components:(Array.make 6 m)
    ~released_at:(m + 1)

let test_epochwall_seqwall_equivalence () =
  (* 1000 random release schedules driven into both implementations:
     every read agrees — the epoch wall is a drop-in for the seqlock *)
  for seed = 1 to 1000 do
    let prng = Hdd_util.Prng.create (seed * 31) in
    let ew = R.Epochwall.create (mkwall 0) in
    let sw = R.Seqwall.create (mkwall 0) in
    let m = ref 0 in
    for _ = 1 to 20 do
      if Hdd_util.Prng.bool prng then begin
        m := !m + 1 + Hdd_util.Prng.int prng 5;
        R.Epochwall.publish ew (mkwall !m);
        R.Seqwall.publish sw (mkwall !m)
      end;
      let a = R.Epochwall.read ew and b = R.Seqwall.read sw in
      checki "same wall" b.Hdd_core.Timewall.m a.Hdd_core.Timewall.m
    done
  done

let test_epochwall_pinned_reader () =
  (* pin a reader mid-read: capture the epoch, let the writer advance
     twice (a full lap rewrites the captured slot), then finish the
     read — the result must be one of the complete published walls *)
  let ew = R.Epochwall.create (mkwall 0) in
  for m = 1 to 100 do
    let e = R.Epochwall.epoch ew in
    R.Epochwall.publish ew (mkwall (2 * m));
    R.Epochwall.publish ew (mkwall ((2 * m) + 1));
    let w = R.Epochwall.read_slot ew e in
    let a = w.Hdd_core.Timewall.m in
    Array.iter (fun c -> checki "pinned read complete" a c)
      w.Hdd_core.Timewall.components;
    checki "released_at consistent" (a + 1) w.Hdd_core.Timewall.released_at
  done;
  (* and the concurrent hunt: wait-free reads are complete and monotone *)
  let ew = R.Epochwall.create (mkwall 0) in
  let rounds = 2000 in
  let writer =
    Domain.spawn (fun () ->
        for m = 1 to rounds do
          R.Epochwall.publish ew (mkwall m)
        done)
  in
  let torn = ref 0 and seen = ref (-1) and last = ref 0 in
  while !seen < rounds do
    let w = R.Epochwall.read ew in
    let m = w.Hdd_core.Timewall.m in
    Array.iter
      (fun c -> if c <> m then incr torn)
      w.Hdd_core.Timewall.components;
    if w.Hdd_core.Timewall.released_at <> m + 1 then incr torn;
    if m < !last then incr torn;
    last := m;
    if m > !seen then seen := m
  done;
  Domain.join writer;
  checki "no torn or backwards reads" 0 !torn

(* --- zero-allocation commit path --- *)

let test_alloc_probe_zero () =
  check (Alcotest.float 0.) "Protocol B commit path allocates nothing" 0.
    (R.Engine.alloc_probe ())

(* --- batched publication changes nothing observable --- *)

let batch_seeds () = Fixtures.seeds_from_env ~default:12 "HDD_BATCH_SEEDS"

let test_batching_identity () =
  (* every batch K must pass the full four-check oracle AND reach the
     same verdict totals as per-commit publication — batching may only
     delay when peers learn of activity, never what they conclude
     (reduced seed count in-tree; nightly raises HDD_BATCH_SEEDS) *)
  let seeds = batch_seeds () in
  let ks = [ 1; 4; 16; 64 ] in
  let profiles =
    [| R.Differential.Mixed; R.Differential.Abort_heavy;
       R.Differential.Adhoc_read |]
  in
  let failures = ref [] in
  for seed = 1 to seeds do
    let workers = [| 2; 4; 8 |].(seed mod 3) in
    let profile = profiles.(seed mod 3) in
    let outcomes =
      List.map
        (fun k ->
          let r =
            R.Differential.stress_one ~publish_every:k ~seed ~workers
              ~txns:40 ~profile ()
          in
          if not (R.Differential.ok r) then
            failures :=
              Format.asprintf "seed %d K=%d: %a" seed k
                R.Differential.pp_report r
              :: !failures;
          (k, r.R.Differential.r_committed, r.R.Differential.r_aborted))
        ks
    in
    match outcomes with
    | (_, c1, a1) :: rest ->
      List.iter
        (fun (k, c, a) ->
          if c <> c1 || a <> a1 then
            failures :=
              Printf.sprintf
                "seed %d: K=%d verdicts (%d committed, %d aborted) differ \
                 from K=1 (%d, %d)"
                seed k c a c1 a1
              :: !failures)
        rest
    | [] -> ()
  done;
  if !failures <> [] then
    Alcotest.failf "%d batching divergences:@.%s" (List.length !failures)
      (String.concat "\n" !failures)

let suite =
  [ Alcotest.test_case "gclock: ticks unique across domains" `Quick
      test_gclock_unique;
    Alcotest.test_case "mailbox: fifo, close, drain" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox: backpressure across domains" `Quick
      test_mailbox_backpressure;
    Alcotest.test_case "seqwall: no torn reads under concurrent publish"
      `Quick test_seqwall_no_tearing;
    Alcotest.test_case "store snapshot: immutable latest-before" `Quick
      test_pstore_latest_before;
    Alcotest.test_case "trace: per-domain merge by logical time" `Quick
      test_trace_merge;
    Alcotest.test_case "monitor: Any_released wall rule" `Quick
      test_monitor_any_released;
    Alcotest.test_case "registry: snapshot equals live on 1000 seeds" `Quick
      test_registry_snapshot_property;
    Alcotest.test_case "jsonlite: schema_version and unknown fields" `Quick
      test_jsonlite_schema;
    Alcotest.test_case "engine: single-worker differential" `Quick
      test_engine_single_worker;
    Alcotest.test_case "engine: deterministic two-class script" `Quick
      test_engine_cross_class_values;
    Alcotest.test_case "engine: drain-deadlock scenario at every batch K"
      `Quick test_drain_deadlock_every_k;
    Alcotest.test_case "actboard: record I_old equals registry on 1000 seeds"
      `Quick test_actboard_registry_equivalence;
    Alcotest.test_case "vring: splice, equal-ts blocks, wrap fallback"
      `Quick test_vring_ring;
    Alcotest.test_case "epochwall: equals seqwall on 1000 schedules" `Quick
      test_epochwall_seqwall_equivalence;
    Alcotest.test_case "epochwall: pinned reader never sees a torn wall"
      `Quick test_epochwall_pinned_reader;
    Alcotest.test_case "engine: commit path allocates zero bytes" `Quick
      test_alloc_probe_zero;
    Alcotest.test_case "engine: batched publication outcome identity" `Slow
      test_batching_identity;
    Alcotest.test_case "engine: randomized multicore stress" `Slow
      test_multicore_stress;
    Alcotest.test_case "engine: timed benchmark mode" `Quick
      test_run_timed_smoke;
    Alcotest.test_case "parbench: scaling report" `Quick test_parbench_json ]
