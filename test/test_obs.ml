(* The observability stack: the trace ring (encode/decode round-trips,
   eviction, determinism), the metrics registry and its standard event
   bridge, seeded violations for each of the four invariant monitors
   (every check shown to actually fire, guarding against vacuity), the
   monitors run green over every curated explorer scenario, golden
   byte-stable traces for those scenarios, and the observability-
   invisibility property: a full observability stack changes no outcome
   of any schedule. *)

module Trace = Hdd_obs.Trace
module Metrics = Hdd_obs.Metrics
module Monitor = Hdd_obs.Monitor
module Explore = Hdd_check.Explore
module Scenarios = Hdd_check.Scenarios
module Gen = Hdd_check.Gen
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- the trace ring --- *)

(* one of each event shape, exercising both the flattened and the boxed
   slot encodings *)
let one_of_each =
  [ Trace.Begin { txn = 1; kind = Trace.Update 2; init = 10 };
    Trace.Begin { txn = 2; kind = Trace.Read_only; init = 11 };
    Trace.Begin { txn = 3; kind = Trace.Hosted 4; init = 12 };
    Trace.Begin
      { txn = 4;
        kind = Trace.Adhoc { wsegs = [ 0; 2 ]; rsegs = [ 1 ] };
        init = 13 };
    Trace.Read
      { txn = 1; protocol = Trace.A; segment = 3; key = 7; threshold = 10;
        version = 9 };
    Trace.Block
      { txn = 1; protocol = Trace.B; segment = 2; key = 0; on = [ 5; 6 ] };
    Trace.Reject
      { txn = 2; protocol = Some Trace.B; stage = Trace.Rule; segment = 1;
        reason = "late write" };
    Trace.Reject
      { txn = 2; protocol = None; stage = Trace.Routing; segment = -1;
        reason = "read-only transactions do not write" };
    Trace.Write { txn = 1; segment = 2; key = 3; ts = 10 };
    Trace.Commit { txn = 1; at = 15 };
    Trace.Abort { txn = 2; at = 16 };
    Trace.Wall_release
      { m = 14; released_at = 17; components = [| 14; 13; 12 |] };
    Trace.Wall_blocked { on = 9 };
    Trace.Gc { watermark = 12; vector = [| 12; 13; 14 |]; dropped = 5 };
    Trace.Seg_gc { segment = 1; dropped = 3 };
    Trace.Registry_prune
      { upto = 12; records_dropped = 4; windows_dropped = 2 };
    Trace.Sim { label = "restart"; txn = 3 };
    Trace.Repartition
      { epoch = 1; kind = "migrate"; moved = [ 2; 0 ]; fresh_store = false };
    Trace.Repartition
      { epoch = 2; kind = "split"; moved = [ 1; 3 ]; fresh_store = true };
    Trace.Note "checkpoint" ]

let test_ring_roundtrip () =
  let t = Trace.create () in
  List.iteri (fun i ev -> Trace.emit t ~at:(100 + i) ev) one_of_each;
  let rs = Trace.records t in
  checki "all retained" (List.length one_of_each) (List.length rs);
  List.iteri
    (fun i (r : Trace.record) ->
      checki "seq" i r.Trace.seq;
      checki "at" (100 + i) r.Trace.at;
      checkb
        (Format.asprintf "event %d round-trips" i)
        true
        (r.Trace.ev = List.nth one_of_each i))
    rs

let test_ring_eviction () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.emit t ~at:i (Trace.Wall_blocked { on = i })
  done;
  checki "emitted counts evictions" 10 (Trace.emitted t);
  checki "dropped" 6 (Trace.dropped t);
  let rs = Trace.records t in
  checki "ring keeps capacity" 4 (List.length rs);
  List.iteri
    (fun i (r : Trace.record) ->
      checki "oldest evicted first" (6 + i) r.Trace.seq;
      checkb "payload survives" true (r.Trace.ev = Trace.Wall_blocked { on = 6 + i }))
    rs;
  Trace.clear t;
  checki "clear resets emitted" 0 (Trace.emitted t);
  checki "clear empties the ring" 0 (List.length (Trace.records t))

let test_ring_disabled_and_subscribers () =
  let t = Trace.create () in
  let seen = ref [] in
  Trace.subscribe t (fun r -> seen := r.Trace.seq :: !seen);
  Trace.subscribe t (fun r -> seen := (1000 + r.Trace.seq) :: !seen);
  Trace.disable t;
  Trace.emit t ~at:1 (Trace.Note "while off");
  checki "disabled emits nothing" 0 (Trace.emitted t);
  checkb "disabled calls no subscriber" true (!seen = []);
  Trace.enable t;
  Trace.emit t ~at:2 (Trace.Note "while on");
  checkb "subscribers run in subscription order" true (!seen = [ 1000; 0 ]);
  (* emit_here reuses the last explicit timestamp *)
  Trace.emit_here t (Trace.Note "no clock here");
  match List.rev (Trace.records t) with
  | last :: _ -> checki "emit_here at last_at" 2 last.Trace.at
  | [] -> Alcotest.fail "no records"

let test_to_text_deterministic () =
  let render () =
    let t = Trace.create () in
    List.iteri (fun i ev -> Trace.emit t ~at:i ev) one_of_each;
    Trace.to_text t
  in
  let a = render () in
  checkb "non-empty" true (String.length a > 0);
  checks "byte-stable across runs" a (render ())

(* --- metrics --- *)

let test_metrics_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.add c 4;
  checki "counter" 5 (Metrics.value c);
  checkb "get-or-create returns the same cell" true
    (Metrics.counter m "c" == c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  let h = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] m "h" in
  List.iter (fun x -> Metrics.observe h x) [ 0.5; 5.; 50.; 500. ];
  checki "hist count" 4 (Metrics.hist_count h);
  checkb "hist sum" true (Metrics.hist_sum h = 555.5);
  checkb "median in the right bucket" true (Metrics.quantile h 0.5 = 10.);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: c has another kind") (fun () ->
      ignore (Metrics.gauge m "c"));
  match Metrics.snapshot m with
  | [ ("c", Metrics.Counter 5); ("g", Metrics.Gauge 2.5);
      ("h", Metrics.Histogram { count = 4; _ }) ] ->
    ()
  | _ -> Alcotest.fail "snapshot shape (name-sorted) off"

(* Per-worker latency histograms folded at the end of a timed engine
   run must report exactly what one histogram observing every raw
   sample would.  Integer-valued samples keep the float sum exact. *)
let test_metrics_merge () =
  let samples =
    Array.init 5000 (fun i -> Float.of_int ((i * 7919) mod 3_000_000))
  in
  let whole_m = Metrics.create () in
  let whole = Metrics.histogram whole_m "commit_latency_us" in
  Array.iter (Metrics.observe whole) samples;
  let parts =
    Array.init 3 (fun _ -> Metrics.histogram (Metrics.create ()) "part")
  in
  Array.iteri (fun i x -> Metrics.observe parts.(i mod 3) x) samples;
  let folded_m = Metrics.create () in
  let folded = Metrics.histogram folded_m "commit_latency_us" in
  Array.iter (fun p -> Metrics.merge ~into:folded p) parts;
  checkb "folded snapshot equals the raw-sample histogram" true
    (Metrics.snapshot folded_m = Metrics.snapshot whole_m);
  checkb "p99 agrees" true (Metrics.p99 folded = Metrics.p99 whole);
  Alcotest.check_raises "bounds must match"
    (Invalid_argument "Metrics.merge: bucket bounds differ") (fun () ->
      Metrics.merge ~into:folded
        (Metrics.histogram ~buckets:[| 1. |] (Metrics.create ()) "x"))

(* The p999 tail quantile (DESIGN.md §18 SLOs): empty and single-sample
   degenerate cases, and a heavy-tailed histogram where p50 and p99 sit
   in the body but p999 lands in the tail — the case the finer
   [latency_buckets] grid exists for. *)
let test_metrics_p999 () =
  let m = Metrics.create () in
  let empty = Metrics.histogram ~buckets:Metrics.latency_buckets m "e" in
  checkb "empty histogram quantiles are 0" true
    (Metrics.p50 empty = 0. && Metrics.p999 empty = 0.);
  let one = Metrics.histogram ~buckets:Metrics.latency_buckets m "one" in
  Metrics.observe one 3.0;
  checkb "single sample: all quantiles agree" true
    (Metrics.p50 one = Metrics.p99 one && Metrics.p99 one = Metrics.p999 one);
  checkb "single sample: bound covers the observation" true
    (Metrics.p999 one >= 3.0 && Float.is_finite (Metrics.p999 one));
  let heavy = Metrics.histogram ~buckets:Metrics.latency_buckets m "heavy" in
  for _ = 1 to 2000 do
    Metrics.observe heavy 1.0
  done;
  for _ = 1 to 5 do
    Metrics.observe heavy 800.0
  done;
  checkb "p50 and p99 sit in the body" true
    (Metrics.p50 heavy = Metrics.p99 heavy && Metrics.p99 heavy < 2.);
  checkb "p999 lands in the tail" true
    (Metrics.p999 heavy >= 800. && Float.is_finite (Metrics.p999 heavy));
  let off = Metrics.histogram ~buckets:Metrics.latency_buckets m "off" in
  Metrics.observe off 1e12;
  checkb "observation past the last bound reports infinity" true
    (Metrics.p999 off = infinity)

let test_metrics_bridge () =
  let t = Trace.create () in
  let m = Metrics.create () in
  Metrics.attach m t;
  List.iteri (fun i ev -> Trace.emit t ~at:i ev) one_of_each;
  let count name =
    match Metrics.find m name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "counter %s missing" name
  in
  checki "begins" 4 (count "txn.begins");
  checki "commits" 1 (count "txn.commits");
  checki "aborts" 1 (count "txn.aborts");
  checki "reads.a" 1 (count "reads.a");
  checki "writes" 1 (count "writes");
  checki "blocks" 1 (count "blocks");
  checki "rejects" 2 (count "rejects");
  checki "wall releases" 1 (count "wall.releases");
  checki "gc collections" 1 (count "gc.collections");
  checki "gc versions dropped" 5 (count "gc.versions_dropped");
  checki "registry pruned records" 4 (count "registry.pruned_records");
  checki "repartitions" 2 (count "adapt.repartitions");
  checki "sim label becomes a counter" 1 (count "sim.restart")

(* --- the monitors: every invariant shown to fire --- *)

(* each seeded stream is valid except for the one poisoned event, so a
   violation proves the specific check tripped, not some earlier one *)
let catch_violation events =
  let t = Trace.create () in
  let m = Monitor.create () in
  Monitor.attach m t;
  match List.iteri (fun i ev -> Trace.emit t ~at:i ev) events with
  | () ->
    checkb "monitor saw the stream" true (Monitor.events_seen m > 0);
    None
  | exception Monitor.Violation msg -> Some msg

let expect_violation name events =
  match catch_violation events with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: monitor stayed silent" name

let expect_clean name events =
  match catch_violation events with
  | Some msg -> Alcotest.failf "%s: unexpected violation: %s" name msg
  | None -> ()

let begin_u ?(txn = 1) ?(cls = 0) init =
  Trace.Begin { txn; kind = Trace.Update cls; init }

let test_monitor_no_wait_no_reject () =
  expect_violation "protocol A block"
    [ begin_u 1;
      Trace.Block { txn = 1; protocol = Trace.A; segment = 1; key = 0; on = [ 9 ] } ];
  expect_violation "protocol C rule reject"
    [ Trace.Begin { txn = 1; kind = Trace.Read_only; init = 1 };
      Trace.Reject
        { txn = 1; protocol = Some Trace.C; stage = Trace.Rule; segment = 1;
          reason = "version collected past timestamp" } ];
  expect_clean "protocol B may block and reject"
    [ begin_u 1;
      Trace.Block { txn = 1; protocol = Trace.B; segment = 0; key = 0; on = [ 9 ] };
      Trace.Reject
        { txn = 1; protocol = Some Trace.B; stage = Trace.Rule; segment = 0;
          reason = "late write" } ];
  expect_clean "routing and barrier rejections are by design"
    [ begin_u 1;
      Trace.Reject
        { txn = 1; protocol = Some Trace.A; stage = Trace.Routing; segment = 2;
          reason = "outside the read pattern" };
      Trace.Reject
        { txn = 1; protocol = Some Trace.C; stage = Trace.Barrier; segment = -1;
          reason = "ad-hoc barrier up" } ]

let wall ~released ~components =
  Trace.Wall_release { m = released - 1; released_at = released; components }

let test_monitor_wall_monotonicity () =
  expect_violation "release times must strictly increase"
    [ wall ~released:10 ~components:[| 5; 5 |];
      wall ~released:10 ~components:[| 6; 6 |] ];
  expect_violation "components must not move backwards"
    [ wall ~released:10 ~components:[| 5; 5 |];
      wall ~released:12 ~components:[| 6; 4 |] ];
  expect_clean "monotone walls pass"
    [ wall ~released:10 ~components:[| 5; 5 |];
      wall ~released:12 ~components:[| 6; 5 |] ]

let test_monitor_write_ts_ordering () =
  expect_violation "write must carry its initiation time"
    [ begin_u 5; Trace.Write { txn = 1; segment = 0; key = 0; ts = 6 } ];
  expect_violation "duplicate committed timestamp per granule"
    [ begin_u ~txn:1 5;
      Trace.Write { txn = 1; segment = 0; key = 0; ts = 5 };
      Trace.Commit { txn = 1; at = 6 };
      begin_u ~txn:2 5;
      Trace.Write { txn = 2; segment = 0; key = 0; ts = 5 };
      Trace.Commit { txn = 2; at = 7 } ];
  expect_violation "read must return the newest version below threshold"
    [ begin_u ~txn:1 5;
      Trace.Write { txn = 1; segment = 0; key = 0; ts = 5 };
      Trace.Commit { txn = 1; at = 6 };
      begin_u ~txn:2 ~cls:1 9;
      (* version 5 is committed and below the threshold; serving 0 skips it *)
      Trace.Read
        { txn = 2; protocol = Trace.A; segment = 0; key = 0; threshold = 9;
          version = 0 } ];
  expect_violation "version at or above threshold"
    [ begin_u ~txn:1 5;
      Trace.Read
        { txn = 1; protocol = Trace.B; segment = 0; key = 0; threshold = 5;
          version = 5 } ];
  expect_clean "a conforming write/commit/read sequence"
    [ begin_u ~txn:1 5;
      Trace.Write { txn = 1; segment = 0; key = 0; ts = 5 };
      Trace.Commit { txn = 1; at = 6 };
      begin_u ~txn:2 ~cls:1 9;
      Trace.Read
        { txn = 2; protocol = Trace.A; segment = 0; key = 0; threshold = 9;
          version = 5 } ]

let test_monitor_gc_watermark () =
  expect_violation "gc above an active update's initiation time"
    [ begin_u ~txn:1 ~cls:0 5;
      Trace.Gc { watermark = 6; vector = [| 6; 6 |]; dropped = 1 } ];
  expect_violation "gc above a used threshold"
    [ begin_u ~txn:1 ~cls:0 20;
      Trace.Read
        { txn = 1; protocol = Trace.A; segment = 1; key = 0; threshold = 8;
          version = 0 };
      Trace.Gc { watermark = 9; vector = [| 20; 9 |]; dropped = 1 } ];
  expect_violation "gc above the current wall"
    [ wall ~released:10 ~components:[| 5; 5 |];
      Trace.Gc { watermark = 6; vector = [| 6; 5 |]; dropped = 1 } ];
  expect_violation "gc above an ad-hoc transaction's initiation (all segments)"
    [ Trace.Begin
        { txn = 1; kind = Trace.Adhoc { wsegs = [ 0 ]; rsegs = [ 1 ] };
          init = 5 };
      Trace.Gc { watermark = 4; vector = [| 4; 6 |]; dropped = 1 } ];
  expect_clean "gc at the watermark passes"
    [ begin_u ~txn:1 ~cls:0 5;
      wall ~released:4 ~components:[| 5; 5 |];
      Trace.Gc { watermark = 5; vector = [| 5; 5 |]; dropped = 1 } ]

(* --- the monitors over every curated scenario --- *)

let traced_schedule (sc : Scenarios.t) schedule =
  let trace = Trace.create () in
  let monitor = Monitor.create () in
  Monitor.attach monitor trace;
  let trial =
    Explore.run_schedule (Explore.hdd_traced trace) sc.Scenarios.workload
      schedule
  in
  (trial, trace, monitor)

let test_monitors_green_on_scenarios () =
  List.iter
    (fun (sc : Scenarios.t) ->
      for seed = 0 to 4 do
        let g = Prng.create (1000 + seed) in
        let schedule = Gen.schedule g sc.Scenarios.workload in
        match traced_schedule sc schedule with
        | _, _, monitor ->
          checkb
            (Printf.sprintf "%s/%d saw events" sc.Scenarios.sc_name seed)
            true
            (Monitor.events_seen monitor > 0)
        | exception Monitor.Violation msg ->
          Alcotest.failf "%s seed %d: %s" sc.Scenarios.sc_name seed msg
      done)
    Scenarios.all

(* --- golden traces --- *)

(* The serialized trace of every curated scenario under one fixed
   schedule must be byte-stable: same seed, same bytes, run after run,
   machine after machine.  Goldens live in test/golden/ and regenerate
   with HDD_GOLDEN_UPDATE=<dir> pointing at that directory. *)

let golden_schedule (sc : Scenarios.t) =
  Gen.schedule (Prng.create 42) sc.Scenarios.workload

let golden_text (sc : Scenarios.t) =
  let _, trace, _ = traced_schedule sc (golden_schedule sc) in
  Trace.to_text trace

let golden_file sc_name = Filename.concat "golden" (sc_name ^ ".trace")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_traces () =
  match Sys.getenv_opt "HDD_GOLDEN_UPDATE" with
  | Some dir when dir <> "" && dir <> "0" ->
    List.iter
      (fun (sc : Scenarios.t) ->
        let path = Filename.concat dir (sc.Scenarios.sc_name ^ ".trace") in
        let oc = open_out_bin path in
        output_string oc (golden_text sc);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      Scenarios.all
  | _ ->
    List.iter
      (fun (sc : Scenarios.t) ->
        let current = golden_text sc in
        checks
          (Printf.sprintf "%s: run-to-run stable" sc.Scenarios.sc_name)
          current (golden_text sc);
        let path = golden_file sc.Scenarios.sc_name in
        if not (Sys.file_exists path) then
          Alcotest.failf
            "%s missing — regenerate with HDD_GOLDEN_UPDATE=test/golden"
            path;
        checks
          (Printf.sprintf "%s: matches golden" sc.Scenarios.sc_name)
          (read_file path) current)
      Scenarios.all

(* --- observability invisibility --- *)

(* the mirror of PR 3's GC-invisibility property: running the same
   schedule with a full observability stack (enabled trace, metrics
   bridge, raising monitors) must produce the identical trial, field for
   field, as running it bare *)
let prop_observability_invisible =
  QCheck2.Test.make
    ~name:"observability: tracing + monitors change no outcome"
    ~count:1000
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let g = Prng.create seed in
      let wl = Gen.workload ~adhoc:(seed mod 4 = 0) g in
      let schedule = Gen.schedule g wl in
      let bare = Explore.run_schedule Explore.hdd wl schedule in
      let observed =
        Explore.run_schedule (Explore.hdd_observed ()) wl schedule
      in
      bare.Explore.t_events <> []
      && bare.Explore.t_schedule = observed.Explore.t_schedule
      && bare.Explore.t_events = observed.Explore.t_events
      && bare.Explore.t_committed = observed.Explore.t_committed
      && bare.Explore.t_aborted = observed.Explore.t_aborted
      && bare.Explore.t_deadlock = observed.Explore.t_deadlock
      && bare.Explore.t_verdict.Hdd_core.Certifier.serializable
         = observed.Explore.t_verdict.Hdd_core.Certifier.serializable)

let suite =
  [ Alcotest.test_case "trace: every event round-trips the ring" `Quick
      test_ring_roundtrip;
    Alcotest.test_case "trace: eviction, counters, clear" `Quick
      test_ring_eviction;
    Alcotest.test_case "trace: disabled is silent; subscribers ordered"
      `Quick test_ring_disabled_and_subscribers;
    Alcotest.test_case "trace: to_text is deterministic" `Quick
      test_to_text_deterministic;
    Alcotest.test_case "metrics: counters, gauges, histograms" `Quick
      test_metrics_basics;
    Alcotest.test_case "metrics: merge equals observing raw samples" `Quick
      test_metrics_merge;
    Alcotest.test_case "metrics: p999 tail quantile" `Quick
      test_metrics_p999;
    Alcotest.test_case "metrics: the standard event bridge" `Quick
      test_metrics_bridge;
    Alcotest.test_case "monitor: A/C no-wait no-reject fires" `Quick
      test_monitor_no_wait_no_reject;
    Alcotest.test_case "monitor: wall monotonicity fires" `Quick
      test_monitor_wall_monotonicity;
    Alcotest.test_case "monitor: write-timestamp ordering fires" `Quick
      test_monitor_write_ts_ordering;
    Alcotest.test_case "monitor: gc watermark bound fires" `Quick
      test_monitor_gc_watermark;
    Alcotest.test_case "monitor: green over every curated scenario" `Quick
      test_monitors_green_on_scenarios;
    Alcotest.test_case "golden traces byte-stable" `Quick
      test_golden_traces;
    QCheck_alcotest.to_alcotest prop_observability_invisible ]
