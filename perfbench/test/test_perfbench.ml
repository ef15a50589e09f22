(* The benchmark's own arithmetic: the percentile rule, self time under
   nested and overlapping children, quarter marks and the two-run
   tail_ratio, and what every report records. *)

open Perfbench

let feq = Alcotest.float 1e-9

let percentile_rule () =
  let q n = Pstats.tail_quantile n in
  Alcotest.check feq "19 samples: median only" 0.5 (q 19);
  Alcotest.check feq "99 samples: p90 would leave 9 beyond" 0.5 (q 99);
  Alcotest.check feq "100 samples: p90" 0.9 (q 100);
  Alcotest.check feq "999 samples: p90" 0.9 (q 999);
  Alcotest.check feq "1000 samples: p99" 0.99 (q 1000);
  Alcotest.check feq "9999 samples: p99" 0.99 (q 9999);
  Alcotest.check feq "10000 samples: p999" 0.999 (q 10000);
  (* the chosen percentile leaves exactly ten samples beyond it *)
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p99 of 1..1000" 990. (Pstats.quantile_sorted a 0.99);
  Alcotest.check feq "p50 of 1..1000" 500. (Pstats.quantile_sorted a 0.5);
  Alcotest.check feq "median of unsorted" 3. (Pstats.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pstats.quantile_sorted [||] 0.5))

let histogram () =
  let h = Pstats.Hist.create () in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pstats.Hist.quantile h 0.5));
  for v = 1 to 100 do
    Pstats.Hist.add h v
  done;
  Alcotest.check feq "small values are exact" 50. (Pstats.Hist.quantile h 0.5);
  Alcotest.check feq "p99 of 1..100" 99. (Pstats.Hist.quantile h 0.99);
  let h = Pstats.Hist.create () in
  for v = 1 to 100_000 do
    Pstats.Hist.add h (v * 1000)
  done;
  Alcotest.(check int) "count" 100_000 (Pstats.Hist.count h);
  let close_to want got = Float.abs (got -. want) /. want < 0.008 in
  Alcotest.(check bool) "p50 within 0.8%" true (close_to 50_000_000. (Pstats.Hist.quantile h 0.5));
  Alcotest.(check bool) "p99 within 0.8%" true (close_to 99_000_000. (Pstats.Hist.quantile h 0.99));
  Alcotest.(check bool) "max within 0.8%" true (close_to 100_000_000. (Pstats.Hist.quantile h 1.))

let self_of spans =
  let start = Array.of_list (List.map (fun (s, _, _) -> s) spans) in
  let stop = Array.of_list (List.map (fun (_, e, _) -> e) spans) in
  let parent = Array.of_list (List.map (fun (_, _, p) -> p) spans) in
  Array.to_list (Spans.self_times ~start ~stop ~parent (List.length spans))

let self_nested () =
  Alcotest.(check (list int)) "parent, child, grandchild" [ 80; 15; 5 ]
    (self_of [ (0, 100, -1); (10, 30, 0); (15, 20, 1) ]);
  Alcotest.(check (list int)) "siblings side by side" [ 70; 10; 20 ]
    (self_of [ (0, 100, -1); (10, 20, 0); (50, 70, 0) ])

let self_overlapping () =
  (* [10,40] and [30,60] overlap: together they cover 50, not 60 *)
  Alcotest.(check (list int)) "overlapping children" [ 40; 30; 30; 10 ]
    (self_of [ (0, 100, -1); (10, 40, 0); (30, 60, 0); (70, 80, 0) ]);
  Alcotest.(check (list int)) "recorded out of order" [ 40; 10; 30; 30 ]
    (self_of [ (0, 100, -1); (70, 80, 0); (30, 60, 0); (10, 40, 0) ]);
  Alcotest.(check (list int)) "child contained in a sibling" [ 50; 50; 10 ]
    (self_of [ (0, 100, -1); (20, 70, 0); (30, 40, 0) ]);
  (* a child running past its parent only covers the parent's part *)
  Alcotest.(check (list int)) "clipped to the parent" [ 90; 30 ]
    (self_of [ (0, 100, -1); (90, 120, 0) ])

let spans_fold () =
  let sp = Spans.create ~names:[ "step"; "call" ] ~capacity:128 in
  let step = Spans.id sp "step" and call = Spans.id sp "call" in
  for _ = 1 to 300 do
    let s = Spans.open_ sp ~name:step ~parent:(-1) ~txn:0 in
    let c = Spans.open_ sp ~name:call ~parent:s ~txn:7 in
    ignore (Spans.close sp c);
    ignore (Spans.close sp s);
    Spans.boundary sp
  done;
  Spans.flush sp;
  let count name =
    match List.find_opt (fun (n, _, _) -> n = name) (Spans.totals sp) with
    | Some (_, k, self) -> (k, self)
    | None -> (0, 0)
  in
  Alcotest.(check int) "every step folded" 300 (fst (count "step"));
  Alcotest.(check int) "every call folded" 300 (fst (count "call"));
  Alcotest.(check bool) "folds happened" true (fst (count Spans.flush_name) > 1);
  Alcotest.(check bool) "self times are not negative" true
    (snd (count "step") >= 0 && snd (count "call") >= 0);
  Alcotest.check_raises "an unknown name" (Invalid_argument "Spans.id: unknown span nope")
    (fun () -> ignore (Spans.id sp "nope"))

let windows_count () =
  let w = Pstats.Windows.create ~windows:4 (Count 100) in
  let added = ref 0 in
  for n = 1 to 100 do
    if Pstats.Windows.observe w ~t:(float_of_int n) ~n then incr added
  done;
  Alcotest.(check int) "four marks" 4 !added;
  Alcotest.(check (list (pair (float 0.) int))) "marks at each quarter of the count"
    [ (25., 25); (50., 50); (75., 75); (100., 100) ]
    (Array.to_list (Pstats.Windows.marks w));
  Alcotest.check feq "a steady run is flat" 1. (Pstats.Windows.tail w);
  List.iter (fun r -> Alcotest.check feq "window rate" 1. r) (Array.to_list (Pstats.Windows.rates w));
  Alcotest.check_raises "windows in quarters" (Invalid_argument "Windows.create: windows")
    (fun () -> ignore (Pstats.Windows.create ~windows:6 (Count 10)))

let windows_time () =
  (* 100 commits per second for 1 s, then 50 per second for 3 s *)
  let w = Pstats.Windows.create (Time 4.) in
  let n_at t = if t <= 1. then int_of_float (100. *. t) else 100 + int_of_float (50. *. (t -. 1.)) in
  let t = ref 0. in
  while !t < 3.99 do
    t := !t +. 0.01;
    ignore (Pstats.Windows.observe w ~t:!t ~n:(n_at !t))
  done;
  Pstats.Windows.finish w ~t:4. ~n:250;
  let marks = Pstats.Windows.marks w in
  Alcotest.(check int) "twenty marks" 20 (Array.length marks);
  Alcotest.check (Alcotest.float 0.02) "first quarter ends near 1 s" 1. (fst marks.(4));
  Alcotest.check (Alcotest.float 5.) "first-quarter rate" 100. (Pstats.Windows.first_quarter_rate w);
  Alcotest.check (Alcotest.float 0.05) "half-speed tail" 0.5 (Pstats.Windows.tail w);
  (* a cut-short run still closes on its last reading *)
  let short = Pstats.Windows.create ~windows:4 (Count 1000) in
  ignore (Pstats.Windows.observe short ~t:1. ~n:300);
  Pstats.Windows.finish short ~t:2. ~n:400;
  Alcotest.(check (list (pair (float 0.) int))) "finish fills the rest"
    [ (1., 300); (2., 400); (2., 400); (2., 400) ]
    (Array.to_list (Pstats.Windows.marks short))

let windows_median () =
  (* one window stalled by interference moves neither the rate nor the
     tail ratio *)
  let w = Pstats.Windows.create ~windows:8 (Count 800) in
  let t = ref 0. in
  for i = 1 to 8 do
    t := !t +. (if i = 6 then 10. else 1.);
    ignore (Pstats.Windows.observe w ~t:!t ~n:(i * 100))
  done;
  Alcotest.check feq "median window rate" 100. (Pstats.Windows.rate w);
  Alcotest.check feq "tail unmoved" 1. (Pstats.Windows.tail w)

let two_run_tail () =
  (* a quarter-length run commits 100 in 1 s; the full run 250 in 4 s *)
  Alcotest.check feq "slowing engine" 0.5 (Pstats.tail_ratio ~first:(1., 100) ~total:(4., 250));
  Alcotest.check feq "steady engine" 1. (Pstats.tail_ratio ~first:(1., 100) ~total:(4., 400));
  Alcotest.check feq "warming engine" 2. (Pstats.tail_ratio ~first:(1., 100) ~total:(4., 700))

let report_records () =
  let env = Report.env ~seed:42 ~flush_policy:"fsync on, group 8/16" ~tmp_fs:"ext4" in
  List.iter
    (fun k -> Alcotest.(check bool) ("records " ^ k) true (List.mem_assoc k env))
    [ "nproc"; "ocaml"; "seed"; "flush_policy"; "tmp_fs" ];
  Alcotest.(check string) "nproc" (string_of_int (Domain.recommended_domain_count ()))
    (List.assoc "nproc" env);
  Alcotest.(check string) "ocaml" Sys.ocaml_version (List.assoc "ocaml" env);
  Alcotest.(check string) "seed" "42" (List.assoc "seed" env);
  Alcotest.(check string) "flush policy" "fsync on, group 8/16" (List.assoc "flush_policy" env);
  let ms = [ { Report.name = "txn_per_s"; unit_ = "txn/s"; value = 123456.789012345 } ] in
  let path = Filename.temp_file "perfbench" ".json" in
  Report.write_file ~path ~workload:"w" ~trace:false ~env ~checks:[ ("c", true) ] ~correct:true
    ~attempted:3 ~failed:0 ms;
  let doc = Hdd_benchkit.Jsonlite.of_file path in
  Sys.remove path;
  List.iter
    (fun k ->
      Alcotest.(check bool) ("report file has env." ^ k) true
        (Hdd_benchkit.Jsonlite.path [ "env"; k ] doc <> None))
    [ "nproc"; "ocaml"; "seed"; "flush_policy"; "tmp_fs" ];
  let line = Report.result_line ~correct:true ~attempted:3 ~failed:0 ms in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Hdd_benchkit.Jsonlite.of_string line with
  | Hdd_benchkit.Jsonlite.Obj fields ->
    Alcotest.(check (list string)) "exactly the contract's keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields);
    Alcotest.(check (option (float 0.))) "all the digits" (Some 123456.789012345)
      (Option.bind
         (Hdd_benchkit.Jsonlite.path [ "metrics"; "txn_per_s"; "value" ] (Obj fields))
         Hdd_benchkit.Jsonlite.number)
  | _ -> Alcotest.fail "result line is not an object"

let () =
  Alcotest.run "perfbench"
    [ ( "arithmetic",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "latency histogram" `Quick histogram;
          Alcotest.test_case "self time, nested children" `Quick self_nested;
          Alcotest.test_case "self time, overlapping children" `Quick self_overlapping;
          Alcotest.test_case "span folding" `Quick spans_fold;
          Alcotest.test_case "windows by count" `Quick windows_count;
          Alcotest.test_case "windows by time" `Quick windows_time;
          Alcotest.test_case "window medians" `Quick windows_median;
          Alcotest.test_case "two-run tail ratio" `Quick two_run_tail ] );
      ("report", [ Alcotest.test_case "report records" `Quick report_records ]) ]
