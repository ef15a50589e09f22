(* Unit tests for hdd_util: PRNG determinism, distributions, statistics,
   table rendering. *)

module Prng = Hdd_util.Prng
module Dist = Hdd_util.Dist
module Stats = Hdd_util.Stats
module Table = Hdd_util.Table

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  checkb "different seeds diverge" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_bounds () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    checkb "0 <= x < 17" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 2 in
  for _ = 1 to 1000 do
    let x = Prng.float g 3.5 in
    checkb "0 <= x < 3.5" true (x >= 0. && x < 3.5)
  done

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_bernoulli_extremes () =
  let g = Prng.create 21 in
  for _ = 1 to 200 do
    checkb "p=0 never" false (Dist.bernoulli g ~p:0.);
    checkb "p=1 always" true (Dist.bernoulli g ~p:1.0)
  done;
  let g = Prng.create 22 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Dist.bernoulli g ~p:0.3 then incr hits
  done;
  checkb "p=0.3 frequency" true (!hits > 2700 && !hits < 3300)

let test_prng_split_independence () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  (* the split stream must differ from the parent's continuation *)
  checkb "split differs" true (Prng.bits64 h <> Prng.bits64 g)

let test_prng_shuffle_permutation () =
  let g = Prng.create 4 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 50 Fun.id) sorted

let test_prng_pick () =
  let g = Prng.create 5 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    checkb "pick from array" true (Array.mem (Prng.pick g a) a)
  done;
  Alcotest.check_raises "empty pick rejected"
    (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick g [||]))

let test_exponential_mean () =
  let g = Prng.create 11 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dist.exponential g ~rate:2.0
  done;
  let mean = !total /. float_of_int n in
  (* mean of Exp(2) is 0.5; allow generous tolerance *)
  checkb "exponential mean near 0.5" true (abs_float (mean -. 0.5) < 0.03)

let test_uniform_int_range () =
  let g = Prng.create 12 in
  for _ = 1 to 1000 do
    let x = Dist.uniform_int g ~lo:5 ~hi:9 in
    checkb "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_zipf_uniform_degenerate () =
  let g = Prng.create 13 in
  let z = Dist.zipf ~n:4 ~alpha:0. in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let i = Dist.zipf_draw z g in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> checkb "roughly uniform" true (c > 1600 && c < 2400))
    counts

let test_zipf_skew () =
  let g = Prng.create 14 in
  let z = Dist.zipf ~n:100 ~alpha:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10000 do
    let i = Dist.zipf_draw z g in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "rank 0 dominates rank 50" true (counts.(0) > 10 * (counts.(50) + 1));
  checki "domain size" 100 (Dist.zipf_n z)

let test_zipf_validation () =
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Dist.zipf: n must be positive") (fun () ->
      ignore (Dist.zipf ~n:0 ~alpha:1.));
  Alcotest.check_raises "alpha<0 rejected"
    (Invalid_argument "Dist.zipf: alpha must be >= 0") (fun () ->
      ignore (Dist.zipf ~n:3 ~alpha:(-1.)))

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checki "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev" 2.13809 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2. (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 9. (Stats.max_value s);
  check (Alcotest.float 1e-9) "total" 40. (Stats.total s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50. (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p95" 95. (Stats.percentile s 95.);
  check (Alcotest.float 1e-9) "p100" 100. (Stats.percentile s 100.);
  check (Alcotest.float 1e-9) "p0 -> first" 1. (Stats.percentile s 0.);
  let sorted = Stats.observations s in
  check (Alcotest.float 1e-9) "sorted-array p99" 99.
    (Stats.percentile_sorted sorted 99.)

let test_stats_empty () =
  let s = Stats.create () in
  checkb "mean of empty is nan" true (Float.is_nan (Stats.mean s));
  Alcotest.check_raises "percentile of empty rejected"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.));
  checkb "sorted-array percentile of empty is nan" true
    (Float.is_nan (Stats.percentile_sorted [||] 50.))

let test_stats_growth () =
  let s = Stats.create () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  checki "all observations kept" 1000 (Array.length (Stats.observations s))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -3.; 42. ];
  let counts = Stats.Histogram.counts h in
  checki "bucket 0 gets 0.5 and clamped -3" 2 counts.(0);
  checki "bucket 1" 2 counts.(1);
  checki "bucket 9 gets 9.9 and clamped 42" 2 counts.(9);
  checkb "render mentions counts" true
    (String.length (Stats.Histogram.render h ~width:20) > 0)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0);
  checkb "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l >= 3 && String.sub l 0 1 = "|"))

let test_table_width_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a" ] in
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check Alcotest.string "float cell" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "nan cell" "-" (Table.cell_float nan);
  check Alcotest.string "pct cell" "12.3%" (Table.cell_pct 0.123);
  check Alcotest.string "int cell" "7" (Table.cell_int 7)

let suite =
  [ Alcotest.test_case "prng: deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng: seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng: int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng: float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng: copy" `Quick test_prng_copy;
    Alcotest.test_case "dist: bernoulli" `Quick test_bernoulli_extremes;
    Alcotest.test_case "prng: split independence" `Quick test_prng_split_independence;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng: pick" `Quick test_prng_pick;
    Alcotest.test_case "dist: exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "dist: uniform range" `Quick test_uniform_int_range;
    Alcotest.test_case "dist: zipf alpha=0 uniform" `Quick test_zipf_uniform_degenerate;
    Alcotest.test_case "dist: zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "dist: zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "stats: moments" `Quick test_stats_moments;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: empty" `Quick test_stats_empty;
    Alcotest.test_case "stats: growth" `Quick test_stats_growth;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: width mismatch" `Quick test_table_width_mismatch;
    Alcotest.test_case "table: cells" `Quick test_table_cells ]
