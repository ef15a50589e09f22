(* What every workload does alike: time its set-up, read the process's
   GC counters, and hand back its report with the checks it made. *)

type outcome = {
  report : Report.t;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
}

(* Set-up is timed several times, some before the run and some after
   it, so the median does not rest on the machine's speed at one moment;
   the world built last before the run is the one measured. *)
type setup = { mutable times : float list }

let new_setup () = { times = [] }

let time_setup s f =
  (* reclaim the previous repetition first, so repeating the set-up does
     not raise the heap's high-water mark *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let x = f () in
  s.times <- (float_of_int (Clock.now_ns () - t0) /. 1e9) :: s.times;
  x

let reps_before = 5
let reps_after = 16

let setup_before s f =
  for _ = 2 to reps_before do
    ignore (time_setup s f)
  done;
  time_setup s f

let setup_after s f =
  for _ = 1 to reps_after do
    ignore (time_setup s f)
  done;
  Pstats.median (Array.of_list s.times)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* GC work done between two [Gc.quick_stat] readings, per commit and per
   second *)
let add_gc r ~(before : Gc.stat) ~(after : Gc.stat) ~commits ~seconds =
  let per x = x /. float_of_int (Int.max 1 commits) in
  Report.add r "gc.minor_words_per_commit" "words"
    (per (after.Gc.minor_words -. before.Gc.minor_words));
  Report.add r "gc.promoted_words_per_commit" "words"
    (per (after.Gc.promoted_words -. before.Gc.promoted_words));
  Report.add r "gc.major_collections_per_s" "1/s"
    (float_of_int (after.Gc.major_collections - before.Gc.major_collections) /. seconds)

let add_overhead r ~untraced ~traced =
  Report.add r "bench.trace_overhead_frac" "ratio" (1. -. (traced /. untraced))

(* Shares of the traced wall time: in each kind of call into the layer
   the workload drives ([prefix]), in all of them, in the client's own
   steps, and the closure check — every span's self time, except those
   timed outside the run window, against the wall time. *)
let call_kinds = [ "begin"; "read_a"; "read_b"; "read_c"; "write"; "commit"; "abort" ]

let add_span_fracs r sp ~prefix ~wall_ns ~outside =
  let totals = Spans.totals sp in
  let frac f =
    float_of_int (List.fold_left (fun acc (name, _, self) -> if f name then acc + self else acc) 0 totals)
    /. wall_ns
  in
  List.iter
    (fun k -> Report.add r ("layer." ^ k ^ "_frac") "ratio" (frac (String.equal (prefix ^ "." ^ k))))
    call_kinds;
  Report.add r "layer.busy_frac" "ratio" (frac (String.starts_with ~prefix:(prefix ^ ".")));
  Report.add r "bench.client_self_frac" "ratio" (frac (String.equal "bench.step"));
  Report.add r "bench.trace_flush_frac" "ratio" (frac (String.equal Spans.flush_name));
  Report.add r "bench.closure_frac" "ratio" (frac (fun name -> not (List.mem name outside)))

(* The traced run of a workload whose whole run is one opaque call into
   [prefix]'s layer: a client step around one span named [call]. *)
let trace_one_call r ~prefix ~call ~path f =
  let sp = Spans.create ~names:[ "bench.step"; call ] ~capacity:16 in
  let step = Spans.open_ sp ~name:(Spans.id sp "bench.step") ~parent:(-1) ~txn:0 in
  let i = Spans.open_ sp ~name:(Spans.id sp call) ~parent:step ~txn:0 in
  let x = f () in
  ignore (Spans.close sp i);
  let wall_ns = Spans.close sp step in
  Spans.flush sp;
  add_span_fracs r sp ~prefix ~wall_ns:(float_of_int wall_ns) ~outside:[];
  Spans.write_chrome sp path;
  x
