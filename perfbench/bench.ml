(* One workload of the benchmark, run in a process of its own:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Run from the root of the repository, which holds BENCHMARK.json: its
   end_to_end metrics are the result line of an untraced invocation, its
   per_layer metrics that of a traced one.  Prints every metric with its
   unit, then that line; writes the full report (and, traced, a Chrome
   trace) under perfbench/out.  Exits 1 when a check fails. *)

module J = Hdd_benchkit.Jsonlite

let workloads = [ "serial-chain8"; "durable-writes"; "engine-chain8"; "cluster-chain8" ]

(* Layers (metric-name prefixes) a workload's calls never reach.  A
   declared per-layer metric of such a layer reads 0; a missing metric
   of any other layer is an error in the benchmark. *)
let absent_layers = function
  | "serial-chain8" -> [ "group_commit"; "wal"; "engine"; "cluster" ]
  | "durable-writes" -> [ "engine"; "cluster" ]
  | "engine-chain8" -> [ "scheduler"; "store"; "group_commit"; "wal"; "cluster" ]
  | _ -> [ "scheduler"; "store"; "group_commit"; "wal"; "engine" ]

let declared key =
  let doc = J.of_file "BENCHMARK.json" in
  match J.member key doc with
  | Some (J.List l) ->
    List.map
      (fun m ->
        match (J.member "name" m, J.member "unit" m) with
        | Some (J.Str n), Some (J.Str u) -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
      l
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> ""

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let usage () =
  prerr_endline
    ("usage: bench.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := (t = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) || !seconds <= 0. then usage ();
  let wanted = declared (if !trace then "per_layer" else "end_to_end") in
  let out = Filename.concat "perfbench" "out" in
  let tmp = Filename.concat (Filename.concat "perfbench" ".tmp") (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p out;
  mkdir_p tmp;
  let tmp_fs = Report.filesystem_of tmp in
  let seed = !seed and seconds = !seconds and trace = !trace in
  let outcome, flush_policy =
    Fun.protect
      ~finally:(fun () -> remove_tree tmp)
      (fun () ->
        match !workload with
        | "serial-chain8" -> (Wl_serial.run ~seed ~seconds ~trace ~out, "none (in memory)")
        | "durable-writes" -> Wl_durable.run ~seed ~seconds ~trace ~tmp ~out
        | "engine-chain8" -> (Wl_engine.run ~seed ~seconds ~trace ~out, "none (in memory)")
        | _ -> (Wl_cluster.run ~seed ~seconds ~trace ~out, "none (in memory)"))
  in
  let r = outcome.Common.report in
  let failed = outcome.Common.failed and attempted = outcome.Common.attempted in
  Report.add r "bench.failed_frac" "ratio" (float_of_int failed /. float_of_int attempted);
  (* the closure check: span self times must account for the traced wall
     time within 10% *)
  let checks =
    outcome.Common.checks
    @
    if trace then
      [ ("trace_closure_within_10pct", Float.abs (Report.find r "bench.closure_frac" -. 1.) <= 0.1) ]
    else []
  in
  let correct = failed = 0 && List.for_all snd checks in
  let env = Report.env ~seed ~flush_policy ~tmp_fs in
  let absent = absent_layers !workload in
  let line =
    List.map
      (fun (name, unit_) ->
        match Report.find r name with
        | v -> { Report.name; unit_; value = v }
        | exception Not_found when List.mem (layer_of name) absent ->
          { Report.name; unit_; value = 0. }
        | exception Not_found -> failwith ("benchmark did not measure " ^ name))
      wanted
  in
  Printf.printf "%s (seed %d, %gs, trace %b)\n" !workload seed seconds trace;
  List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) env;
  List.iter (fun (k, ok) -> Printf.printf "  check %s: %s\n" k (if ok then "ok" else "FAILED")) checks;
  Report.print_table stdout (Report.metrics r);
  Report.write_file
    ~path:(Filename.concat out (Printf.sprintf "%s-trace%d.json" !workload (Bool.to_int trace)))
    ~workload:!workload ~trace ~env ~checks ~correct ~attempted ~failed
    (Report.metrics r);
  print_endline (Report.result_line ~correct ~attempted ~failed line);
  if not correct then exit 1
