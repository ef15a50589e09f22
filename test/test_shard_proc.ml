(* Process-mode shard runs in their own executable: OCaml 5 refuses
   Unix.fork in a process that has ever spawned domains, and the main
   test binary's multicore suites do.  Everything here forks before any
   domain exists. *)

module Sh = Hdd_shard
module D = Hdd_runtime.Differential
module E = Hdd_runtime.Engine

let ok_or_fail what (r : D.report) =
  if not (D.ok r) then
    Alcotest.failf "%s: oracle rejected the run:@.%a" what D.pp_report r

let test_processes_smoke () =
  let r =
    Sh.Shard_diff.stress_one ~mode:`Processes ~seed:5 ~shards:2 ~txns:20
      ~profile:D.Mixed ()
  in
  ok_or_fail "process mode seed 5" r;
  Alcotest.(check bool) "made progress" true (r.D.r_committed > 0)

let test_processes_four_shards () =
  let r =
    Sh.Shard_diff.stress_one ~mode:`Processes ~seed:8 ~shards:4 ~txns:24
      ~profile:D.Adhoc_read ()
  in
  ok_or_fail "process mode seed 8 @ 4 shards" r

let test_processes_publications () =
  let partition, script =
    Sh.Shard_diff.stress_case ~seed:5 ~txns:20 ~profile:D.Mixed
  in
  let run =
    Sh.Cluster.run_script_processes ~partition ~init:D.default_init ~shards:2
      ~script ()
  in
  let updates =
    Array.fold_left
      (fun n (d : E.desc) ->
        match d.E.d_kind with `Update _ -> n + 1 | `Read_only -> n)
      0 script
  in
  (* one publication per finished update at the default batch of 1,
     plus each shard's final one *)
  let pubs = run.E.stats.E.publications in
  if pubs < updates + 2 then
    Alcotest.failf "%d publications for %d update transactions" pubs updates

(* The long few-key scripts (see {!Fixtures.long_shard_case}) through
   forked shards over the pipe mesh, at 2/4/8 shards: one seed per push,
   HDD_SHARD_LONG_SEEDS nightly. *)
let test_long_scripts_processes () =
  for seed = 1 to Fixtures.long_shard_seeds ~default:1 do
    let partition, script = Fixtures.long_shard_case seed in
    List.iter
      (fun shards ->
        ok_or_fail
          (Printf.sprintf "long script seed %d, %d processes" seed shards)
          (Sh.Shard_diff.check ~mode:`Processes ~partition
             ~init:D.default_init ~shards ~seed ~script ()))
      [ 2; 4; 8 ]
  done

(* A shard whose transaction raises (a write outside its root segment)
   exits non-zero mid-run.  The router must notice its pipe closing,
   kill and reap the other shard, and fail naming it — fast, with no
   child process left behind. *)
let test_dead_shard () =
  let partition = D.chain_partition 2 in
  let script =
    [| { E.d_id = 1; d_kind = `Update 0;
         d_ops = [ E.Write (Granule.make ~segment:1 ~key:0, 5) ];
         d_abort = false } |]
  in
  let t0 = Unix.gettimeofday () in
  (match
     Sh.Cluster.run_script_processes ~partition ~init:D.default_init
       ~shards:2 ~script ()
   with
  | _ -> Alcotest.fail "a dead shard went unnoticed"
  | exception Failure msg ->
    if not (Fixtures.contains msg "shard 0 died") then
      Alcotest.failf "failure does not name shard 0: %s" msg;
    if not (Fixtures.contains msg "exit status 2") then
      Alcotest.failf "failure does not give the exit status: %s" msg);
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 5. then Alcotest.failf "took %.1f s to notice" dt;
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "child %d left behind" pid

let () =
  Alcotest.run "hdd-shard-proc"
    [ ( "processes",
        [ Alcotest.test_case "2-shard fork smoke" `Slow test_processes_smoke;
          Alcotest.test_case "4-shard fork run" `Slow
            test_processes_four_shards;
          Alcotest.test_case "publications counted across the wire" `Slow
            test_processes_publications;
          Alcotest.test_case "long few-key scripts at 2/4/8 processes" `Slow
            test_long_scripts_processes;
          Alcotest.test_case "dead shard fails fast, no child left" `Slow
            test_dead_shard ] ) ]
