(* The sharded engine: codec round-trip properties (1000 seeds,
   truncation at every byte, single-bit corruption), scripted
   publication faults over the loopback transport, the cross-shard
   differential stress at 2/4/8 shards (reduced seed count in-tree; CI
   nightly raises HDD_SHARD_SEEDS), byte-stable golden traces for the
   curated scenarios, and forged-trace regressions pinning that the
   oracle names the check that failed. *)

module Sh = Hdd_shard
module R = Hdd_runtime
module E = Hdd_runtime.Engine
module D = Hdd_runtime.Differential
module T = Hdd_obs.Trace
module TW = Hdd_core.Timewall
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- strided clocks --- *)

let test_sclock () =
  let shards = 3 in
  let cs = Array.init shards (fun me -> Sh.Sclock.create ~shards ~me) in
  let all = ref [] in
  for _ = 1 to 50 do
    Array.iteri
      (fun me c ->
        let t = Sh.Sclock.tick c in
        checki "stride residue" me (t mod shards);
        all := t :: !all;
        (* gossip the stamp to a random peer, as packets do *)
        Sh.Sclock.catch_up cs.((me + 1) mod shards) t)
      cs
  done;
  let n = List.length !all in
  checki "globally unique" n (List.length (List.sort_uniq compare !all))

(* --- random packets for the codec properties --- *)

let rand_snap prng =
  let classes = 1 + Prng.int prng 4 in
  Registry.snapshot_of_parts
    (Array.init classes (fun _ ->
         let t = ref (Prng.int prng 5) in
         let actives =
           List.init (Prng.int prng 4) (fun i ->
               t := !t + 1 + Prng.int prng 9;
               (100 + i, !t))
         in
         let wi = ref 0 and we = ref 0 in
         let windows =
           Array.init (Prng.int prng 5) (fun _ ->
               wi := !wi + 1 + Prng.int prng 7;
               we := max !we !wi + 1 + Prng.int prng 7;
               (!wi, !we))
         in
         (actives, windows, Prng.int prng 1000)))

let rand_wall prng =
  TW.make ~s:(Prng.int prng 4)
    ~m:(Prng.int prng 1000)
    ~components:(Array.init (1 + Prng.int prng 5) (fun _ -> Prng.int prng 1000))
    ~released_at:(Prng.int prng 1000)

(* an int with the extremes over-represented: varint edge cases *)
let rand_int prng =
  match Prng.int prng 8 with
  | 0 -> max_int
  | 1 -> min_int
  | 2 -> -1
  | 3 -> 0
  | _ -> Prng.int prng 1_000_000 - 500_000

let rand_event prng =
  let i = Prng.int prng 100 and j = Prng.int prng 100 in
  match Prng.int prng 19 with
  | 0 ->
    let kind =
      match Prng.int prng 4 with
      | 0 -> T.Update i
      | 1 -> T.Read_only
      | 2 -> T.Hosted i
      | _ -> T.Adhoc { wsegs = [ i ]; rsegs = [ i; j ] }
    in
    T.Begin { txn = i; kind; init = j }
  | 1 ->
    T.Read
      { txn = i; protocol = T.A; segment = j mod 7; key = j;
        threshold = rand_int prng; version = rand_int prng }
  | 2 -> T.Block { txn = i; protocol = T.B; segment = j mod 7; key = j; on = [ i; j ] }
  | 3 ->
    let stage =
      match Prng.int prng 3 with
      | 0 -> T.Routing
      | 1 -> T.Barrier
      | _ -> T.Rule
    in
    T.Reject
      { txn = i; protocol = (if j land 1 = 0 then Some T.C else None); stage;
        segment = -1; reason = Printf.sprintf "forged %d" j }
  | 4 -> T.Write { txn = i; segment = j mod 7; key = j; ts = rand_int prng }
  | 5 -> T.Commit { txn = i; at = j }
  | 6 -> T.Abort { txn = i; at = j }
  | 7 ->
    T.Wall_release
      { m = i; released_at = j;
        components = Array.init (1 + (j mod 4)) (fun k -> k * i) }
  | 8 -> T.Wall_blocked { on = i }
  | 9 ->
    T.Gc
      { watermark = i; vector = Array.init (1 + (j mod 4)) (fun k -> k + i);
        dropped = j }
  | 10 -> T.Seg_gc { segment = i mod 7; dropped = j }
  | 11 -> T.Registry_prune { upto = i; records_dropped = j; windows_dropped = i }
  | 12 -> T.Sim { label = "restart"; txn = i }
  | 13 -> T.Note (Printf.sprintf "note %d" i)
  | 14 -> T.Durable_ack { txn = i; at = j }
  | 15 -> T.Durable_recovered { txn = i; at = j }
  | 16 -> T.Recovery_complete { last_time = i }
  | 17 ->
    T.Checkpoint_cut
      { seq = i; components = Array.init (1 + (j mod 4)) (fun k -> k * j) }
  | _ ->
    T.Repartition
      { epoch = 1 + i;
        kind = (if j land 1 = 0 then "migrate" else "split");
        moved = [ i mod 7; j mod 7 ];
        fresh_store = j land 2 = 0 }

let rand_records prng =
  List.init (Prng.int prng 6) (fun k ->
      { T.seq = k; at = k + Prng.int prng 9; dom = Prng.int prng 4;
        ev = rand_event prng })

let rand_desc prng =
  let g () =
    Granule.make ~segment:(Prng.int prng 5) ~key:(Prng.int prng 8)
  in
  { E.d_id = 1 + Prng.int prng 1000;
    d_kind = (if Prng.bool prng then `Update (Prng.int prng 5) else `Read_only);
    d_ops =
      List.init (Prng.int prng 5) (fun _ ->
          if Prng.bool prng then E.Read (g ())
          else E.Write (g (), rand_int prng));
    d_abort = Prng.bool prng }

let rand_counters prng =
  { Sh.Wire.k_committed = Prng.int prng 100; k_aborted = Prng.int prng 100;
    k_reads_a = Prng.int prng 100; k_reads_b = Prng.int prng 100;
    k_reads_c = Prng.int prng 100; k_writes = Prng.int prng 100;
    k_stale_waits = Prng.int prng 100; k_wall_releases = Prng.int prng 100;
    k_wall_lag_sum = Prng.int prng 1000; k_wall_lag_max = Prng.int prng 100 }

let rand_msg prng =
  match Prng.int prng 13 with
  | 0 ->
    Sh.Wire.Pub
      { p_shard = Prng.int prng 8; p_seq = Prng.int prng 1000;
        p_upto = (if Prng.int prng 5 = 0 then max_int else Prng.int prng 1000);
        p_marks = Array.init (1 + Prng.int prng 5) (fun _ -> Prng.int prng 50);
        p_snap = rand_snap prng }
  | 1 ->
    Sh.Wire.Delta
      { dl_shard = Prng.int prng 8; dl_segment = Prng.int prng 5;
        dl_versions =
          List.init (Prng.int prng 5) (fun k ->
              (k, 1 + Prng.int prng 1000, rand_int prng)) }
  | 2 -> Sh.Wire.Wall (rand_wall prng)
  | 3 ->
    Sh.Wire.Read_req
      { req = Prng.int prng 1000; segment = Prng.int prng 5;
        key = Prng.int prng 8; threshold = rand_int prng }
  | 4 ->
    Sh.Wire.Read_reply
      { req = Prng.int prng 1000;
        slice =
          List.init (Prng.int prng 4) (fun k -> (k * 7, rand_int prng)) }
  | 5 -> Sh.Wire.Lock_req { req = Prng.int prng 1000; segment = Prng.int prng 5 }
  | 6 -> Sh.Wire.Lock_reply { req = Prng.int prng 1000; granted = Prng.bool prng }
  | 7 -> Sh.Wire.Unlock { segment = Prng.int prng 5 }
  | 8 -> Sh.Wire.Exec (rand_desc prng)
  | 9 -> Sh.Wire.Drain
  | 10 ->
    Sh.Wire.Outcome
      { shard = Prng.int prng 8;
        outcomes =
          List.init (Prng.int prng 5) (fun k -> (k + 1, Prng.bool prng));
        counters = rand_counters prng }
  | 11 ->
    Sh.Wire.Trace_slice { shard = Prng.int prng 8; records = rand_records prng }
  | _ -> Sh.Wire.Bye { shard = Prng.int prng 8 }

let rand_packet prng =
  { Sh.Wire.src = Prng.int prng 9; dst = Prng.int prng 9;
    stamp = Prng.int prng 100_000; msg = rand_msg prng }

let test_codec_roundtrip () =
  for seed = 1 to 1000 do
    let prng = Prng.create seed in
    let pkt = rand_packet prng in
    let buf = Sh.Wire.encode pkt in
    match Sh.Wire.decode buf ~pos:0 with
    | Ok (pkt', used) ->
      checki (Printf.sprintf "seed %d: full frame consumed" seed)
        (Bytes.length buf) used;
      checkb
        (Printf.sprintf "seed %d: decode (encode p) = p" seed)
        true
        (Sh.Wire.equal pkt pkt')
    | Error e -> Alcotest.failf "seed %d: round-trip failed: %s" seed e
  done

(* a chunky representative frame for the corruption properties *)
let corruption_victim () =
  let prng = Prng.create 424242 in
  let pkt =
    { Sh.Wire.src = 0; dst = 1; stamp = 99;
      msg =
        Sh.Wire.Pub
          { p_shard = 0; p_seq = 3; p_upto = 512;
            p_marks = [| 1; 2; 3 |]; p_snap = rand_snap prng } }
  in
  Sh.Wire.encode pkt

let test_codec_truncation () =
  let buf = corruption_victim () in
  let n = Bytes.length buf in
  for len = 0 to n - 1 do
    match Sh.Wire.decode (Bytes.sub buf 0 len) ~pos:0 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated frame at %d/%d bytes decoded" len n
  done

let test_codec_bitflip () =
  let buf = corruption_victim () in
  let n = Bytes.length buf in
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy buf in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
      match Sh.Wire.decode c ~pos:0 with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "bit %d of byte %d/%d flipped yet the frame decoded"
          bit i n
    done
  done

(* --- the cross-shard oracle --- *)

let ok_or_fail what (r : D.report) =
  if not (D.ok r) then
    Alcotest.failf "%s: oracle rejected the run:@.%a" what D.pp_report r

let test_goldens_pass_oracle () =
  List.iter
    (fun (gl : Sh.Shard_diff.golden) ->
      List.iter
        (fun shards ->
          ok_or_fail
            (Printf.sprintf "%s @ %d shards" gl.Sh.Shard_diff.g_name shards)
            (Sh.Shard_diff.golden_check ~shards gl))
        [ 1; 2; 3 ])
    Sh.Shard_diff.goldens

let shard_seeds () = Fixtures.seeds_from_env "HDD_SHARD_SEEDS"
let profile_of = Fixtures.stress_profile

let test_shard_stress () =
  let seeds = shard_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let shards = Fixtures.scaled_workers seed
    and profile = profile_of seed in
    let r = Sh.Shard_diff.stress_one ~seed ~shards ~txns:30 ~profile () in
    if not (D.ok r) then
      failures :=
        Format.asprintf "seed %d shards %d: %a" seed shards D.pp_report r
        :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "%d/%d sharded stress runs diverged:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" !failures)

let test_shard_stress_domains () =
  (* real parallelism over the mutexed loopback: a few seeds suffice,
     the deterministic sweep above carries the breadth *)
  for seed = 1 to 4 do
    let shards = 2 + (2 * (seed mod 2)) in
    let r =
      Sh.Shard_diff.stress_one ~mode:`Domains ~seed ~shards ~txns:25
        ~profile:(profile_of seed) ()
    in
    ok_or_fail (Printf.sprintf "domains seed %d shards %d" seed shards) r
  done

(* Process mode lives in its own executable (test_shard_proc): OCaml 5
   refuses Unix.fork in a process that has ever spawned domains, and
   the suites before this one have. *)

(* --- scripted publication faults --- *)

let stress_script seed =
  (* same derivation as Shard_diff.stress_one, reduced for fault runs *)
  let prng = Prng.create ((seed * 2) + 1) in
  let partition =
    if seed land 1 = 0 then D.chain_partition (4 + Prng.int prng 5)
    else D.tree_partition (3 + Prng.int prng 3)
  in
  let script =
    D.gen_script ~partition ~seed ~txns:25 ~ro_frac:0.3 ~abort_frac:0.1 ()
  in
  (partition, script)

let test_netfault_all_kinds () =
  (* every fault kind fires, and the oracle stays green: a perturbed
     publication stream may add waiting, never inconsistency *)
  let fired_kinds = ref [] in
  List.iter
    (fun seed ->
      let partition, script = stress_script seed in
      let fault =
        Sh.Netfault.plan
          [ Sh.Netfault.Drop 0; Sh.Netfault.Dup 2;
            Sh.Netfault.Delay { pub = 4; by = 2 }; Sh.Netfault.Reorder 6;
            Sh.Netfault.Drop 8; Sh.Netfault.Dup 10 ]
      in
      let r =
        Sh.Shard_diff.check_det ~fault ~partition ~init:D.default_init
          ~shards:2 ~seed ~script ()
      in
      ok_or_fail (Printf.sprintf "faulted seed %d" seed) r;
      fired_kinds :=
        List.map Sh.Netfault.kind (Sh.Netfault.fired fault) @ !fired_kinds)
    [ 1; 2; 3; 4 ];
  let kinds = List.sort_uniq compare !fired_kinds in
  List.iter
    (fun k ->
      checkb (Printf.sprintf "fault kind %s fired" k) true (List.mem k kinds))
    Sh.Netfault.kinds

let test_netfault_drop_storm () =
  (* publications are pure hints: losing the first thirty wholesale
     still converges and still certifies *)
  let partition, script = stress_script 6 in
  let fault =
    Sh.Netfault.plan (List.init 30 (fun n -> Sh.Netfault.Drop n))
  in
  let r =
    Sh.Shard_diff.check_det ~fault ~partition ~init:D.default_init ~shards:4
      ~seed:6 ~script ()
  in
  ok_or_fail "drop storm" r;
  checkb "drops actually fired" true (Sh.Netfault.fired fault <> [])

(* --- golden traces --- *)

let golden_file name = Filename.concat "golden" ("shard_" ^ name ^ ".trace")

let read_file = Fixtures.read_file

let golden_text gl =
  T.text_of_records (Sh.Shard_diff.golden_records gl)

let test_golden_traces () =
  match Fixtures.golden_update_dir () with
  | Some dir ->
    List.iter
      (fun (gl : Sh.Shard_diff.golden) ->
        let path =
          Filename.concat dir ("shard_" ^ gl.Sh.Shard_diff.g_name ^ ".trace")
        in
        let oc = open_out_bin path in
        output_string oc (golden_text gl);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      Sh.Shard_diff.goldens
  | _ ->
    List.iter
      (fun (gl : Sh.Shard_diff.golden) ->
        let name = gl.Sh.Shard_diff.g_name in
        let current = golden_text gl in
        checks
          (Printf.sprintf "shard %s: run-to-run stable" name)
          current (golden_text gl);
        let path = golden_file name in
        if not (Sys.file_exists path) then
          Alcotest.failf
            "%s missing — regenerate with HDD_GOLDEN_UPDATE=test/golden" path;
        checks
          (Printf.sprintf "shard %s: matches golden" name)
          (read_file path) current)
      Sh.Shard_diff.goldens

(* --- forged traces: the oracle names the failed check --- *)

let stats_zero =
  { E.committed = 0; aborted = 0; reads_a = 0; reads_b = 0; reads_c = 0;
    writes = 0; publications = 0; wall_releases = 0; wall_lag_sum = 0;
    wall_lag_max = 0; repartitions = 0; escalations = 0 }

let rcd seq at ev = { T.seq; at; dom = 1; ev }

(* the Figure 1 lost update, forged as a merged trace: both tellers read
   the bootstrap version and both commit — exactly the history HDD can
   never produce, so the MVSG check must fail and must say so *)
let test_forged_lost_update () =
  let b_read txn at version =
    rcd at at
      (T.Read
         { txn; protocol = T.B; segment = 0; key = 0; threshold = txn;
           version })
  in
  let records =
    [ rcd 1 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
      rcd 2 2 (T.Begin { txn = 2; kind = T.Update 0; init = 2 });
      b_read 1 3 0;
      b_read 2 4 0;
      (* MVTO stamps a write with its writer's initiation time *)
      rcd 5 5 (T.Write { txn = 1; segment = 0; key = 0; ts = 1 });
      rcd 6 6 (T.Write { txn = 2; segment = 0; key = 0; ts = 2 });
      rcd 7 7 (T.Commit { txn = 1; at = 7 });
      rcd 8 8 (T.Commit { txn = 2; at = 8 }) ]
  in
  let run =
    { E.records; outcomes = [ (1, true); (2, true) ];
      stats = { stats_zero with E.committed = 2; writes = 2; reads_b = 2 } }
  in
  let gl = Sh.Shard_diff.fig1 in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init
      ~script:
        [| gl.Sh.Shard_diff.g_script.(0); gl.Sh.Shard_diff.g_script.(1) |]
      run
  in
  checkb "forged lost update rejected" false (D.ok r);
  checkb "mvsg-certification named" true
    (List.mem "mvsg-certification" (D.failures r));
  checkb "read-from-equality named" true
    (List.mem "read-from-equality" (D.failures r));
  let rendered = Format.asprintf "%a" D.pp_report r in
  checkb "pp_report leads with the names" true
    (String.length rendered > 0
    && String.sub rendered 0 (String.length "FAILED checks:")
       = "FAILED checks:")

(* a clean forged history whose only lie is the verdict: txn 2 claims
   aborted while the serial oracle commits it *)
let test_forged_verdict_flip () =
  let records =
    [ rcd 1 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
      rcd 2 2
        (T.Read
           { txn = 1; protocol = T.B; segment = 0; key = 0; threshold = 1;
             version = 0 });
      rcd 3 3 (T.Write { txn = 1; segment = 0; key = 0; ts = 1 });
      rcd 4 4 (T.Commit { txn = 1; at = 4 });
      rcd 5 5 (T.Begin { txn = 2; kind = T.Update 0; init = 5 });
      rcd 6 6
        (T.Read
           { txn = 2; protocol = T.B; segment = 0; key = 0; threshold = 5;
             version = 1 });
      rcd 7 7 (T.Write { txn = 2; segment = 0; key = 0; ts = 5 });
      rcd 8 8 (T.Abort { txn = 2; at = 8 }) ]
  in
  let run =
    { E.records; outcomes = [ (1, true); (2, false) ];
      stats = { stats_zero with E.committed = 1; aborted = 1 } }
  in
  let gl = Sh.Shard_diff.fig1 in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init
      ~script:
        [| gl.Sh.Shard_diff.g_script.(0); gl.Sh.Shard_diff.g_script.(1) |]
      run
  in
  Alcotest.(check (list string))
    "exactly the verdict check fails" [ "serial-oracle-agreement" ]
    (D.failures r)

(* a legitimate run with a backwards wall spliced onto the tail: only
   the monitor replay can see it, and it must be the one to shout *)
let test_forged_backwards_wall () =
  let gl = Sh.Shard_diff.fig34 in
  let run =
    Sh.Cluster.run_script_det ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init ~shards:2 ~seed:7
      ~script:gl.Sh.Shard_diff.g_script ()
  in
  let big = 1_000_000 in
  let forged =
    run.E.records
    @ [ rcd 9000 big
          (T.Wall_release
             { m = big; released_at = big; components = [| big; big; big |] });
        rcd 9001 (big + 1)
          (T.Wall_release
             { m = big; released_at = big - 1;
               components = [| big - 1; big; big |] }) ]
  in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init ~script:gl.Sh.Shard_diff.g_script
      { run with E.records = forged }
  in
  Alcotest.(check (list string))
    "exactly the monitor check fails" [ "monitor-replay" ] (D.failures r)

(* --- malformed packets are refused before they index anything --- *)

let test_node_rejects_malformed () =
  let partition = D.chain_partition 4 in
  (* two shards: shard 0 owns D0 and D2, shard 1 owns D1 and D3 *)
  let nets = Sh.Transport.Loopback.create ~nodes:2 () in
  let node =
    Sh.Node.create ~partition ~init:D.default_init ~net:nets.(0) ()
  in
  let refused ~src msg =
    nets.(src).Sh.Transport.send { Sh.Wire.src; dst = 0; stamp = 0; msg };
    (* refused by the node's own check, not by a bounds failure *)
    match Sh.Node.pump node with
    | () -> false
    | exception Invalid_argument msg -> Fixtures.contains msg "malformed"
  in
  let delta ?(src = 1) segment key =
    refused ~src
      (Sh.Wire.Delta
         { dl_shard = src; dl_segment = segment;
           dl_versions = [ (key, 3, 7) ] })
  in
  let read_req segment key =
    refused ~src:1
      (Sh.Wire.Read_req { req = 1; segment; key; threshold = 5 })
  in
  let unlock segment = refused ~src:1 (Sh.Wire.Unlock { segment }) in
  List.iter
    (fun (what, got) -> checkb what true got)
    [ ("delta into a receiver-owned segment", delta 0 0);
      ("delta from the receiver itself", delta ~src:0 0 0);
      ("delta past the last segment", delta 4 0);
      ("delta with a negative segment", delta (-1) 0);
      ("delta with a negative key", delta 1 (-1));
      ("read request for a segment owned elsewhere", read_req 1 0);
      ("read request past the last segment", read_req 8 0);
      ("read request with a negative key", read_req 0 (-1));
      ("unlock of a segment owned elsewhere", unlock 1);
      ("unlock past the last segment", unlock 4);
      ( "lock request with a negative segment",
        refused ~src:1 (Sh.Wire.Lock_req { req = 2; segment = -2 }) ) ];
  (* well-formed traffic still goes through *)
  checkb "delta from the owner applied" false (delta 1 0);
  checkb "read request for an own segment served" false (read_req 2 0)

let suite =
  [ Alcotest.test_case "sclock: strided, unique, gossiped" `Quick test_sclock;
    Alcotest.test_case "codec: 1000-seed round-trip" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "codec: truncation at every byte errors" `Quick
      test_codec_truncation;
    Alcotest.test_case "codec: every single-bit flip errors" `Quick
      test_codec_bitflip;
    Alcotest.test_case "oracle: curated scenarios at 1/2/3 shards" `Quick
      test_goldens_pass_oracle;
    Alcotest.test_case "oracle: stress at 2/4/8 shards" `Slow
      test_shard_stress;
    Alcotest.test_case "oracle: domain-mode stress" `Slow
      test_shard_stress_domains;
    Alcotest.test_case "netfault: every kind fires, oracle green" `Quick
      test_netfault_all_kinds;
    Alcotest.test_case "netfault: 30-drop storm stays sound" `Quick
      test_netfault_drop_storm;
    Alcotest.test_case "golden shard traces byte-stable" `Quick
      test_golden_traces;
    Alcotest.test_case "forged lost update: mvsg check named" `Quick
      test_forged_lost_update;
    Alcotest.test_case "forged verdict flip: serial check named" `Quick
      test_forged_verdict_flip;
    Alcotest.test_case "forged backwards wall: monitor check named" `Quick
      test_forged_backwards_wall;
    Alcotest.test_case "node: malformed packets refused" `Quick
      test_node_rejects_malformed ]
