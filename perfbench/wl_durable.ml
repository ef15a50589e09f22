(* durable-writes: the same Scheduler behind Durable, used mostly for
   writes, with the default group commit.  The time goes to the WAL's
   encoding and appends and to the commit pipeline; group commit,
   checkpoints and replay show here and nowhere else.

   The WAL is a real file, but its sink's sync is a flush without fsync:
   on a shared host the rate of real fsyncs swings by half within a
   minute, which no bound on txn_per_s could absorb.  The pipeline still
   runs one sync round per batch, counted in
   group_commit.fsyncs_per_commit; with a real fsync each round costs
   that of the host's disk on top. *)

module S = Hdd_core.Scheduler
module D = Hdd_storage.Durable
module G = Hdd_storage.Group_commit

let segments = 8
let keys = 64
let pool_size = 8192
let checkpoint_every = 8192  (* update commits *)
let recover_reps = 3

let flush_policy =
  Printf.sprintf "fsync off (sync rounds flush only), group commit max_batch %d / max_delay %d ticks"
    G.default.G.max_batch G.default.G.max_delay

let setup ~seed ~dir () =
  let partition = Hdd_benchkit.Fixtures.chain_partition segments in
  let path = Filename.concat dir "db.wal" in
  let sink = Hdd_storage.Fault.file_sink ~fsync:false ~path () in
  let d = D.create ~sink ~group:G.default ~path ~partition () in
  let pool = Mixgen.pool ~seed ~size:pool_size ~segments ~keys ~b_pct:80 ~a_pct:10 in
  (d, path, pool)

type acks = {
  pending : (D.ticket * int * int) Queue.t;  (** ticket, began, commit returned *)
  ack_ns : Pstats.Hist.t;  (** begin to first observed ack *)
  wait_ns : Pstats.Hist.t;  (** commit return to first observed ack *)
  mutable due : int;  (** update commits since the last checkpoint *)
  ckpt_ns : Pstats.Hist.t;
}

let backend ?spans d acks =
  let sid name = match spans with Some sp -> Spans.id sp name | None -> 0 in
  let id_acked = sid "durable.acked" and id_ckpt = sid "durable.checkpoint" in
  let sopen name parent =
    match spans with None -> -1 | Some sp -> Spans.open_ sp ~name ~parent ~txn:0
  in
  let sclose i = match spans with None -> () | Some sp -> ignore (Spans.close sp i) in
  let poll parent =
    let rec go () =
      match Queue.peek_opt acks.pending with
      | None -> ()
      | Some (tk, t0, tc) ->
        let i = sopen id_acked parent in
        let ok = D.acked d tk in
        sclose i;
        if ok then begin
          let now = Clock.now_ns () in
          ignore (Queue.pop acks.pending);
          Pstats.Hist.add acks.ack_ns (now - t0);
          Pstats.Hist.add acks.wait_ns (now - tc);
          go ()
        end
    in
    go ()
  in
  { Closed.prefix = "durable";
    begin_update = (fun c -> D.begin_update d ~class_id:c);
    begin_ro = (fun () -> D.begin_read_only d);
    read = D.read d;
    write = D.write d;
    commit =
      (fun x ~t0 ->
        let tk = D.commit_ticket d x in
        if Txn.is_update x then begin
          Queue.push (tk, t0, Clock.now_ns ()) acks.pending;
          acks.due <- acks.due + 1
        end);
    abort = D.abort d;
    after_step =
      (fun ~parent ->
        poll parent;
        if acks.due >= checkpoint_every then begin
          acks.due <- 0;
          let i = sopen id_ckpt parent in
          let t0 = Clock.now_ns () in
          ignore (D.checkpoint d);
          Pstats.Hist.add acks.ckpt_ns (Clock.now_ns () - t0);
          sclose i
        end) }

let new_acks () =
  { pending = Queue.create (); ack_ns = Pstats.Hist.create (); wait_ns = Pstats.Hist.create ();
    due = 0; ckpt_ns = Pstats.Hist.create () }

type run_result = {
  res : Closed.result;
  acks : acks;
  unacked : int;  (** commit tickets still unacknowledged after close *)
  log_bytes : int;
  fsyncs : int;
  batches : int;
  sched_metrics : S.metrics;
}

let run_loop ?spans (d, _, pool) ~seconds =
  let acks = new_acks () in
  let sched = D.scheduler d in
  let res =
    Closed.run ?spans ~backend:(backend ?spans d acks) ~sched ~store:(D.store d) ~keys ~pool
      ~stop:(Seconds seconds) ()
  in
  let g = Option.get (D.group d) in
  let log_bytes = D.log_offset d in
  D.close d;
  (* close drained the pipeline: every ticket must be acked now *)
  let unacked =
    Queue.fold (fun n (tk, _, _) -> if D.acked d tk then n else n + 1) 0 acks.pending
  in
  { res; acks; unacked; log_bytes; fsyncs = G.fsyncs g; batches = G.batches g;
    sched_metrics = S.metrics sched }

let recover ~path =
  D.recover ~path ~segments ~init:(fun _ -> 0) ()

let fresh_dir tmp name =
  let dir = Filename.concat tmp name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let run ~seed ~seconds ~trace ~tmp ~out =
  let r = Report.create () in
  let n = ref 0 in
  let make () =
    incr n;
    setup ~seed ~dir:(fresh_dir tmp (Printf.sprintf "setup%d" !n)) ()
  in
  (* every repetition opens its own log; all but the measured one are
     closed outside the timed part *)
  let handles = ref [] in
  let make_kept () =
    let ((d, _, _) as w) = make () in
    handles := d :: !handles;
    w
  in
  let su = Common.new_setup () in
  let world = Common.setup_before su make_kept in
  let d, path, _ = world in
  List.iter (fun h -> if h != d then D.close h) !handles;
  handles := [];
  let before = Gc.quick_stat () in
  let rr = run_loop world ~seconds in
  let after = Gc.quick_stat () in
  let res = rr.res in
  let c = res.c in
  let peak_heap = Common.heap_mb () in
  let setup_s = Common.setup_after su make_kept in
  List.iter D.close !handles;
  Report.add r "setup_s" "s" setup_s;
  Closed.add_end_to_end r res;
  Report.add r "peak_heap_mb" "MB" peak_heap;
  Closed.add_latency r "ack" rr.acks.ack_ns;
  Closed.add_tail_diagnostic r res;
  (* recovery of the closed log, timed; the median of a few replays *)
  let times = Array.make recover_reps 0. in
  let rc = ref None in
  for i = 0 to recover_reps - 1 do
    let t0 = Clock.now_ns () in
    rc := Some (recover ~path);
    times.(i) <- float_of_int (Clock.now_ns () - t0) /. 1e6
  done;
  let rc = Option.get !rc in
  Report.add r "recover_ms" "ms" (Pstats.median times);
  let m = rr.sched_metrics in
  Closed.add_scheduler_counts r m;
  Closed.add_state r res;
  Common.add_gc r ~before ~after ~commits:c.commits ~seconds:res.elapsed_s;
  Report.add r "cc.reads_a_per_s" "1/s" (float_of_int m.S.reads_a /. res.elapsed_s);
  let upd = float_of_int (Int.max 1 c.upd_commits) in
  Report.add r "group_commit.fsyncs_per_commit" "count" (float_of_int rr.fsyncs /. upd);
  Report.add r "group_commit.commits_per_batch" "count" (upd /. float_of_int (Int.max 1 rr.batches));
  Report.add r "durable.ack_wait_p50_us" "us" (Pstats.Hist.quantile rr.acks.wait_ns 0.5 /. 1e3);
  Report.add r "wal.bytes_per_commit" "B" (float_of_int rr.log_bytes /. upd);
  let ck = rr.acks.ckpt_ns in
  Report.add r "checkpoint.count" "count" (float_of_int (Pstats.Hist.count ck));
  Report.add r "checkpoint.ms" "ms"
    (if Pstats.Hist.count ck = 0 then 0. else Pstats.Hist.quantile ck 0.5 /. 1e6);
  let replayed =
    rc.D.valid_bytes
    - (match rc.D.from_checkpoint with Some m -> m.Hdd_storage.Checkpoint.log_offset | None -> 0)
  in
  Report.add r "recover.replayed_bytes" "B" (float_of_int replayed);
  let mismatched = Closed.stale_granules rc.D.store ~keys res in
  let all_recovered = rc.D.committed = c.upd_commits in
  let traced_ok =
    if not trace then true
    else begin
      let names = Closed.span_names "durable" @ [ "durable.acked"; "durable.checkpoint"; "durable.recover" ] in
      let sp = Spans.create ~names ~capacity:65536 in
      let tw = setup ~seed ~dir:(fresh_dir tmp "traced") () in
      let _, tpath, _ = tw in
      let tr = run_loop ~spans:sp tw ~seconds in
      let i = Spans.open_ sp ~name:(Spans.id sp "durable.recover") ~parent:(-1) ~txn:0 in
      let trc = recover ~path:tpath in
      ignore (Spans.close sp i);
      Closed.add_spans r sp ~prefix:"durable" ~wall_s:tr.res.elapsed_s ~res:tr.res
        ~outside:[ "durable.recover" ];
      Common.add_overhead r
        ~untraced:(float_of_int c.commits /. res.elapsed_s)
        ~traced:(float_of_int tr.res.c.commits /. tr.res.elapsed_s);
      Spans.write_chrome sp (Filename.concat out "durable-writes.trace.json");
      tr.res.c.violations = 0 && tr.unacked = 0
      && trc.D.committed = tr.res.c.upd_commits
      && Closed.stale_granules trc.D.store ~keys tr.res = 0
    end
  in
  let checks =
    [ ("protocol_a_c_never_wait_or_reject", c.violations = 0);
      ("every_commit_acked_after_close", rr.unacked = 0);
      ("recover_returns_every_committed_txn", all_recovered);
      ("recovered_latest_equals_last_committed_write", mismatched = 0);
      ("traced_run_checks", traced_ok) ]
  in
  let failed =
    c.violations + rr.unacked + mismatched
    + abs (rc.D.committed - c.upd_commits)
    + if traced_ok then 0 else 1
  in
  ({ Common.report = r; checks; attempted = c.begins; failed = Int.min failed c.begins }, flush_policy)
