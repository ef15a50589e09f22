module T = Hdd_obs.Trace
module E = Hdd_runtime.Engine

type script = E.desc array

let assign ~shards (d : E.desc) =
  match d.E.d_kind with
  | `Update c -> c mod shards
  | `Read_only -> d.E.d_id mod shards

let merge_records rls =
  List.sort
    (fun (a : T.record) b ->
      match compare a.T.at b.T.at with
      | 0 -> (
        match compare a.T.dom b.T.dom with
        | 0 -> compare a.T.seq b.T.seq
        | c -> c)
      | c -> c)
    (List.concat rls)

let stats_of_counters ks =
  List.fold_left
    (fun (s : E.stats) (k : Wire.counters) ->
      { E.committed = s.E.committed + k.Wire.k_committed;
        aborted = s.E.aborted + k.Wire.k_aborted;
        reads_a = s.E.reads_a + k.Wire.k_reads_a;
        reads_b = s.E.reads_b + k.Wire.k_reads_b;
        reads_c = s.E.reads_c + k.Wire.k_reads_c;
        writes = s.E.writes + k.Wire.k_writes;
        publications = s.E.publications + k.Wire.k_publications;
        wall_releases = s.E.wall_releases + k.Wire.k_wall_releases;
        wall_lag_sum = s.E.wall_lag_sum + k.Wire.k_wall_lag_sum;
        wall_lag_max = Int.max s.E.wall_lag_max k.Wire.k_wall_lag_max;
        repartitions = s.E.repartitions;
        escalations = s.E.escalations;
        (* nor do node store sizes *)
        live_versions = s.E.live_versions })
    { E.committed = 0; aborted = 0; reads_a = 0; reads_b = 0; reads_c = 0;
      writes = 0; publications = 0; wall_releases = 0; wall_lag_sum = 0;
      wall_lag_max = 0; repartitions = 0; escalations = 0; live_versions = 0 }
    ks

let collect nodes =
  let outcomes =
    Array.to_list nodes
    |> List.concat_map Node.outcomes
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let records = merge_records (Array.to_list nodes |> List.map Node.records) in
  { E.records;
    outcomes;
    stats =
      stats_of_counters (Array.to_list nodes |> List.map Node.counters) }

(* --- deterministic single-thread mode --- *)

let run_script_det ?fault ?(config = Node.default_config) ~partition ~init
    ~shards ~seed ~script () =
  let nets = Transport.Loopback.create ?fault ~nodes:shards () in
  let nodes =
    Array.init shards (fun i ->
        Node.create ~config ~partition ~init ~net:nets.(i) ())
  in
  Array.iteri
    (fun i n ->
      Node.set_on_wait n (fun () ->
          Array.iteri
            (fun j m ->
              if j <> i then begin
                Node.pump m;
                Node.publish m
              end)
            nodes))
    nodes;
  let queues = Array.init shards (fun _ -> Queue.create ()) in
  Array.iter (fun d -> Queue.add d queues.(assign ~shards d)) script;
  let prng = Hdd_util.Prng.create seed in
  let rec loop () =
    let live =
      Array.to_list queues
      |> List.mapi (fun i q -> (i, q))
      |> List.filter (fun (_, q) -> not (Queue.is_empty q))
    in
    match live with
    | [] -> ()
    | _ ->
      let i, q = List.nth live (Hdd_util.Prng.int prng (List.length live)) in
      Node.exec nodes.(i) (Queue.take q);
      Array.iter Node.pump nodes;
      loop ()
  in
  loop ();
  Array.iter Node.publish_final nodes;
  (* settle: deliver finals and let the coordinator release trailing
     walls; a fixed round count keeps the trace deterministic *)
  for _ = 1 to 3 do
    Array.iter Node.pump nodes
  done;
  collect nodes

(* --- one domain per shard --- *)

let run_script_domains ?(config = Node.default_config) ~partition ~init
    ~shards ~script () =
  let nets = Transport.Loopback.create ~nodes:shards () in
  let work = Array.init shards (fun _ -> Queue.create ()) in
  Array.iter (fun d -> Queue.add d work.(assign ~shards d)) script;
  let done_count = Atomic.make 0 in
  let stop = Atomic.make false in
  let run i =
    let node = Node.create ~config ~partition ~init ~net:nets.(i) () in
    Node.set_on_wait node (fun () -> Unix.sleepf 2e-6);
    let q = work.(i) in
    let rec go () =
      Node.pump node;
      match Queue.take_opt q with
      | Some d ->
        Node.exec node d;
        go ()
      | None -> ()
    in
    go ();
    Node.publish_final node;
    Atomic.incr done_count;
    (* keep serving publications and 2PC traffic until everyone is done *)
    while not (Atomic.get stop) do
      Node.pump node;
      Node.publish_final node;
      Unix.sleepf 10e-6
    done;
    Node.pump node;
    node
  in
  let doms = Array.init shards (fun i -> Domain.spawn (fun () -> run i)) in
  while Atomic.get done_count < shards do
    Unix.sleepf 50e-6
  done;
  Atomic.set stop true;
  let nodes = Array.map Domain.join doms in
  collect nodes

(* --- one process per shard --- *)

(* How long an idle or waiting shard blocks when nothing arrives.  Every
   change a node can wait for comes with a frame, so this only bounds
   how often a quiet node rechecks. *)
let wait_s = 1e-3

let child_main ~config ~partition ~init ~ep i =
  let net = Transport.Pipe.net ep in
  let wait () = Transport.Pipe.wait ep wait_s in
  let node = Node.create ~config ~partition ~init ~net () in
  Node.set_on_wait node wait;
  let rec go () =
    Node.pump node;
    match Node.take_work node with
    | Some d ->
      Node.exec node d;
      go ()
    | None ->
      if not (Node.drained node) then begin
        Node.publish_news node;
        wait ();
        go ()
      end
  in
  go ();
  Node.publish_final node;
  let parent = Transport.Pipe.parent_addr ~nodes:net.Transport.nodes in
  let home msg =
    net.Transport.send
      { Wire.src = i; dst = parent; stamp = Node.now node; msg }
  in
  home (Wire.Bye { shard = i });
  (* Serve until the router says goodbye; the coordinator keeps
     releasing walls for still-working siblings through here, so
     outcomes, counters and the trace ship only after the Bye — a wall
     released now must reach the merged trace. *)
  while not (Node.bye_seen node) do
    wait ();
    Node.pump node
  done;
  home
    (Wire.Outcome
       { shard = i; outcomes = Node.outcomes node;
         counters = Node.counters node });
  home (Wire.Trace_slice { shard = i; records = Node.records node })

(* The router's own failure: a shard's pipe closed before it shipped its
   trace. *)
exception Died of int

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit status %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let run_script_processes ?(config = Node.default_config) ~partition ~init
    ~shards ~script () =
  let parent = Transport.Pipe.parent_addr ~nodes:shards in
  let addrs = List.init (shards + 1) Fun.id in
  (* the mesh: pipes.(src).(dst) for every ordered pair of distinct
     addresses, the router included *)
  let pipes =
    Array.init (shards + 1) (fun src ->
        Array.init (shards + 1) (fun dst ->
            if src = dst then None else Some (Unix.pipe ())))
  in
  let ends me =
    ( List.filter_map
        (fun src -> Option.map (fun (r, _) -> (src, r)) pipes.(src).(me))
        addrs,
      List.filter_map
        (fun dst -> Option.map (fun (_, w) -> (dst, w)) pipes.(me).(dst))
        addrs )
  in
  (* keep the read ends of our column and the write ends of our row *)
  let close_others me =
    Array.iteri
      (fun src row ->
        Array.iteri
          (fun dst p ->
            match p with
            | None -> ()
            | Some (r, w) ->
              if dst <> me then Unix.close r;
              if src <> me then Unix.close w)
          row)
      pipes
  in
  (* a write to an exited reader must surface as EPIPE, in the router
     and (inherited across fork) in every shard *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  flush_all ();
  let pids =
    Array.init shards (fun i ->
        match Unix.fork () with
        | 0 ->
          close_others i;
          let inbound, outbound = ends i in
          let on_close src = if src = parent then failwith "router exited" in
          let code =
            match
              child_main ~config ~partition ~init i
                ~ep:
                  (Transport.Pipe.endpoint ~me:i ~nodes:shards ~inbound
                     ~outbound ~on_close)
            with
            | () -> 0
            | exception e ->
              prerr_endline
                (Printf.sprintf "shard %d died: %s" i (Printexc.to_string e));
              2
          in
          Unix._exit code
        | pid -> pid)
  in
  close_others parent;
  let outcomes = ref [] and slices = ref [] and counters = ref [] in
  let byes = ref 0 in
  let shipped = Array.make shards false in
  let inbound, outbound = ends parent in
  let ep =
    Transport.Pipe.endpoint ~me:parent ~nodes:shards ~inbound ~outbound
      ~on_close:(fun i -> if not shipped.(i) then raise (Died i))
  in
  let net = Transport.Pipe.net ep in
  let send i msg =
    net.Transport.send { Wire.src = parent; dst = i; stamp = 0; msg }
  in
  let rec drain () =
    match net.Transport.poll () with
    | None -> ()
    | Some pkt ->
      (match pkt.Wire.msg with
      | Wire.Outcome { outcomes = o; counters = k; _ } ->
        outcomes := o :: !outcomes;
        counters := k :: !counters
      | Wire.Trace_slice { records; _ } ->
        slices := records :: !slices;
        shipped.(pkt.Wire.src) <- true
      | Wire.Bye _ -> incr byes
      | _ -> ());
      drain ()
  in
  let wait_for cond =
    drain ();
    while not (cond ()) do
      Transport.Pipe.wait ep 1.0;
      drain ()
    done
  in
  let reap pid = snd (Unix.waitpid [] pid) in
  match
    Array.iter (fun d -> send (assign ~shards d) (Wire.Exec d)) script;
    Array.iteri (fun i _ -> send i Wire.Drain) pids;
    wait_for (fun () -> !byes >= shards);
    (* goodbyes; only now do the children ship outcomes and traces, so a
       wall the coordinator released while serving stragglers is on
       record before the trace leaves *)
    Array.iteri (fun i _ -> send i (Wire.Bye { shard = -1 })) pids;
    wait_for (fun () -> Array.for_all Fun.id shipped)
  with
  | () ->
    Transport.Pipe.close ep;
    Array.iter (fun pid -> ignore (reap pid)) pids;
    ignore (Sys.signal Sys.sigpipe sigpipe);
    { E.records = merge_records !slices;
      outcomes =
        List.concat !outcomes |> List.sort (fun (a, _) (b, _) -> compare a b);
      stats = stats_of_counters !counters }
  | exception e ->
    (* no shard outlives a failed run: kill the rest, reap them all *)
    let dead = match e with Died i -> i | _ -> -1 in
    Array.iteri
      (fun i pid ->
        if i <> dead then
          try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      pids;
    Transport.Pipe.close ep;
    let statuses = Array.map reap pids in
    ignore (Sys.signal Sys.sigpipe sigpipe);
    match e with
    | Died i ->
      failwith
        (Printf.sprintf
           "Cluster: shard %d died before shipping its outcome (%s)" i
           (describe statuses.(i)))
    | e -> raise e
