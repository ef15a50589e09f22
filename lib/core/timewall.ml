type wall = {
  s : int;
  m : Time.t;
  components : Time.t array;
  released_at : Time.t;
}

let threshold wall ~class_id = wall.components.(class_id)

let to_vector wall = Array.copy wall.components

let make ~s ~m ~components ~released_at =
  { s; m; components = Array.copy components; released_at }

(* Choose one lowest class per connected component of the hierarchy. *)
let component_starts (partition : Partition.t) =
  let n = Partition.segment_count partition in
  let starts = Array.make n (-1) in
  let lowest = Partition.lowest_classes partition in
  for i = 0 to n - 1 do
    match
      List.find_opt
        (fun s -> Partition.ucp partition s i <> None)
        lowest
    with
    | Some s -> starts.(i) <- s
    | None ->
      (* isolated node: it is its own (trivially lowest) start *)
      starts.(i) <- i
  done;
  starts

let compute (ctx : Activity.ctx) ~starts ~m =
  Activity.wall_components ctx.Activity.partition ~starts
    ~i_old:Activity.live_i_old ~c_late:Activity.live_c_late
    ctx.Activity.registry m

type manager = {
  ctx : Activity.ctx;
  clock : Time.Clock.clock;
  starts : int array;
  primary_start : int;
  trace : Hdd_obs.Trace.t option;
  mutable walls : wall list;  (* newest first, never empty *)
  mutable count : int;
}

let try_release_inner mgr =
  let m = Time.Clock.tick mgr.clock in
  match compute mgr.ctx ~starts:mgr.starts ~m with
  | Error id as e ->
    (match mgr.trace with
    | None -> ()
    | Some tr ->
      Hdd_obs.Trace.emit tr ~at:m (Hdd_obs.Trace.Wall_blocked { on = id }));
    e
  | Ok components ->
    let wall =
      { s = mgr.primary_start; m; components;
        released_at = Time.Clock.tick mgr.clock }
    in
    mgr.walls <- wall :: mgr.walls;
    mgr.count <- mgr.count + 1;
    (match mgr.trace with
    | None -> ()
    | Some tr ->
      Hdd_obs.Trace.emit tr ~at:wall.released_at
        (Hdd_obs.Trace.Wall_release
           { m; released_at = wall.released_at;
             components = Array.copy components }));
    Ok wall

let create ?trace ctx ~clock =
  let primary_start =
    match Partition.lowest_classes ctx.Activity.partition with
    | s :: _ -> s
    | [] -> 0
  in
  let mgr =
    { ctx; clock; starts = component_starts ctx.Activity.partition;
      primary_start; trace; walls = []; count = 0 }
  in
  (match try_release_inner mgr with
  | Ok _ -> ()
  | Error _ ->
    (* cannot happen: create is called before any transaction begins, but
       guard against misuse by installing a zero wall *)
    let n = Partition.segment_count ctx.Activity.partition in
    let t = Time.Clock.tick clock in
    mgr.walls <-
      [ { s = primary_start; m = t; components = Array.make n t;
          released_at = Time.Clock.tick clock } ];
    mgr.count <- 1);
  mgr

let try_release = try_release_inner

let latest_before mgr t =
  let rec go = function
    | [] -> None
    | w :: rest -> if w.released_at < t then Some w else go rest
  in
  go mgr.walls

let current mgr =
  match mgr.walls with
  | w :: _ -> w
  | [] -> assert false

let released mgr = List.rev mgr.walls

let release_count mgr = mgr.count
