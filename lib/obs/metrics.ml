type counter = int ref
type gauge = float ref

type histogram = {
  bounds : float array;  (** ascending upper bounds; implicit +inf last *)
  buckets : int array;  (** length = Array.length bounds + 1 *)
  mutable count : int;
  mutable sum : float;
}

type metric = C of counter | G of gauge | H of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let clash name = invalid_arg (Printf.sprintf "Metrics: %s has another kind" name)

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some _ -> clash name
  | None ->
    let c = ref 0 in
    Hashtbl.add t.tbl name (C c);
    c

let incr c = Stdlib.incr c
let add c n = c := !c + n
let value c = !c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (G g) -> g
  | Some _ -> clash name
  | None ->
    let g = ref 0. in
    Hashtbl.add t.tbl name (G g);
    g

let set g v = g := v
let gauge_value g = !g

let default_buckets = Array.init 21 (fun i -> Float.of_int (1 lsl i))

(* Finer geometric grid (×1.25 per step from 0.5) for latency
   distributions: the power-of-two default is too coarse for a p999
   read off bucket upper bounds. *)
let latency_buckets = Array.init 64 (fun i -> 0.5 *. (1.25 ** Float.of_int i))

let histogram ?(buckets = default_buckets) t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> h
  | Some _ -> clash name
  | None ->
    let h =
      { bounds = Array.copy buckets;
        buckets = Array.make (Array.length buckets + 1) 0;
        count = 0;
        sum = 0. }
    in
    Hashtbl.add t.tbl name (H h);
    h

let observe h x =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || x <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. x

let merge ~into h =
  if into.bounds <> h.bounds then
    invalid_arg "Metrics.merge: bucket bounds differ";
  Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) h.buckets;
  into.count <- into.count + h.count;
  into.sum <- into.sum +. h.sum

let hist_count h = h.count
let hist_sum h = h.sum

let quantile h q =
  if h.count = 0 then 0.
  else begin
    let rank = Float.to_int (Float.of_int (h.count - 1) *. q) in
    let rec go i seen =
      if i >= Array.length h.buckets then infinity
      else
        let seen = seen + h.buckets.(i) in
        if seen > rank then
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        else go (i + 1) seen
    in
    go 0 0
  end

let p50 h = quantile h 0.50
let p99 h = quantile h 0.99
let p999 h = quantile h 0.999

type snap =
  | Counter of int
  | Gauge of float
  | Histogram of { count : int; sum : float; buckets : (float * int) list }

let snap_of = function
  | C c -> Counter !c
  | G g -> Gauge !g
  | H h ->
    let bounds = Array.to_list h.bounds @ [ infinity ] in
    Histogram
      { count = h.count;
        sum = h.sum;
        buckets = List.mapi (fun i b -> (b, h.buckets.(i))) bounds }

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, snap_of m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map snap_of (Hashtbl.find_opt t.tbl name)

(* --- the standard trace bridge --- *)

let attach t trace =
  let begins = counter t "txn.begins"
  and commits = counter t "txn.commits"
  and aborts = counter t "txn.aborts"
  and reads_a = counter t "reads.a"
  and reads_b = counter t "reads.b"
  and reads_c = counter t "reads.c"
  and writes = counter t "writes"
  and blocks = counter t "blocks"
  and rejects = counter t "rejects"
  and wall_releases = counter t "wall.releases"
  and wall_blocked = counter t "wall.blocked"
  and gc_collections = counter t "gc.collections"
  and gc_dropped = counter t "gc.versions_dropped"
  and gc_hist = histogram t "gc.dropped_per_collection"
  and pruned_records = counter t "registry.pruned_records"
  and pruned_windows = counter t "registry.pruned_windows"
  and durable_acks = counter t "durable.acks"
  and durable_recovered = counter t "durable.recovered"
  and recoveries = counter t "durable.recoveries"
  and checkpoint_cuts = counter t "checkpoint.cuts"
  and repartitions = counter t "adapt.repartitions"
  and escalations = counter t "hybrid.escalations" in
  Trace.subscribe trace (fun (r : Trace.record) ->
      match r.Trace.ev with
      | Trace.Begin _ -> incr begins
      | Trace.Commit _ -> incr commits
      | Trace.Abort _ -> incr aborts
      | Trace.Read { protocol; _ } ->
        incr
          (match protocol with
          | Trace.A -> reads_a
          | Trace.B -> reads_b
          | Trace.C -> reads_c)
      | Trace.Write _ -> incr writes
      | Trace.Block _ -> incr blocks
      | Trace.Reject _ -> incr rejects
      | Trace.Wall_release _ -> incr wall_releases
      | Trace.Wall_blocked _ -> incr wall_blocked
      | Trace.Gc { dropped; _ } ->
        incr gc_collections;
        add gc_dropped dropped;
        observe gc_hist (Float.of_int dropped)
      | Trace.Seg_gc _ -> ()
      | Trace.Registry_prune { records_dropped; windows_dropped; _ } ->
        add pruned_records records_dropped;
        add pruned_windows windows_dropped
      | Trace.Sim { label; _ } -> incr (counter t ("sim." ^ label))
      | Trace.Durable_ack _ -> incr durable_acks
      | Trace.Durable_recovered _ -> incr durable_recovered
      | Trace.Recovery_complete _ -> incr recoveries
      | Trace.Checkpoint_cut _ -> incr checkpoint_cuts
      | Trace.Repartition _ -> incr repartitions
      | Trace.Escalation _ -> incr escalations
      | Trace.Note _ -> ())
