type cache_entry = {
  mutable arg : Time.t;
  mutable stamp : int;
  mutable value : Time.t;
}

type pair_cache = (int * int, cache_entry) Hashtbl.t

type ctx = {
  partition : Partition.t;
  registry : Registry.t;
  cache : pair_cache;
}

let make_ctx partition registry =
  { partition; registry; cache = Hashtbl.create 32 }

(* --- the composition kernel ---
   The only code that walks a path applying activity steps.  A step
   function takes the caller's activity source first: the live
   registry here, a published snapshot or a worker context in the
   engines.  Top-level recursion and no closures, so a caller that
   passes top-level steps allocates nothing. *)

let live_i_old reg cls m = Registry.i_old reg ~class_id:cls ~at:m
let live_c_late reg cls m = Registry.c_late reg ~class_id:cls ~at:m

let rec compose i_old src m = function
  | [] -> m
  | cls :: rest -> compose i_old src (i_old src cls m) rest

let critical_path_exn partition ~from_class ~to_class =
  match Partition.critical_path partition from_class to_class with
  | Some path -> path
  | None ->
    invalid_arg
      (Printf.sprintf "Activity: no critical path from T%d to T%d" from_class
         to_class)

(* A_i^j(m) composes I_old over the successive classes of CP_i^j,
   excluding the starting class itself. *)
let threshold partition ~i_old src ~from_class ~to_class m =
  match critical_path_exn partition ~from_class ~to_class with
  | [] -> assert false
  | _ :: rest -> compose i_old src m rest

(* Up-steps (u -> v critical arc, v higher) apply I_old at the target
   class, composing like A.  Down-steps (v -> u critical arc, v lower)
   apply C_late at the *source* class u — the B composition excludes
   the bottom class of each descent, so the application happens where
   the step starts, not where it lands. *)
let rec walk reduction ~i_old ~c_late src m = function
  | [] | [ _ ] -> Ok m
  | u :: (v :: _ as rest) ->
    if Hdd_graph.Digraph.mem_arc reduction u v then
      walk reduction ~i_old ~c_late src (i_old src v m) rest
    else begin
      assert (Hdd_graph.Digraph.mem_arc reduction v u);
      match c_late src u m with
      | Error _ as e -> e
      | Ok m' -> walk reduction ~i_old ~c_late src m' rest
    end

let extended partition ~i_old ~c_late src ~s ~i m =
  match Partition.ucp partition s i with
  | Some path -> walk partition.Partition.reduction ~i_old ~c_late src m path
  | None ->
    invalid_arg
      (Printf.sprintf "Activity.e_fn: T%d and T%d are not connected" s i)

let wall_components partition ~starts ~i_old ~c_late src m =
  let n = Partition.segment_count partition in
  let components = Array.make n Time.zero in
  let rec fill i =
    if i >= n then Ok components
    else
      match extended partition ~i_old ~c_late src ~s:starts.(i) ~i m with
      | Ok v ->
        components.(i) <- v;
        fill (i + 1)
      | Error _ as e -> e
  in
  fill 0

(* --- over a live registry --- *)

let a_fn_trace ctx ~from_class ~to_class m =
  let steps = ref [ (from_class, m) ] in
  let i_old reg cls m =
    let m' = live_i_old reg cls m in
    steps := (cls, m') :: !steps;
    m'
  in
  ignore (threshold ctx.partition ~i_old ctx.registry ~from_class ~to_class m);
  List.rev !steps

let a_fn ctx ~from_class ~to_class m =
  match critical_path_exn ctx.partition ~from_class ~to_class with
  | [] -> assert false
  | [ _ ] -> m  (* from = to: the identity (§5.0 hosting) *)
  | _ :: rest ->
    (* Per-(class-pair) composition cache.  The composed value depends
       only on the argument and on the activity of the classes I_old is
       applied at, so a cached value is valid while every such class's
       registry generation is unchanged.  Generations are monotone, which
       lets one summed stamp stand in for the whole vector: the sum is
       equal iff every component is. *)
    let stamp =
      List.fold_left
        (fun s cls -> s + Registry.generation ctx.registry ~class_id:cls)
        0 rest
    in
    let key = (from_class, to_class) in
    (match Hashtbl.find_opt ctx.cache key with
    | Some e when e.arg = m && e.stamp = stamp -> e.value
    | found ->
      let value = compose live_i_old ctx.registry m rest in
      (match found with
      | Some e ->
        e.arg <- m;
        e.stamp <- stamp;
        e.value <- value
      | None -> Hashtbl.add ctx.cache key { arg = m; stamp; value });
      value)

let b_fn ctx ~from_class ~to_class m =
  let path = critical_path_exn ctx.partition ~from_class ~to_class in
  (* path = [from; ...; to]; B walks it top-down, applying C_late at every
     class except the bottom one ([from]), the mirror image of A applying
     I_old at every class except the bottom: only then do Properties 2.1
     (A∘B >= id) and 2.2 (A∘(B - eps) < id) hold.  Top-down every step is
     a down-arc, so this is the E walk's C_late rule. *)
  walk ctx.partition.Partition.reduction ~i_old:live_i_old
    ~c_late:live_c_late ctx.registry m (List.rev path)

let e_fn ctx ~s ~i m =
  extended ctx.partition ~i_old:live_i_old ~c_late:live_c_late ctx.registry
    ~s ~i m
