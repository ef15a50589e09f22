(* E9 — Figure 9 / §5.1: the extended activity link function as a time
   wall.

   On a branching hierarchy (where no single critical path covers a
   read-only transaction's read set) the wall components E_s^i(m) are
   computed on a scripted history, and Lemma 2.1's separation — no
   topologically-follows pair crosses the wall — is verified over random
   histories. *)

module Activity = Hdd_core.Activity
module Timewall = Hdd_core.Timewall
module Follows = Hdd_core.Follows
module Partition = Hdd_core.Partition
module Spec = Hdd_core.Spec
module Table = Hdd_util.Table
module Prng = Hdd_util.Prng

(* branches 0 and 1 below the base segment 2 *)
let partition =
  Partition.build_exn
    (Spec.make ~segments:[ "left"; "right"; "base" ]
       ~types:
         [ Spec.txn_type ~name:"feed" ~writes:[ 2 ] ~reads:[];
           Spec.txn_type ~name:"left" ~writes:[ 0 ] ~reads:[ 0; 2 ];
           Spec.txn_type ~name:"right" ~writes:[ 1 ] ~reads:[ 1; 2 ] ])

let starts = Timewall.component_starts partition

let random_history ~seed ~steps =
  let rng = Prng.create seed in
  let registry = Registry.create ~classes:3 () in
  let clock = Time.Clock.create () in
  let active = ref [] in
  let all = ref [] in
  let next = ref 1 in
  for _ = 1 to steps do
    if !active = [] || Prng.bool rng then begin
      let cls = Prng.int rng 3 in
      let t =
        Txn.make ~id:!next ~kind:(Txn.Update cls)
          ~init:(Time.Clock.tick clock)
      in
      incr next;
      Registry.register registry t;
      active := t :: !active;
      all := t :: !all
    end
    else begin
      let victim = Prng.pick rng (Array.of_list !active) in
      active := List.filter (fun t -> t != victim) !active;
      Txn.commit victim ~at:(Time.Clock.tick clock)
    end
  done;
  List.iter
    (fun t -> Txn.commit t ~at:(Time.Clock.tick clock))
    (List.rev !active);
  (registry, List.rev !all, Time.Clock.now clock)

let run () =
  (* scripted wall *)
  let registry = Registry.create ~classes:3 () in
  let ctx = Activity.make_ctx partition registry in
  let mk id cls i = Txn.make ~id ~kind:(Txn.Update cls) ~init:i in
  let base = mk 1 2 3 and left = mk 2 0 5 and right = mk 3 1 7 in
  List.iter (Registry.register registry) [ base; left; right ];
  Txn.commit base ~at:10;
  Txn.commit left ~at:12;
  Txn.commit right ~at:14;
  let table =
    Table.create ~title:"E9 (Figure 9): wall components E_s^i(m)"
      ~columns:[ "m"; "E(left)"; "E(right)"; "E(base)" ]
  in
  List.iter
    (fun m ->
      match Timewall.compute ctx ~starts ~m with
      | Ok w ->
        Table.add_row table
          [ string_of_int m; string_of_int w.(0); string_of_int w.(1);
            string_of_int w.(2) ]
      | Error id ->
        Table.add_row table
          [ string_of_int m; Printf.sprintf "blocked by t%d" id; "-"; "-" ])
    [ 2; 6; 9; 15 ];
  (* Lemma 2.1 separation over random histories *)
  let walls = ref 0 and crossings = ref 0 and pairs = ref 0 in
  for seed = 0 to 39 do
    let registry, all, horizon = random_history ~seed ~steps:60 in
    let ctx = Activity.make_ctx partition registry in
    List.iter
      (fun m ->
        match Timewall.compute ctx ~starts ~m with
        | Error _ -> ()
        | Ok wall ->
          incr walls;
          List.iter
            (fun (t1 : Txn.t) ->
              List.iter
                (fun (t2 : Txn.t) ->
                  match (Txn.class_of t1, Txn.class_of t2) with
                  | Some c1, Some c2 ->
                    if t1.Txn.init < wall.(c1) && t2.Txn.init >= wall.(c2)
                    then begin
                      incr pairs;
                      if Follows.follows ctx t1 t2 = Some true then
                        incr crossings
                    end
                  | _ -> ())
                all)
            all)
      [ 1; horizon / 3; 2 * horizon / 3; horizon ]
  done;
  let separation =
    Table.create ~title:"Lemma 2.1 separation over random histories"
      ~columns:[ "walls computed"; "old/new pairs"; "crossings" ]
  in
  Table.add_row separation
    [ string_of_int !walls; string_of_int !pairs; string_of_int !crossings ];
  { Exp_types.id = "E9";
    title = "Time walls separate old from new";
    source = "Figure 9, §5.1, Lemma 2.1";
    tables = [ table; separation ];
    checks =
      [ ("no topologically-follows pair ever crosses a wall",
         !crossings = 0);
        ("the sweep sampled real walls and pairs", !walls > 50 && !pairs > 1000) ];
    notes =
      [ "Scripted history: base [3,10], left [5,12], right [7,14]; the \
         wall anchored inside those windows pins every component below \
         the oldest relevant activity." ] }
