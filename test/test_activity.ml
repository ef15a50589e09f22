(* Tests for the activity-link machinery: A, B, E (§4.1, §5.1), the
   paper's Properties 2.1 and 2.2 as randomized properties, time walls
   and the Lemma 2.1 separation, and the topologically-follows relation
   (Properties 1.1 and 1.2). *)

module Activity = Hdd_core.Activity
module Partition = Hdd_core.Partition
module Timewall = Hdd_core.Timewall
module Follows = Hdd_core.Follows

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let chain3 = History_gen.chain_partition 3

let mk_ctx partition =
  let registry =
    Registry.create ~classes:(Partition.segment_count partition) ()
  in
  (Activity.make_ctx partition registry, registry)

(* --- A function on hand-built histories --- *)

let test_a_fn_idle () =
  let ctx, _ = mk_ctx chain3 in
  (* no activity anywhere: A is the identity *)
  checki "identity through an idle chain" 42
    (Activity.a_fn ctx ~from_class:0 ~to_class:2 42)

let test_a_fn_direct () =
  let ctx, reg = mk_ctx chain3 in
  let t = Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:10 in
  Registry.register reg t;
  (* class 2 has an active transaction from 10: the threshold for a
     class-1 reader initiated at 15 is 10 *)
  checki "oldest active caps the threshold" 10
    (Activity.a_fn ctx ~from_class:1 ~to_class:2 15);
  Txn.commit t ~at:12;
  checki "after commit the threshold is the query time" 15
    (Activity.a_fn ctx ~from_class:1 ~to_class:2 15)

let test_a_fn_composes () =
  let ctx, reg = mk_ctx chain3 in
  (* class 1 active from 5, class 2 active from 3 *)
  Registry.register reg (Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:3);
  Registry.register reg (Txn.make ~id:2 ~kind:(Txn.Update 1) ~init:5);
  (* A_0^2(9) = I_2(I_1(9)) = I_2(5) = 3 *)
  checki "two-hop composition" 3 (Activity.a_fn ctx ~from_class:0 ~to_class:2 9);
  checki "one-hop to class 1" 5 (Activity.a_fn ctx ~from_class:0 ~to_class:1 9)

let test_a_fn_same_class_identity () =
  let ctx, _ = mk_ctx chain3 in
  checki "A_i^i is the identity" 7 (Activity.a_fn ctx ~from_class:1 ~to_class:1 7)

let test_a_fn_trace () =
  let ctx, reg = mk_ctx chain3 in
  Registry.register reg (Txn.make ~id:1 ~kind:(Txn.Update 1) ~init:5);
  let trace = Activity.a_fn_trace ctx ~from_class:0 ~to_class:2 9 in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "trace shows each hop" [ (0, 9); (1, 5); (2, 5) ] trace

let test_a_fn_no_path () =
  let ctx, _ = mk_ctx chain3 in
  Alcotest.check_raises "downward A undefined"
    (Invalid_argument "Activity: no critical path from T2 to T0") (fun () ->
      ignore (Activity.a_fn ctx ~from_class:2 ~to_class:0 5))

(* --- B function --- *)

let test_b_fn_blocked () =
  let ctx, reg = mk_ctx chain3 in
  Registry.register reg (Txn.make ~id:7 ~kind:(Txn.Update 2) ~init:3);
  match Activity.b_fn ctx ~from_class:0 ~to_class:2 5 with
  | Error id -> checki "blocked by the straggler" 7 id
  | Ok _ -> Alcotest.fail "B computable with an active transaction"

let test_b_fn_applies_above_bottom () =
  let ctx, reg = mk_ctx chain3 in
  let t2 = Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:3 in
  let t1 = Txn.make ~id:2 ~kind:(Txn.Update 1) ~init:4 in
  let t0 = Txn.make ~id:3 ~kind:(Txn.Update 0) ~init:5 in
  Registry.register reg t2;
  Registry.register reg t1;
  Registry.register reg t0;
  Txn.commit t2 ~at:10;
  Txn.commit t1 ~at:20;
  (* t0 stays active: B from class 0 up to 2 never consults class 0, so it
     must still be computable *)
  (match Activity.b_fn ctx ~from_class:0 ~to_class:2 5 with
  | Ok v ->
    (* C_2(5) = 10 (t2 spans 5), then C_1(10) = 20 (t1 spans 10) *)
    checki "C_late composed above the bottom class" 20 v
  | Error _ -> Alcotest.fail "B must ignore the bottom class");
  Txn.commit t0 ~at:30

(* --- Properties 2.1 and 2.2 on random quiescent histories --- *)

let seeds = QCheck2.Gen.int_range 0 100000

let prop_a_b_inverse =
  QCheck2.Test.make ~name:"Property 2.1: A(B(m)) >= m" ~count:60 seeds
    (fun seed ->
      let h = History_gen.random ~seed ~steps:60 ~classes:3 () in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let horizon = Time.Clock.now h.History_gen.clock in
      let ok = ref true in
      for m = 1 to horizon do
        match Activity.b_fn ctx ~from_class:0 ~to_class:2 m with
        | Error _ -> ok := false (* quiescent: must be computable *)
        | Ok b ->
          if Activity.a_fn ctx ~from_class:0 ~to_class:2 b < m then ok := false
      done;
      !ok)

let prop_a_b_epsilon =
  QCheck2.Test.make ~name:"Property 2.2: A(B(m) - 1) < m" ~count:60 seeds
    (fun seed ->
      let h = History_gen.random ~seed ~steps:60 ~classes:3 () in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let horizon = Time.Clock.now h.History_gen.clock in
      let ok = ref true in
      for m = 1 to horizon do
        match Activity.b_fn ctx ~from_class:0 ~to_class:2 m with
        | Error _ -> ok := false
        | Ok b ->
          if Activity.a_fn ctx ~from_class:0 ~to_class:2 (b - 1) >= m then
            ok := false
      done;
      !ok)

let prop_i_old_monotone =
  QCheck2.Test.make ~name:"I_old is monotone and below the identity" ~count:60
    seeds (fun seed ->
      let h = History_gen.random ~seed ~steps:60 ~classes:3 () in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let horizon = Time.Clock.now h.History_gen.clock in
      let ok = ref true in
      for cls = 0 to 2 do
        for m = 1 to horizon - 1 do
          let a = Activity.live_i_old ctx.Activity.registry cls m in
          let b = Activity.live_i_old ctx.Activity.registry cls (m + 1) in
          if a > b || a > m then ok := false
        done
      done;
      !ok)

(* --- E function and time walls --- *)

let branch2 = History_gen.branch_partition 2
(* classes: 0, 1 = branches; 2 = base (higher than both) *)

let test_e_fn_same_class () =
  let ctx, _ = mk_ctx branch2 in
  match Activity.e_fn ctx ~s:0 ~i:0 9 with
  | Ok v -> checki "identity" 9 v
  | Error _ -> Alcotest.fail "identity computable"

let test_e_fn_up () =
  let ctx, reg = mk_ctx branch2 in
  Registry.register reg (Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:4);
  match Activity.e_fn ctx ~s:0 ~i:2 9 with
  | Ok v -> checki "up-step is I_old" 4 v
  | Error _ -> Alcotest.fail "up path computable"

let test_e_fn_across_branches () =
  let ctx, reg = mk_ctx branch2 in
  let tb = Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:4 in
  Registry.register reg tb;
  Txn.commit tb ~at:12;
  (* E_0^1(9) walks 0 -> 2 upward: I_2(9) = 4 (tb spans 9), then 2 -> 1
     downward, applying C_late at the source class 2: C_2(4) = 4 under the
     strict boundary (tb, initiated exactly at 4, is not active at 4), so
     both branch thresholds line up at tb's initiation. *)
  (match Activity.e_fn ctx ~s:0 ~i:1 9 with
  | Ok v -> checki "across branches" 4 v
  | Error _ -> Alcotest.fail "computable");
  match Activity.e_fn ctx ~s:0 ~i:2 9 with
  | Ok v -> checki "base threshold matches" 4 v
  | Error _ -> Alcotest.fail "computable"

(* A hierarchy deep enough for E to descend through an intermediate class:
   0 -> 2 <- 1 <- 3 (class 3 sits below branch 1).  C_late right after
   I_old at the apex can never block (any straggler there would already
   have lowered I_old), so blocking needs a descent of length two. *)
let deep_tree =
  let module Spec = Hdd_core.Spec in
  Partition.build_exn
    (Spec.make
       ~segments:[ "b0"; "b1"; "base"; "leaf" ]
       ~types:
         [ Spec.txn_type ~name:"feed" ~writes:[ 2 ] ~reads:[];
           Spec.txn_type ~name:"d0" ~writes:[ 0 ] ~reads:[ 0; 2 ];
           Spec.txn_type ~name:"d1" ~writes:[ 1 ] ~reads:[ 1; 2 ];
           Spec.txn_type ~name:"leaf" ~writes:[ 3 ] ~reads:[ 1; 3 ] ])

let test_e_fn_blocked_reports_straggler () =
  let ctx, reg = mk_ctx deep_tree in
  (* straggler in the intermediate class 1: E_0^3 must wait for it *)
  Registry.register reg (Txn.make ~id:9 ~kind:(Txn.Update 1) ~init:4);
  match Activity.e_fn ctx ~s:0 ~i:3 9 with
  | Error id -> checki "straggler reported" 9 id
  | Ok _ -> Alcotest.fail "must wait for the intermediate straggler"

let test_timewall_compute_idle () =
  let ctx, _ = mk_ctx branch2 in
  let starts = Timewall.component_starts branch2 in
  match Timewall.compute ctx ~starts ~m:5 with
  | Ok components ->
    Alcotest.check (Alcotest.array Alcotest.int) "identity wall"
      [| 5; 5; 5 |] components
  | Error _ -> Alcotest.fail "idle wall computable"

let test_timewall_manager () =
  let partition = deep_tree in
  let registry = Registry.create ~classes:4 () in
  let ctx = Activity.make_ctx partition registry in
  let clock = Time.Clock.create () in
  let mgr = Timewall.create ctx ~clock in
  checki "initial wall released" 1 (Timewall.release_count mgr);
  let w0 = Timewall.current mgr in
  (* stragglers in the base and the intermediate class: the release is
     blocked by the intermediate one on the descent towards the leaf *)
  let tb = Txn.make ~id:1 ~kind:(Txn.Update 2) ~init:(Time.Clock.tick clock) in
  Registry.register registry tb;
  let t1 = Txn.make ~id:2 ~kind:(Txn.Update 1) ~init:(Time.Clock.tick clock) in
  Registry.register registry t1;
  Txn.commit tb ~at:(Time.Clock.tick clock);
  (match Timewall.try_release mgr with
  | Error id -> checki "blocked by the intermediate straggler" 2 id
  | Ok _ -> Alcotest.fail "must block");
  Txn.commit t1 ~at:(Time.Clock.tick clock);
  (match Timewall.try_release mgr with
  | Ok w -> checkb "newer wall" true (w.Timewall.released_at > w0.Timewall.released_at)
  | Error _ -> Alcotest.fail "must release after commit");
  checki "two released walls" 2 (Timewall.release_count mgr);
  (* latest_before picks the newest wall strictly before the time *)
  let newest = Timewall.current mgr in
  (match Timewall.latest_before mgr (newest.Timewall.released_at + 1) with
  | Some w -> checkb "newest selected" true (w == newest)
  | None -> Alcotest.fail "wall available");
  match Timewall.latest_before mgr w0.Timewall.released_at with
  | Some _ -> Alcotest.fail "nothing strictly before the first wall"
  | None -> ()

let test_timewall_threshold_accessor () =
  let ctx, _ = mk_ctx branch2 in
  let clock = Time.Clock.create () in
  let mgr = Timewall.create ctx ~clock in
  let w = Timewall.current mgr in
  checki "threshold accessor matches array" w.Timewall.components.(1)
    (Timewall.threshold w ~class_id:1)

(* Lemma 2.1, empirically: build a random history on the branch
   hierarchy, compute a wall, and verify that across every pair of
   classes on one critical path no old-side transaction topologically
   follows... precisely: t1 on the old side of the wall can never
   directly depend on t2 on the new side, and PSR admits arcs only along
   =>, so we check not (t1 => t2). *)
let prop_wall_separation =
  QCheck2.Test.make ~name:"Lemma 2.1: no => crosses a time wall" ~count:60
    seeds (fun seed ->
      let h = History_gen.random ~seed ~steps:80 ~classes:3 () in
      let ctx = Activity.make_ctx branch2 h.History_gen.registry in
      let horizon = Time.Clock.now h.History_gen.clock in
      let starts = Timewall.component_starts branch2 in
      let ok = ref true in
      List.iter
        (fun m ->
          match Timewall.compute ctx ~starts ~m with
          | Error _ -> ok := false
          | Ok wall ->
            List.iter
              (fun (t1 : Txn.t) ->
                List.iter
                  (fun (t2 : Txn.t) ->
                    match (Txn.class_of t1, Txn.class_of t2) with
                    | Some c1, Some c2 ->
                      if
                        t1.Txn.init < wall.(c1)
                        && t2.Txn.init >= wall.(c2)
                        && Follows.follows ctx t1 t2 = Some true
                      then ok := false
                    | _ -> ())
                  h.History_gen.all)
              h.History_gen.all)
        [ 1; horizon / 2; horizon ];
      !ok)

(* --- the => relation (§4.3) --- *)

let test_follows_same_class () =
  let ctx, reg = mk_ctx chain3 in
  let t1 = Txn.make ~id:1 ~kind:(Txn.Update 0) ~init:5 in
  let t2 = Txn.make ~id:2 ~kind:(Txn.Update 0) ~init:9 in
  Registry.register reg t1;
  Registry.register reg t2;
  Alcotest.check (Alcotest.option Alcotest.bool) "later follows earlier"
    (Some true) (Follows.follows ctx t2 t1);
  Alcotest.check (Alcotest.option Alcotest.bool) "earlier does not"
    (Some false) (Follows.follows ctx t1 t2)

let test_follows_undefined () =
  let ctx, _ = mk_ctx branch2 in
  let t1 = Txn.make ~id:1 ~kind:(Txn.Update 0) ~init:5 in
  let t2 = Txn.make ~id:2 ~kind:(Txn.Update 1) ~init:9 in
  Alcotest.check (Alcotest.option Alcotest.bool)
    "siblings not on one critical path" None (Follows.follows ctx t1 t2);
  let ro = Txn.make ~id:3 ~kind:Txn.Read_only ~init:7 in
  Alcotest.check (Alcotest.option Alcotest.bool) "read-only undefined" None
    (Follows.follows ctx ro t1);
  checkb "defined predicate" false (Follows.defined ctx t1 t2)

let prop_follows_antisymmetric =
  QCheck2.Test.make ~name:"Property 1.1: => is antisymmetric" ~count:60 seeds
    (fun seed ->
      let h = History_gen.random ~seed ~steps:60 ~classes:3 () in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      List.for_all
        (fun t1 ->
          List.for_all
            (fun t2 ->
              t1 == t2
              || not
                   (Follows.follows ctx t1 t2 = Some true
                   && Follows.follows ctx t2 t1 = Some true))
            h.History_gen.all)
        h.History_gen.all)

(* The paper proves Property 1.2 by exhausting 13 cases — precisely the
   13 weak orderings of the three classes (T_i, T_k, T_j).  The test
   classifies every applicable triple by that signature and requires all
   13 cases to have been exercised, so the property test covers the same
   ground as the appendix proof. *)
let weak_order_signature i k j =
  let cmp a b = if a < b then '<' else if a = b then '=' else '>' in
  Printf.sprintf "%c%c%c" (cmp i k) (cmp k j) (cmp i j)

let follows_cases_covered : (string, unit) Hashtbl.t = Hashtbl.create 13

let prop_follows_transitive =
  QCheck2.Test.make
    ~name:"Property 1.2: => is critical-path transitive (13-case coverage)"
    ~count:40 seeds
    (fun seed ->
      let h = History_gen.random ~seed ~steps:40 ~classes:3 () in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let covered = Hashtbl.create 13 in
      (* all classes of a chain are on one critical path *)
      let holds =
        List.for_all
          (fun t1 ->
            List.for_all
              (fun t2 ->
                List.for_all
                  (fun t3 ->
                    if
                      Follows.follows ctx t1 t2 = Some true
                      && Follows.follows ctx t2 t3 = Some true
                    then begin
                      (match
                         (Txn.class_of t1, Txn.class_of t2, Txn.class_of t3)
                       with
                      | Some i, Some k, Some j ->
                        Hashtbl.replace covered
                          (weak_order_signature i k j) ()
                      | _ -> ());
                      Follows.follows ctx t1 t3 = Some true
                    end
                    else true)
                  h.History_gen.all)
              h.History_gen.all)
          h.History_gen.all
      in
      (* per-seed coverage is partial; the aggregate check below sums it *)
      Hashtbl.iter
        (fun sig_ () -> Hashtbl.replace follows_cases_covered sig_ ())
        covered;
      holds)

let test_follows_case_coverage () =
  (* runs after the property (alcotest preserves suite order): all 13
     weak orderings of (i, k, j) must have produced applicable premises *)
  checki "all 13 proof cases of Property 1.2 exercised" 13
    (Hashtbl.length follows_cases_covered)

(* --- mixed histories: aborts, ad-hoc updates, read-only transactions --- *)

let prop_a_b_inverse_abort_heavy =
  (* Property 2.1 again, but on histories where most finishes are aborts
     and a fifth of the begins are ad-hoc updates joining two classes:
     aborts count as activity ends and ad-hoc members widen windows, and
     the composition bound must survive both *)
  QCheck2.Test.make ~name:"Property 2.1 under abort-heavy ad-hoc histories"
    ~count:60 seeds (fun seed ->
      let h =
        History_gen.random ~seed ~steps:60 ~classes:3 ~commit_bias:2
          ~adhoc_weight:20 ()
      in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let horizon = Time.Clock.now h.History_gen.clock in
      let ok = ref true in
      for m = 1 to horizon do
        match Activity.b_fn ctx ~from_class:0 ~to_class:2 m with
        | Error _ -> ok := false
        | Ok b ->
          if Activity.a_fn ctx ~from_class:0 ~to_class:2 b < m then ok := false
      done;
      !ok)

let prop_ro_invisible_to_registry =
  (* Protocol C's precondition: ad-hoc read-only transactions must never
     reach the registry (walls serve them; activity links ignore them),
     while ad-hoc updates must be on record in every class they joined —
     and a quiesced history must still release a wall that dominates the
     initial one in every component *)
  QCheck2.Test.make
    ~name:"read-only invisible to activity, ad-hoc updates fully joined"
    ~count:60 seeds (fun seed ->
      let h =
        History_gen.random ~seed ~steps:80 ~classes:3 ~commit_bias:4
          ~ro_weight:30 ~adhoc_weight:15 ()
      in
      let registered cls =
        List.map
          (fun (t : Txn.t) -> t.Txn.id)
          (Registry.transactions h.History_gen.registry ~class_id:cls)
      in
      let all_registered = List.concat_map registered [ 0; 1; 2 ] in
      let ro_hidden =
        List.for_all
          (fun (t : Txn.t) -> not (List.mem t.Txn.id all_registered))
          h.History_gen.read_only
      in
      let adhoc_joined =
        List.for_all
          (fun ((t : Txn.t), joined) ->
            List.for_all (fun c -> List.mem t.Txn.id (registered c)) joined)
          h.History_gen.adhoc
      in
      let ctx = Activity.make_ctx chain3 h.History_gen.registry in
      let mgr = Timewall.create ctx ~clock:h.History_gen.clock in
      let w0 = Timewall.current mgr in
      let wall_ok =
        match Timewall.try_release mgr with
        | Error _ -> false (* quiescent: must be computable *)
        | Ok w ->
          List.for_all
            (fun c ->
              Timewall.threshold w ~class_id:c
              >= Timewall.threshold w0 ~class_id:c)
            [ 0; 1; 2 ]
      in
      ro_hidden && adhoc_joined && wall_ok)

let suite =
  [ Alcotest.test_case "A: idle identity" `Quick test_a_fn_idle;
    Alcotest.test_case "A: direct arc" `Quick test_a_fn_direct;
    Alcotest.test_case "A: multi-hop composition" `Quick test_a_fn_composes;
    Alcotest.test_case "A: same class" `Quick test_a_fn_same_class_identity;
    Alcotest.test_case "A: trace" `Quick test_a_fn_trace;
    Alcotest.test_case "A: undefined downward" `Quick test_a_fn_no_path;
    Alcotest.test_case "B: blocked by stragglers" `Quick test_b_fn_blocked;
    Alcotest.test_case "B: excludes the bottom class" `Quick test_b_fn_applies_above_bottom;
    Alcotest.test_case "E: same class" `Quick test_e_fn_same_class;
    Alcotest.test_case "E: upward path" `Quick test_e_fn_up;
    Alcotest.test_case "E: across branches" `Quick test_e_fn_across_branches;
    Alcotest.test_case "E: straggler reported" `Quick test_e_fn_blocked_reports_straggler;
    Alcotest.test_case "wall: idle compute" `Quick test_timewall_compute_idle;
    Alcotest.test_case "wall: manager lifecycle" `Quick test_timewall_manager;
    Alcotest.test_case "wall: threshold accessor" `Quick test_timewall_threshold_accessor;
    Alcotest.test_case "follows: same class" `Quick test_follows_same_class;
    Alcotest.test_case "follows: undefined cases" `Quick test_follows_undefined;
    QCheck_alcotest.to_alcotest prop_a_b_inverse;
    QCheck_alcotest.to_alcotest prop_a_b_epsilon;
    QCheck_alcotest.to_alcotest prop_i_old_monotone;
    QCheck_alcotest.to_alcotest prop_wall_separation;
    QCheck_alcotest.to_alcotest prop_follows_antisymmetric;
    QCheck_alcotest.to_alcotest prop_follows_transitive;
    QCheck_alcotest.to_alcotest prop_a_b_inverse_abort_heavy;
    QCheck_alcotest.to_alcotest prop_ro_invisible_to_registry;
    Alcotest.test_case "Property 1.2: proof-case coverage" `Quick
      test_follows_case_coverage ]
