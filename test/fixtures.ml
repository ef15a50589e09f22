(* Shared test fixtures. *)

module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition

(* the paper's inventory decomposition: D0 reorders, D1 inventory, D2 events *)
let inventory_spec =
  Spec.make
    ~segments:[ "reorders"; "inventory"; "events" ]
    ~types:
      [ Spec.txn_type ~name:"type1" ~writes:[ 2 ] ~reads:[];
        Spec.txn_type ~name:"type2" ~writes:[ 1 ] ~reads:[ 1; 2 ];
        Spec.txn_type ~name:"type3" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ]

let inventory = Partition.build_exn inventory_spec

(* --- seeded stress-suite knobs ---

   Every engine-level stress suite reads its seed count from an
   environment variable (in-tree default 30, the nightly raises it into
   the hundreds) and scales worker/shard counts and workload profiles
   off the seed the same way; one copy of that arithmetic lives here. *)

let seeds_from_env ?(default = 30) var =
  match Sys.getenv_opt var with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default)
  | None -> default

let scaled_workers seed = [| 2; 4; 8 |].(seed mod 3)

let stress_profile seed =
  [| Hdd_runtime.Differential.Abort_heavy;
     Hdd_runtime.Differential.Adhoc_read;
     Hdd_runtime.Differential.Mixed |].(seed / 3 mod 3)

(* The long few-key shard script: 3000 transactions on a 4-segment
   chain with 2 keys per segment.  Long runs release many walls over
   few keys, which is what exposed the shard node's registry prune at
   the released wall's anchor (non-serialisable in most seeds at 2
   shards); both the domain and the process suites run it.  Seed counts
   come from HDD_SHARD_LONG_SEEDS. *)
let long_shard_case seed =
  let partition = Hdd_runtime.Differential.chain_partition 4 in
  ( partition,
    Hdd_runtime.Differential.gen_script ~partition ~seed ~txns:3000
      ~keys_per_segment:2 ~ro_frac:0.2 ~abort_frac:0.05 () )

let long_shard_seeds ~default =
  seeds_from_env ~default "HDD_SHARD_LONG_SEEDS"

(* --- golden-trace helpers --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The directory to (re)write goldens into, when the run asks for an
   update instead of a comparison. *)
let golden_update_dir () =
  match Sys.getenv_opt "HDD_GOLDEN_UPDATE" with
  | Some dir when dir <> "" && dir <> "0" -> Some dir
  | _ -> None

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0
