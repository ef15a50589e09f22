(* Inputs of every workload, made from the seed before the timed window.

   [pool] draws the transaction templates the closed loop of
   serial-chain8 and durable-writes cycles through.  [script] draws
   Engine.desc values with the mix Engine.run_timed generates for itself
   on engine-chain8, so cluster-chain8 and the engine's oracle check run
   the same traffic. *)

module Prng = Hdd_util.Prng
module E = Hdd_runtime.Engine

type proto = A | B | C

type op = { g : Granule.t; write : bool; proto : proto }

type tmpl = {
  cls : int;  (** update class, or -1 for a read-only transaction *)
  ops : op array;
}

(* [b_pct]% Protocol B updates (read, write, read, write in the class's
   own segment), [a_pct]% class-0 updates making four Protocol A reads of
   higher segments and one write, the rest read-only transactions that
   read every segment once through Protocol C. *)
let pool ~seed ~size ~segments ~keys ~b_pct ~a_pct =
  let g = Prng.create seed in
  let gran seg = Granule.make ~segment:seg ~key:(Prng.int g keys) in
  Array.init size (fun _ ->
      let roll = Prng.int g 100 in
      if roll < b_pct then begin
        let c = Prng.int g segments in
        { cls = c;
          ops =
            Array.init 4 (fun i -> { g = gran c; write = i land 1 = 1; proto = B }) }
      end
      else if roll < b_pct + a_pct then
        { cls = 0;
          ops =
            Array.init 5 (fun i ->
                if i < 4 then { g = gran (1 + Prng.int g (segments - 1)); write = false; proto = A }
                else { g = gran 0; write = true; proto = B }) }
      else
        { cls = -1;
          ops = Array.init segments (fun s -> { g = gran s; write = false; proto = C }) })

(* the engine benchmark mix of Adaptbench, where the engine's version
   leak was first measured *)
let engine_mix =
  { E.ro_frac = 0.1; abort_frac = 0.05; cross_reads = 4; own_ops = 2; keys_per_segment = 16 }

let script ~partition ~seed ~txns =
  let mix = engine_mix in
  let nseg = Hdd_core.Partition.segment_count partition in
  let readable =
    Array.init nseg (fun cls ->
        List.init nseg Fun.id
        |> List.filter (fun seg ->
               seg <> cls && Hdd_core.Partition.may_read partition ~class_id:cls ~segment:seg)
        |> Array.of_list)
  in
  let g = Prng.create seed in
  let key () = Prng.int g mix.E.keys_per_segment in
  Array.init txns (fun i ->
      let id = i + 1 in
      if Prng.float g 1. >= mix.E.ro_frac then begin
        let cls = Prng.int g nseg in
        let own =
          List.init mix.E.own_ops (fun k ->
              let gr = Granule.make ~segment:cls ~key:(key ()) in
              if k = 0 then E.Write (gr, Prng.int g 1_000_000) else E.Read gr)
        in
        let cross =
          match readable.(cls) with
          | [||] -> []
          | segs ->
            List.init mix.E.cross_reads (fun _ ->
                E.Read (Granule.make ~segment:(Prng.pick g segs) ~key:(key ())))
        in
        { E.d_id = id; d_kind = `Update cls; d_ops = own @ cross;
          d_abort = Prng.float g 1. < mix.E.abort_frac }
      end
      else
        { E.d_id = id;
          d_kind = `Read_only;
          d_ops =
            List.init mix.E.cross_reads (fun _ ->
                E.Read (Granule.make ~segment:(Prng.int g nseg) ~key:(key ())));
          d_abort = false })
