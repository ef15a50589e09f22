type metric = { name : string; unit_ : string; value : float }
type t = { mutable rev : metric list }

let create () = { rev = [] }

let add r name unit_ value =
  let m = { name; unit_; value } in
  if List.exists (fun x -> x.name = name) r.rev then
    r.rev <- List.map (fun x -> if x.name = name then m else x) r.rev
  else r.rev <- m :: r.rev

let metrics r = List.rev r.rev
let find r name = (List.find (fun m -> m.name = name) r.rev).value

let env ~seed ~flush_policy ~tmp_fs =
  [ ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("seed", string_of_int seed);
    ("flush_policy", flush_policy);
    ("tmp_fs", tmp_fs) ]

let filesystem_of dir =
  match
    Unix.open_process_args_in "stat" [| "stat"; "-f"; "-c"; "%T"; dir |]
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let metrics_json ms =
  ms
  |> List.map (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str m.name)
           (num m.value) (str m.unit_))
  |> String.concat ", "

let result_line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (metrics_json ms)

let print_table oc ms =
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-40s %16s  %s\n" m.name
        (if Float.is_integer m.value && Float.abs m.value < 1e15 then
           Printf.sprintf "%.0f" m.value
         else Printf.sprintf "%.6g" m.value)
        m.unit_)
    ms

let write_file ~path ~workload ~trace ~env ~checks ~correct ~attempted ~failed
    ms =
  let fields kv = String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kv) in
  let body =
    Printf.sprintf
      "{\"workload\": %s, \"trace\": %b, \"env\": {%s},\n\
      \ \"checks\": {%s},\n\
      \ \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n\
      \ \"metrics\": {%s}}\n"
      (str workload) trace
      (fields (List.map (fun (k, v) -> (k, str v)) env))
      (fields (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks))
      correct attempted failed (metrics_json ms)
  in
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc
