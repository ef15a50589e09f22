module J = Jsonlite

type outcome = {
  report : J.t;
  print : Format.formatter -> unit;
  problems : string list;
}

type t = {
  name : string;
  out : string;
  budget : float;
  run : quick:bool -> workers:int list option -> outcome;
  gated : J.t -> (string * float) list;
}

let of_result ~to_json ~pp ~gates r =
  { report = to_json r; print = (fun ppf -> pp ppf r); problems = gates r }

let metric ?name keys report =
  let v = J.number_at keys report in
  if Float.is_finite v then
    [ (Option.value name ~default:(String.concat "." keys), v) ]
  else []

let regressions ~budget ~baseline ~current =
  List.filter_map
    (fun (name, was) ->
      match List.assoc_opt name current with
      | None -> Some (name, was, None)
      | Some now when was > 0. && now < was *. (1. -. budget) ->
        Some (name, was, Some now)
      | Some _ -> None)
    baseline

let show v =
  if Float.abs v >= 100. then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

let main s ~quick ~out ~baseline ~workers =
  let out = Option.value out ~default:s.out in
  let o = s.run ~quick ~workers in
  J.to_file out o.report;
  Printf.printf "wrote %s\n" out;
  Format.printf "%t@?" o.print;
  let tag = String.uppercase_ascii s.name in
  match (o.problems, baseline) with
  | _ :: _, _ ->
    List.iter (Printf.printf "%s GATE FAILED: %s\n" tag) o.problems;
    1
  | [], None -> 0
  | [], Some path -> (
    match
      regressions ~budget:s.budget
        ~baseline:(s.gated (J.of_file path))
        ~current:(s.gated o.report)
    with
    | [] ->
      Printf.printf "no %s regression beyond %.0f%% against %s\n" s.name
        (100. *. s.budget) path;
      0
    | rs ->
      List.iter
        (function
          | metric, was, Some now ->
            Printf.printf "REGRESSION %s: %s -> %s (-%.0f%%)\n" metric
              (show was) (show now)
              (100. *. (1. -. (now /. was)))
          | metric, was, None ->
            Printf.printf "REGRESSION %s: %s -> missing from the report\n"
              metric (show was))
        rs;
      1)
