let self_times ~start ~stop ~parent n =
  let self = Array.init n (fun i -> stop.(i) - start.(i)) in
  let nk = ref 0 in
  for i = 0 to n - 1 do
    if parent.(i) >= 0 then incr nk
  done;
  let kids = Array.make !nk 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if parent.(i) >= 0 then begin
      kids.(!j) <- i;
      incr j
    end
  done;
  let lo i = Int.max start.(i) start.(parent.(i)) in
  let hi i = Int.min stop.(i) stop.(parent.(i)) in
  let before a b = parent.(a) < parent.(b) || (parent.(a) = parent.(b) && lo a <= lo b) in
  (* a single-threaded recorder writes children in start order right
     after their parent, so sorting is rarely needed *)
  let sorted = ref true in
  for k = 1 to Array.length kids - 1 do
    if not (before kids.(k - 1) kids.(k)) then sorted := false
  done;
  if not !sorted then
    Array.stable_sort
      (fun a b -> compare (parent.(a), lo a) (parent.(b), lo b))
      kids;
  (* sweep each parent's children, merging overlapping intervals *)
  let k = ref 0 in
  let nk = Array.length kids in
  while !k < nk do
    let p = parent.(kids.(!k)) in
    let covered = ref 0 and cur_lo = ref 0 and cur_hi = ref min_int in
    while !k < nk && parent.(kids.(!k)) = p do
      let i = kids.(!k) in
      let l = lo i and h = hi i in
      if h > l then begin
        if l > !cur_hi then begin
          if !cur_hi > !cur_lo then covered := !covered + (!cur_hi - !cur_lo);
          cur_lo := l;
          cur_hi := h
        end
        else if h > !cur_hi then cur_hi := h
      end;
      incr k
    done;
    if !cur_hi > !cur_lo then covered := !covered + (!cur_hi - !cur_lo);
    self.(p) <- self.(p) - !covered
  done;
  self

type chunk = {
  c_name : int array;
  c_start : int array;
  c_stop : int array;
  c_parent : int array;
  c_txn : int array;
}

type t = {
  names : string array;
  cap : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  txn : int array;
  mutable n : int;
  self_ns : int array;
  spans : int array;
  mutable kept : chunk option;
}

let flush_name = "bench.trace_flush"
let slack = 64

let create ~names ~capacity =
  let names = Array.of_list (names @ [ flush_name ]) in
  let k = Array.length names in
  { names;
    cap = capacity;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    txn = Array.make capacity 0;
    n = 0;
    self_ns = Array.make k 0;
    spans = Array.make k 0;
    kept = None }

let id t name =
  let rec find i =
    if i = Array.length t.names then invalid_arg ("Spans.id: unknown span " ^ name)
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let open_ t ~name ~parent ~txn =
  let i = t.n in
  if i = t.cap then failwith "Spans.open_: buffer full inside one span tree";
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.txn.(i) <- txn;
  t.stop.(i) <- -1;
  t.n <- i + 1;
  t.start.(i) <- Clock.now_ns ();
  i

let set_txn t i txn = t.txn.(i) <- txn

let close t i =
  let now = Clock.now_ns () in
  t.stop.(i) <- now;
  now - t.start.(i)

let flush t =
  let t0 = Clock.now_ns () in
  let n = t.n in
  for i = 0 to n - 1 do
    if t.stop.(i) < 0 then failwith ("Spans.flush: open span " ^ t.names.(t.name.(i)))
  done;
  let self = self_times ~start:t.start ~stop:t.stop ~parent:t.parent n in
  for i = 0 to n - 1 do
    let k = t.name.(i) in
    t.self_ns.(k) <- t.self_ns.(k) + self.(i);
    t.spans.(k) <- t.spans.(k) + 1
  done;
  if t.kept = None && n > 0 then
    t.kept <-
      Some
        { c_name = Array.sub t.name 0 n;
          c_start = Array.sub t.start 0 n;
          c_stop = Array.sub t.stop 0 n;
          c_parent = Array.sub t.parent 0 n;
          c_txn = Array.sub t.txn 0 n };
  t.n <- 0;
  let f = Array.length t.names - 1 in
  t.self_ns.(f) <- t.self_ns.(f) + (Clock.now_ns () - t0);
  t.spans.(f) <- t.spans.(f) + 1

let boundary t = if t.n > t.cap - slack then flush t

let totals t =
  Array.to_list (Array.mapi (fun k nm -> (nm, t.spans.(k), t.self_ns.(k))) t.names)

let write_chrome t path =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let event s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  (match t.kept with
  | None -> ()
  | Some c ->
    let n = Array.length c.c_name in
    let base = Array.fold_left Int.min max_int c.c_start in
    let us ns = float_of_int (ns - base) /. 1e3 in
    let txns = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      event
        (Printf.sprintf
           "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"txn\":%d}}"
           t.names.(c.c_name.(i)) (us c.c_start.(i))
           (float_of_int (c.c_stop.(i) - c.c_start.(i)) /. 1e3)
           i c.c_parent.(i) c.c_txn.(i));
      let x = c.c_txn.(i) in
      if x > 0 then
        match Hashtbl.find_opt txns x with
        | None -> Hashtbl.replace txns x (c.c_start.(i), c.c_stop.(i))
        | Some (s, e) ->
          Hashtbl.replace txns x (Int.min s c.c_start.(i), Int.max e c.c_stop.(i))
    done;
    Hashtbl.to_seq txns |> List.of_seq |> List.sort compare
    |> List.iter (fun (x, (s, e)) ->
           event
             (Printf.sprintf
                "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":2,\"ts\":%.3f}"
                x (us s));
           event
             (Printf.sprintf
                "{\"name\":\"txn\",\"cat\":\"txn\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":2,\"ts\":%.3f}"
                x (us e))));
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc
