type t = {
  mutable data : float array;
  mutable len : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { data = Array.make 16 0.; len = 0; sum = 0.; sumsq = 0.;
    lo = infinity; hi = neg_infinity }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.len
let total t = t.sum

let mean t = if t.len = 0 then nan else t.sum /. float_of_int t.len

let stddev t =
  if t.len < 2 then nan
  else
    let n = float_of_int t.len in
    let var = (t.sumsq -. (t.sum *. t.sum /. n)) /. (n -. 1.) in
    sqrt (Float.max var 0.)

let min_value t = t.lo
let max_value t = t.hi

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(if rank <= 0 then 0 else Int.min (rank - 1) (n - 1))

let percentile t p =
  if t.len = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.sub t.data 0 t.len in
  Array.sort compare sorted;
  percentile_sorted sorted p

let observations t = Array.sub t.data 0 t.len

module Histogram = struct
  type h = { lo : float; hi : float; counts : int array }

  let create ~lo ~hi ~buckets =
    if buckets <= 0 then invalid_arg "Histogram.create: buckets must be > 0";
    if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
    { lo; hi; counts = Array.make buckets 0 }

  let bucket_of h x =
    let n = Array.length h.counts in
    if x < h.lo then 0
    else if x >= h.hi then n - 1
    else
      let frac = (x -. h.lo) /. (h.hi -. h.lo) in
      Int.min (n - 1) (int_of_float (frac *. float_of_int n))

  let add h x =
    let i = bucket_of h x in
    h.counts.(i) <- h.counts.(i) + 1

  let counts h = Array.copy h.counts

  let render h ~width =
    let peak = Array.fold_left Int.max 1 h.counts in
    let buf = Buffer.create 256 in
    let n = Array.length h.counts in
    let step = (h.hi -. h.lo) /. float_of_int n in
    Array.iteri
      (fun i c ->
        let bar = c * width / peak in
        Buffer.add_string buf
          (Printf.sprintf "%10.3f | %s %d\n"
             (h.lo +. (float_of_int i *. step))
             (String.make bar '#') c))
      h.counts;
    Buffer.contents buf
end
