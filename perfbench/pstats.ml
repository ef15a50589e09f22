(* ranks are computed with a small slack so that 0.99 * 1000 lands on
   rank 990 whatever the binary rounding of 0.99 *)
let rank n q =
  Int.max 1 (Int.min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan else a.(rank n q - 1)

let median values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  quantile_sorted a 0.5

let tail_quantile n =
  let rec go q best =
    if n > 0 && n - rank n q >= 10 then go (1. -. ((1. -. q) /. 10.)) q
    else best
  in
  go 0.9 0.5

let tail_ratio ~first:(t1, n1) ~total:(t, n) =
  let rest = float_of_int (n - n1) /. (t -. t1) in
  let head = float_of_int n1 /. t1 in
  rest /. head

module Windows = struct
  type basis = Count of int | Time of float

  type t = {
    basis : basis;
    k : int;
    ts : float array;
    ns : int array;
    mutable next : int;
  }

  let create ?(windows = 20) basis =
    if windows <= 0 || windows mod 4 <> 0 then invalid_arg "Windows.create: windows";
    { basis; k = windows; ts = Array.make windows 0.; ns = Array.make windows 0; next = 0 }

  let reached w ~t ~n =
    let i = w.next + 1 in
    match w.basis with
    | Count total -> n * w.k >= i * total
    | Time total -> t *. float_of_int w.k >= float_of_int i *. total

  let record w ~t ~n =
    w.ts.(w.next) <- t;
    w.ns.(w.next) <- n;
    w.next <- w.next + 1

  let observe w ~t ~n =
    let before = w.next in
    while w.next < w.k && reached w ~t ~n do
      record w ~t ~n
    done;
    w.next > before

  let finish w ~t ~n =
    while w.next < w.k do
      record w ~t ~n
    done

  let marks w = Array.init w.next (fun i -> (w.ts.(i), w.ns.(i)))

  let rates w =
    Array.init w.next (fun i ->
        let t0, n0 = if i = 0 then (0., 0) else (w.ts.(i - 1), w.ns.(i - 1)) in
        float_of_int (w.ns.(i) - n0) /. (w.ts.(i) -. t0))

  let rate w = median (rates w)

  let first_quarter_rate w = median (Array.sub (rates w) 0 (w.k / 4))

  let tail w =
    let r = rates w in
    let q = w.k / 4 in
    median (Array.sub r q (Array.length r - q)) /. first_quarter_rate w
end

module Hist = struct
  let sub = 128
  let sub_bits = 7

  (* bucket of v: v itself below [sub]; otherwise the top [sub_bits] bits
     below the leading one, per power of two *)
  let index v =
    if v < sub then v
    else begin
      let e = ref sub_bits and x = ref (v lsr sub_bits) in
      while !x > 1 do
        incr e;
        x := !x lsr 1
      done;
      let m = (v lsr (!e - sub_bits)) land (sub - 1) in
      sub + ((!e - sub_bits) * sub) + m
    end

  let midpoint i =
    if i < sub then float_of_int i
    else begin
      let e = ((i - sub) / sub) + sub_bits and m = (i - sub) mod sub in
      let width = 1 lsl (e - sub_bits) in
      float_of_int ((sub + m) * width) +. (float_of_int (width - 1) /. 2.)
    end

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make (sub + ((62 - sub_bits) * sub)) 0; n = 0 }

  let add h v =
    let i = index (Int.max 0 v) in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  let count h = h.n

  let quantile h q =
    if h.n = 0 then nan
    else begin
      let r = rank h.n q in
      let i = ref 0 and seen = ref h.counts.(0) in
      while !seen < r do
        incr i;
        seen := !seen + h.counts.(!i)
      done;
      midpoint !i
    end
end
