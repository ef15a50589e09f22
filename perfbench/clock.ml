(* CLOCK_MONOTONIC in nanoseconds.  The stub returns an unboxed int64, so
   once [Monotonic_clock.now] is inlined a clock read allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
