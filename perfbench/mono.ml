(* The benchmark's one clock: CLOCK_MONOTONIC in nanoseconds.  Every
   timestamp the benchmark takes goes through [now_ns]. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
