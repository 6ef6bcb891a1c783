(* Exact percentiles from raw samples.

   Every percentile the benchmark reports is the nearest-rank sample of
   the sorted raw data, and is cross-checked against [Tq_obs.Latency]
   fed the same samples: the histogram uses the same rank rule and
   reports an edge of the bucket holding that sample, and its buckets
   are at most 1/32 of their value wide, so the two must agree within
   1/32.  A miss
   means one of the two computations is wrong (for instance a fraction
   passed where a percent is expected), and fails the run. *)

type t = { sorted : int array; hist : Tq_obs.Latency.recorder }

let of_samples (samples : int array) =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let hist = Tq_obs.Latency.recorder (Tq_obs.Latency.create ()) "samples" in
  Array.iter (Tq_obs.Latency.record hist) samples;
  { sorted; hist }

let count t = Array.length t.sorted

let mean t =
  let n = count t in
  if n = 0 then nan
  else Array.fold_left (fun acc v -> acc +. float_of_int v) 0.0 t.sorted /. float_of_int n

(* [get t p] — the p-th percentile ([p] in [0, 100]) in the samples'
   unit; 0 when empty.  Raises [Failure] when the histogram disagrees. *)
let get t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Pct.get: p is a percent in [0, 100]";
  let n = count t in
  if n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
    let exact = t.sorted.(rank - 1) in
    let h = Tq_obs.Latency.percentile t.hist p in
    if abs (h - exact) > exact / 32 then
      failwith
        (Printf.sprintf
           "percentile cross-check: p%g exact %d vs histogram %d over %d samples" p
           exact h n);
    exact
  end

(* Samples strictly above the p-th percentile: the tail a percentile
   rests on.  The benchmark requires at least ten beyond p99. *)
let beyond t p =
  let v = get t p in
  let n = count t in
  let rec first_above lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.sorted.(mid) > v then first_above lo mid else first_above (mid + 1) hi
  in
  n - first_above 0 n

(* [across ws ~q p] — the [q]-quantile (nearest rank, [q] in (0, 1])
   over sub-windows of each sub-window's p-th percentile.  The reported
   latencies take the median ([q] = 0.5): a stall of the shared host
   that hits a few sub-windows leaves it alone, a slower server in more
   than half of them moves it.  The pooled percentile is printed beside
   it, so the stalls stay visible. *)
let across ws ~q p =
  let a = Array.map (fun w -> get w p) ws in
  Array.sort compare a;
  a.(max 0 (int_of_float (ceil (q *. float_of_int (Array.length a))) - 1))

(* [median l] — the median of a non-empty list of floats. *)
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
