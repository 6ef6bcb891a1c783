(* The benchmark's workloads and the inputs generated from a seed.

   A live workload is one open-loop Poisson rate offered to one tq_serve
   process: a warm-up (responses checked but not measured), then the
   measurement window.  Only requests *due* inside the window count.
   The server receives only the generated requests. *)

module P = Tq_serve.Protocol
module Prng = Tq_util.Prng
module Load_gen = Tq_serve.Load_gen

type live = {
  mix : Load_gen.mix;
  rate_rps : float;
  warmup_s : float;
  measure_s : float;
  quantum_us : int;  (** the server's forced-multitasking quantum *)
}

type t = {
  name : string;
  live : live;
      (** for [des], the live traffic its traced run measures the live
          layers on (the [idle] traffic): [des] has none of its own *)
  des_primary : bool;  (** the end-to-end run is the simulator grid *)
}

let names = [ "idle"; "heavy-tail"; "des" ]

(* Heavy echoes in [heavy-tail]: ~1.5% of requests spin 500 us, well
   above the 25 us server quantum, so forced multitasking decides
   whether short requests wait behind them. *)
let heavy_spin_ns = 500_000
let heavy_quantum_us = 25

let idle_live ~seconds =
  { mix = Load_gen.default_mix; rate_rps = 1000.0; warmup_s = 1.0; measure_s = seconds; quantum_us = 100 }

let heavy_live ~seconds =
  {
    mix =
      {
        Load_gen.default_mix with
        echo = 0.685;
        echo_heavy = 0.015;
        echo_heavy_spin_ns = heavy_spin_ns;
      };
    rate_rps = 8000.0;
    warmup_s = 1.0;
    measure_s = seconds;
    quantum_us = heavy_quantum_us;
  }

let find name ~seconds =
  match name with
  | "idle" -> Some { name; live = idle_live ~seconds; des_primary = false }
  | "heavy-tail" -> Some { name; live = heavy_live ~seconds; des_primary = false }
  | "des" -> Some { name; live = idle_live ~seconds; des_primary = true }
  | _ -> None

(* {2 Generated inputs} *)

(* One generated request.  [heavy] marks the heavy echoes; the
   short-request percentile excludes them. *)
type req = { request : P.request; heavy : bool }

type plan = {
  due_ns : int array;  (** offsets from the phase start, ascending *)
  reqs : req array;
  measured : bool array;  (** due inside the measurement window *)
  window : int * int;  (** the measurement window's [start, end) offsets *)
  kv_sets : (string, string list) Hashtbl.t;  (** every value SET per key *)
}

let sample rng (mix : Load_gen.mix) i =
  let total = mix.echo +. mix.echo_heavy +. mix.kv +. mix.tpcc in
  let r = Prng.float rng total in
  let echo spin_ns = P.Echo { spin_ns; payload = Printf.sprintf "e%d" i } in
  if r < mix.echo then { request = echo mix.echo_spin_ns; heavy = false }
  else if r < mix.echo +. mix.echo_heavy then
    { request = echo mix.echo_heavy_spin_ns; heavy = true }
  else if r < mix.echo +. mix.echo_heavy +. mix.kv then begin
    let key = Tq_serve.App.kv_key (Prng.int rng mix.kv_keys) in
    if Prng.bernoulli rng ~p:mix.kv_set_fraction then
      { request = P.Kv_set { key; value = Printf.sprintf "s%d" i }; heavy = false }
    else { request = P.Kv_get { key }; heavy = false }
  end
  else { request = P.Tpcc { kind = Tq_tpcc.Transactions.sample_kind rng }; heavy = false }

let s_to_ns s = int_of_float (s *. 1e9)

let plan ~seed (live : live) =
  let rng = Prng.create ~seed in
  let due = ref [] and reqs = ref [] and meas = ref [] in
  let m0 = s_to_ns live.warmup_s in
  let m1 = m0 + s_to_ns live.measure_s in
  let mean = 1e9 /. live.rate_rps in
  let next = ref (Prng.exponential rng ~mean) and i = ref 0 in
  while int_of_float !next < m1 do
    let d = int_of_float !next in
    due := d :: !due;
    reqs := sample rng live.mix !i :: !reqs;
    meas := (d >= m0) :: !meas;
    incr i;
    next := !next +. Prng.exponential rng ~mean
  done;
  let arr l = Array.of_list (List.rev l) in
  let reqs = arr !reqs in
  let kv_sets = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      match r.request with
      | P.Kv_set { key; value } ->
          Hashtbl.replace kv_sets key
            (value :: Option.value (Hashtbl.find_opt kv_sets key) ~default:[])
      | _ -> ())
    reqs;
  { due_ns = arr !due; reqs; measured = arr !meas; window = (m0, m1); kv_sets }

(* The reply body each request class must carry (see [Tq_serve.App]). *)
let body_ok plan (req : P.request) body =
  let has_prefix prefix = String.starts_with ~prefix body in
  match req with
  | P.Echo { payload; _ } -> body = payload
  | P.Kv_set _ -> body = "+"
  | P.Kv_get { key } ->
      has_prefix "+"
      &&
      let v = String.sub body 1 (String.length body - 1) in
      (match Scanf.sscanf_opt key "key%d%!" (fun k -> k) with
      | Some k -> v = Printf.sprintf "value%06d" k
      | None -> false)
      || List.mem v (Option.value (Hashtbl.find_opt plan.kv_sets key) ~default:[])
  | P.Tpcc { kind } -> (
      let prefix =
        match kind with
        | Tq_tpcc.Transactions.New_order -> "ordered:"
        | Payment -> "paid:"
        | Order_status -> "status:"
        | Delivery -> "delivered:"
        | Stock_level -> "stock_low:"
      in
      has_prefix prefix
      &&
      let rest = String.sub body (String.length prefix) (String.length body - String.length prefix) in
      List.for_all
        (fun f -> int_of_string_opt f <> None)
        (String.split_on_char ':' rest))
  | P.Stats _ -> false
