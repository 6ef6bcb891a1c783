(* The discrete-event simulator side: a fixed grid of
   [Tq_sched.Experiment.run] points, timed from outside.

   The grid covers the three system families the paper compares (TQ
   two-level, centralized Shinjuku, Caladan), each on Extreme Bimodal
   and TPC-C, at a mid and a high load, one job per point and no cache
   model.  Its results are a pure function of the seed, so the
   benchmark runs it twice and requires identical output. *)

module Experiment = Tq_sched.Experiment
module Presets = Tq_sched.Presets
module Metrics = Tq_workload.Metrics
module Service_dist = Tq_workload.Service_dist

let cores = 16

let systems =
  [
    ("tq", fun (_ : Service_dist.t) -> Presets.tq ~cores ());
    ( "shinjuku",
      fun (w : Service_dist.t) ->
        Presets.shinjuku ~cores ~quantum_ns:(Presets.shinjuku_quantum_for w.name) () );
    ("caladan", fun _ -> Presets.caladan ~cores ~mode:Tq_sched.Caladan.Iokernel ());
  ]

type point = {
  system : string;
  spec : Experiment.system_spec;
  workload : Service_dist.t;
  load : float;
  rate_rps : float;
  duration_ns : int;
}

let point ~system ~workload ~load ~duration_ns =
  let mk = List.assoc system systems in
  {
    system;
    spec = mk workload;
    workload;
    load;
    rate_rps = load *. float_of_int cores *. 1e9 /. Service_dist.mean_service_ns workload;
    duration_ns;
  }

let high_load = 0.85

(* The grid.  Durations give every point tens of thousands of simulated
   requests.  TQ's TPC-C points are the reference the latency metrics
   are read from: their percentiles vary little from seed to seed,
   where Extreme Bimodal's p99 sits on the edge of its rare class. *)
let grid () =
  let wls =
    [ (Tq_workload.Table1.extreme_bimodal, 40_000_000); (Tq_workload.Table1.tpcc, 60_000_000) ]
  in
  List.concat_map
    (fun (system, _) ->
      List.concat_map
        (fun (workload, duration_ns) ->
          List.map (fun load -> point ~system ~workload ~load ~duration_ns) [ 0.5; high_load ])
        wls)
    systems

type outcome = {
  pt : point;
  result : Experiment.result;
  wall_ns : int;
  cpu_s : float;  (** process CPU time of the point *)
}

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let run_point ~seed pt =
  let t0 = Mono.now_ns () and c0 = cpu_s () in
  let result =
    Experiment.run ~seed ~system:pt.spec ~workload:pt.workload ~rate_rps:pt.rate_rps
      ~duration_ns:pt.duration_ns ()
  in
  { pt; result; wall_ns = Mono.now_ns () - t0; cpu_s = cpu_s () -. c0 }

(* Everything a point's result says, as text: two runs of one seed must
   produce the same fingerprints. *)
let fingerprint o =
  let m = o.result.metrics in
  let b = Buffer.create 256 in
  Printf.bprintf b "%s/%s/%g offered=%d events=%d done=%d" o.pt.system o.pt.workload.name o.pt.load
    o.result.offered o.result.events (Metrics.total_completed m);
  for c = 0 to Metrics.class_count m - 1 do
    Printf.bprintf b " c%d:%d:%.0f:%.0f" c (Metrics.completed m ~class_idx:c)
      (Metrics.sojourn_percentile m ~class_idx:c 50.0)
      (Metrics.sojourn_percentile m ~class_idx:c 99.0)
  done;
  Buffer.contents b

let completed o = Metrics.total_completed o.result.metrics

(* Arrival conservation: with the counters registry threaded through,
   every arrival the generator produced reached the dispatcher and every
   one completed (the run drains; the grid's systems never shed). *)
let check_conservation ~seed pt =
  let reg = Tq_obs.Counters.create () in
  let r =
    Experiment.run ~seed ~obs:(Tq_obs.Obs.of_counters reg) ~system:pt.spec ~workload:pt.workload
      ~rate_rps:pt.rate_rps ~duration_ns:pt.duration_ns ()
  in
  let arrivals = Tq_obs.Counters.find_count reg "dispatch.arrivals"
  and completions = Tq_obs.Counters.find_count reg "worker.completions" in
  if arrivals <> r.offered || completions <> r.offered then
    failwith
      (Printf.sprintf "self-check failed: %s/%s offered %d, arrivals %d, completions %d" pt.system
         pt.workload.name r.offered arrivals completions)

let pass ~seed points = List.map (run_point ~seed) points

(* The simulator mirror of a live workload: its mix as a service
   distribution whose per-class service times are the costs the App
   replay measured, on every system of the grid at load 0.5. *)
let mirror ~(mix : Tq_serve.Load_gen.mix) ~app_costs ~heavy_ns =
  let cost k = Service_dist.Fixed (max 1 (int_of_float (List.assoc k app_costs))) in
  let set = mix.kv_set_fraction in
  let classes =
    [
      ("echo", mix.echo, cost "app.echo_ns");
      ("heavy_echo", mix.echo_heavy, Service_dist.Fixed (max 1 (int_of_float (Option.value heavy_ns ~default:1.0))));
      ("kv_get", mix.kv *. (1.0 -. set), cost "app.kv_get_ns");
      ("kv_set", mix.kv *. set, cost "app.kv_set_ns");
      ("tpcc", mix.tpcc, cost "app.tpcc_ns");
    ]
    |> List.filter (fun (_, r, _) -> r > 0.0)
  in
  let total = List.fold_left (fun acc (_, r, _) -> acc +. r) 0.0 classes in
  let workload =
    Service_dist.make ~name:"live-mirror"
      (List.map
         (fun (class_name, r, sampler) -> { Service_dist.class_name; ratio = r /. total; sampler })
         classes)
  in
  let load = 0.5 in
  let rate = load *. float_of_int cores *. 1e9 /. Service_dist.mean_service_ns workload in
  let duration_ns = int_of_float (50_000.0 /. rate *. 1e9) in
  List.map (fun (system, _) -> point ~system ~workload ~load ~duration_ns) systems

let engine_metrics outcomes =
  let sum f l = List.fold_left (fun acc o -> acc + f o) 0 l in
  let events = sum (fun o -> o.result.events) outcomes and wall = sum (fun o -> o.wall_ns) outcomes in
  [
    Metric.v "engine.events" "count" (float_of_int events);
    Metric.v "engine.ns_per_event" "ns" (float_of_int wall /. float_of_int events) ~samples:events;
    Metric.v "engine.wall_s" "s" (float_of_int wall /. 1e9);
  ]
  @ List.map
      (fun (system, _) ->
        let mine = List.filter (fun o -> o.pt.system = system) outcomes in
        let ev = sum (fun o -> o.result.events) mine in
        Metric.v
          (Printf.sprintf "sched.%s_ns_per_event" system)
          "ns"
          (float_of_int (sum (fun o -> o.wall_ns) mine) /. float_of_int ev)
          ~samples:ev)
      systems
