(* Per-layer replays: time calls into each layer's public functions on
   the workload's own generated inputs, in this process, with no server
   running.  Each cost is the median of several repetitions. *)

module P = Tq_serve.Protocol
module R = Tq_runtime

let reps = 5

(* [per_op ~ops f] — median over [reps] runs of [f ()] (which performs
   [ops] operations) of the ns per operation. *)
let per_op ~ops f =
  Pct.median
    (List.init reps (fun _ ->
         let t0 = Mono.now_ns () in
         f ();
         float_of_int (Mono.now_ns () - t0) /. float_of_int ops))

let payload_of_frame b = Bytes.sub b 4 (Bytes.length b - 4)

let frame req_id req =
  let b = Buffer.create 64 in
  P.encode_request b ~req_id req;
  Buffer.to_bytes b

(* {2 Tq_serve.Protocol and Pool} *)

let protocol (reqs : P.request array) (responses : P.response array) =
  let frames = Array.mapi frame reqs in
  let payloads = Array.map payload_of_frame frames in
  let n = Array.length reqs in
  let decode_request_ns =
    per_op ~ops:n (fun () ->
        Array.iter (fun p -> match P.decode_request p with Ok _ -> () | Error e -> failwith e) payloads)
  in
  let out = Bytes.create 4096 in
  let encode_response_ns =
    per_op ~ops:n (fun () -> Array.iter (fun r -> ignore (P.encode_response_into out ~off:0 r : int)) responses)
  in
  (* the stream as a lane reads it: frames back to back, 64 KiB reads *)
  let stream = Bytes.concat Bytes.empty (Array.to_list frames) in
  let chunk = 65536 in
  let reassembly_ns =
    per_op ~ops:n (fun () ->
        let rb = P.Reassembly.create () in
        let got = ref 0 in
        let off = ref 0 in
        while !off < Bytes.length stream do
          let len = min chunk (Bytes.length stream - !off) in
          P.Reassembly.add rb (Bytes.sub stream !off len) len;
          off := !off + len;
          let rec drain () =
            match P.Reassembly.next rb with
            | Ok (Some _) -> incr got; drain ()
            | Ok None -> ()
            | Error e -> failwith e
          in
          drain ()
        done;
        if !got <> n then failwith "reassembly lost frames")
  in
  let pool = Tq_serve.Pool.create ~buf_bytes:4096 () in
  let lens = Array.map P.response_frame_len responses in
  let pool_ns =
    per_op ~ops:n (fun () ->
        Array.iter (fun len -> Tq_serve.Pool.release pool (Tq_serve.Pool.acquire pool ~len)) lens)
  in
  [
    Metric.v "protocol.decode_request_ns" "ns" decode_request_ns ~samples:n;
    Metric.v "protocol.encode_response_ns" "ns" encode_response_ns ~samples:n;
    Metric.v "protocol.reassembly_ns" "ns" reassembly_ns ~samples:n;
    Metric.v "pool.acquire_release_ns" "ns" pool_ns ~samples:n;
  ]

(* {2 Tq_serve.App} *)

(* Executes every input once outside any fiber (probes are no-ops) and
   returns the responses and the mean ns per class.  Heavy echoes are
   left out of [app.echo_ns]: it is the short echo's cost. *)
let app (inputs : Workload.req array) =
  let a = Tq_serve.App.create ~seed:7L () in
  let sums = Hashtbl.create 8 in
  let responses =
    Array.mapi
      (fun i (r : Workload.req) ->
        let t0 = Mono.now_ns () in
        let resp = Tq_serve.App.execute a ~now_ns:t0 ~req_id:i r.request in
        let dt = Mono.now_ns () - t0 in
        let cls =
          match r.request with
          | P.Echo _ when r.heavy -> "app.heavy_echo_ns"
          | P.Echo _ -> "app.echo_ns"
          | P.Kv_get _ -> "app.kv_get_ns"
          | P.Kv_set _ -> "app.kv_set_ns"
          | P.Tpcc _ -> "app.tpcc_ns"
          | P.Stats _ -> "app.stats_ns"
        in
        let s, c = Option.value (Hashtbl.find_opt sums cls) ~default:(0, 0) in
        Hashtbl.replace sums cls (s + dt, c + 1);
        resp)
      inputs
  in
  let mean cls =
    match Hashtbl.find_opt sums cls with
    | Some (s, c) when c > 0 -> (float_of_int s /. float_of_int c, c)
    | _ -> failwith ("the workload's inputs hold no " ^ cls ^ " request")
  in
  ( responses,
    List.map (fun k -> (k, mean k)) [ "app.echo_ns"; "app.kv_get_ns"; "app.kv_set_ns"; "app.tpcc_ns" ],
    if Hashtbl.mem sums "app.heavy_echo_ns" then Some (fst (mean "app.heavy_echo_ns")) else None )

(* {2 Tq_runtime.Fiber and Probe_api} *)

let fiber_and_probe () =
  let n = 200_000 in
  let yield_resume_ns =
    per_op ~ops:n (fun () ->
        let f =
          R.Fiber.create (fun () ->
              for _ = 1 to n do
                R.Fiber.yield ()
              done)
        in
        while R.Fiber.resume f = R.Fiber.Yielded do
          ()
        done)
  in
  (* a probe on a worker whose quantum has not expired: the common case *)
  let ctx = R.Probe_api.create ~clock:(R.Clock.wall ()) ~quantum_ns:3_600_000_000_000 in
  R.Probe_api.install ctx;
  R.Probe_api.start_quantum ctx;
  let probe_ns =
    per_op ~ops:n (fun () ->
        for _ = 1 to n do
          R.Probe_api.probe ()
        done)
  in
  R.Probe_api.uninstall ();
  [
    Metric.v "fiber.yield_resume_ns" "ns" yield_resume_ns ~samples:n;
    Metric.v "probe.ns" "ns" probe_ns ~samples:n;
  ]

(* {2 Tq_runtime.Spsc_ring + Backoff across two domains} *)

let spin_until t = while Mono.now_ns () < t do Domain.cpu_relax () done

(* One-way push -> pop latencies through an SPSC ring.  The producer
   pushes a timestamp, waits until it was consumed, then waits the next
   gap.  [parked] makes the consumer wait as an idle worker does
   (Backoff: spin, then sleep); otherwise it spins. *)
let ring_hops ~parked ~(gaps : int array) =
  let ring = R.Spsc_ring.create ~capacity:64 in
  let n = Array.length gaps in
  let lat = Array.make n 0 in
  let consumed = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let b = R.Backoff.create () in
        let i = ref 0 in
        while !i < n do
          match R.Spsc_ring.try_pop ring with
          | Some t ->
              lat.(!i) <- Mono.now_ns () - t;
              incr i;
              Atomic.set consumed !i;
              R.Backoff.reset b
          | None -> if parked then R.Backoff.once b else Domain.cpu_relax ()
        done)
  in
  Array.iteri
    (fun i gap ->
      spin_until (Mono.now_ns () + gap);
      ignore (R.Spsc_ring.try_push ring (Mono.now_ns ()) : bool);
      while Atomic.get consumed <= i do
        Domain.cpu_relax ()
      done)
    gaps;
  Domain.join consumer;
  Pct.of_samples lat

(* {2 Tq_runtime.Parallel} *)

(* Submit -> start latency of empty jobs on a one-worker pool, submitted
   at the workload's gaps, and the CPU the pool's threads spent per job
   (the worker's polling and parking included; the submitting thread,
   which busy-waits the gaps, is not counted). *)
let parallel ~quantum_ns ~(gaps : int array) =
  let n = Array.length gaps in
  let starts = Array.make n 0 in
  let submitted = Array.make n 0 in
  let tasks () = Array.to_list (Sys.readdir "/proc/self/task") in
  let before = tasks () in
  let pool = R.Parallel.create ~workers:1 ~quantum_ns () in
  let pool_threads = List.filter (fun t -> not (List.mem t before)) (tasks ()) in
  let cpu () =
    List.fold_left
      (fun acc tid -> acc +. Serve_proc.stat_cpu_s (Printf.sprintf "/proc/self/task/%s/stat" tid))
      0.0 pool_threads
  in
  let c0 = cpu () in
  Array.iteri
    (fun i gap ->
      spin_until (Mono.now_ns () + gap);
      submitted.(i) <- Mono.now_ns ();
      if not (R.Parallel.submit pool (fun ~wid:_ -> starts.(i) <- Mono.now_ns ())) then
        failwith "parallel: inject ring full")
    gaps;
  R.Parallel.drain pool;
  let c1 = cpu () in
  ignore (R.Parallel.shutdown pool : R.Parallel.stats);
  (Pct.of_samples (Array.init n (fun i -> starts.(i) - submitted.(i))), (c1 -. c0) /. float_of_int n)

(* The schedule's gaps, for the replays that run at the workload's
   pace: at most [max_n] of them and at most [budget_s] of schedule. *)
let gaps_of (plan : Workload.plan) ~max_n ~budget_s =
  let due = plan.due_ns in
  let budget = int_of_float (budget_s *. 1e9) in
  let gaps = ref [] and total = ref 0 and k = ref 1 in
  while !k < Array.length due && List.length !gaps < max_n && !total < budget do
    let g = due.(!k) - due.(!k - 1) in
    gaps := g :: !gaps;
    total := !total + g;
    incr k
  done;
  Array.of_list (List.rev !gaps)

(* [run] returns the per-class service costs measured on the inputs
   (what the simulator mirror is fed) and every replay metric. *)
let run ~(plan : Workload.plan) ~quantum_ns =
  let inputs = Array.sub plan.reqs 0 (min 20_000 (Array.length plan.reqs)) in
  let responses, app_costs, heavy_ns = app inputs in
  let proto = protocol (Array.map (fun (r : Workload.req) -> r.request) inputs) responses in
  let fp = fiber_and_probe () in
  let spin = ring_hops ~parked:false ~gaps:(Array.make 20_000 2_000) in
  let gaps = gaps_of plan ~max_n:3_000 ~budget_s:1.5 in
  let parked = ring_hops ~parked:true ~gaps in
  let start, cpu_per_job = parallel ~quantum_ns ~gaps in
  let us name p q = Metric.v name "us" (float_of_int (Pct.get p q) /. 1e3) ~samples:(Pct.count p) in
  ( List.map (fun (k, (v, _)) -> (k, v)) app_costs,
    heavy_ns,
    List.map (fun (k, (v, n)) -> Metric.v k "ns" v ~samples:n) app_costs
    @ proto @ fp
    @ [
        Metric.v "ring.hop_spin_ns" "ns" (float_of_int (Pct.get spin 50.0)) ~samples:(Pct.count spin);
        us "ring.hop_parked_p50_us" parked 50.0;
        us "ring.hop_parked_p99_us" parked 99.0;
        us "parallel.start_p50_us" start 50.0;
        us "parallel.start_p99_us" start 99.0;
        Metric.v "parallel.cpu_us_per_job" "us" (cpu_per_job *. 1e6) ~samples:(Pct.count start);
      ] )
