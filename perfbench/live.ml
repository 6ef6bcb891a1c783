(* One live phase: start tq_serve, drive a workload's plan at it, check
   every accounting identity, stop it, and summarise its measurement
   window. *)

module P = Tq_serve.Protocol
module Json = Tq_util.Json

(* One request of every class: set-up ends when each has an [Ok]. *)
let probes =
  [
    P.Echo { spin_ns = 1_000; payload = "setup" };
    P.Kv_get { key = Tq_serve.App.kv_key 0 };
    (* writes the value the key was prepopulated with: state unchanged *)
    P.Kv_set { key = Tq_serve.App.kv_key 1; value = "value000001" };
    P.Tpcc { kind = Tq_tpcc.Transactions.Payment };
  ]

(* [start] spawns the server and returns it with its set-up time: from
   the spawn until the first [Ok] reply for every request class. *)
let start ~exe ~args =
  let t0 = Mono.now_ns () in
  let srv = Serve_proc.spawn ~exe ~args in
  let c = Serve_proc.connect srv.port in
  Fun.protect
    ~finally:(fun () -> Serve_proc.close c)
    (fun () ->
      List.iteri (fun i r -> Serve_proc.send c ~req_id:i r) probes;
      List.iter
        (fun _ ->
          let r = Serve_proc.recv c in
          if r.P.status <> P.Ok then failwith ("set-up probe refused: " ^ r.P.body))
        probes);
  (srv, Mono.seconds_since t0)

(* The measurement window is cut into equal sub-windows of at least
   0.5 s and at least 1,500 expected requests each, so every sub-window
   has about 15 samples beyond its p99. *)
let sub_windows (live : Workload.live) =
  max 1 (int_of_float (live.measure_s /. Float.max 0.5 (1500.0 /. live.rate_rps)))

(* What the measurement window saw.  Latency percentiles are read per
   sub-window; see [Pct.across]. *)
type window = {
  lat : Pct.t;  (** Ok replies to measured requests, due -> reply, ns *)
  lat_w : Pct.t array;  (** [lat] per sub-window *)
  short_w : Pct.t array;  (** the same without heavy requests *)
  late_w : Pct.t array;  (** measured sends per sub-window: send - due, ns *)
  steal_w : int array;  (** host steal ticks per sub-window *)
  sent : int;
  ok : int;
  failed : int;  (** shed + error + unanswered *)
  cpu_s : float;  (** server CPU time over the window *)
}

(* [quiet w ws] — the entries of [ws] (one per sub-window of [w]) whose
   sub-window saw at most the lower quartile of the sub-windows' host
   steal time: the CPU time the hypervisor gave to other guests while
   this host had work.  The choice rests on that measurement alone,
   never on the latencies, so a stall of the server is as frequent in
   the chosen sub-windows as in all of them. *)
let quiet w ws =
  let sorted = Array.copy w.steal_w in
  Array.sort compare sorted;
  let cut = sorted.(max 0 (int_of_float (ceil (0.25 *. float_of_int (Array.length sorted))) - 1)) in
  Array.of_list (List.filteri (fun j _ -> w.steal_w.(j) <= cut) (Array.to_list ws))

type phase = {
  window : window;
  setup_s : float list;
  rss_mib : float;  (** server peak RSS at the end of the window *)
  snapshot : Json.t;  (** final Stats snapshot *)
  breakdown : Json.t option;  (** traced phases only *)
  all_ok : Pct.t;  (** every Ok reply of the phase, warm-up included *)
  late_mean_ns : float;  (** over every send of the phase *)
  drv : Open_loop.result;
  requests : int;
}

(* [field j path] — the number at [path] in a Stats body. *)
let field j path =
  let rec go j = function
    | [] -> j
    | k :: rest -> (
        match Json.member k j with Some v -> go v rest | None -> failwith ("stats: no field " ^ String.concat "." path))
  in
  match Json.number_opt (go j path) with
  | Some f -> f
  | None -> failwith ("stats: not a number: " ^ String.concat "." path)

let check cond msg = if not cond then failwith ("self-check failed: " ^ msg)

(* [run] executes [live]'s plan on a fresh server.  [setups] servers are
   started (all but the last stopped again) so set-up time is a median;
   [traced] turns on the server's spans and the client's codec timing. *)
let run ~exe ~workers ~conns ~seed ~(live : Workload.live) ~setups ~traced =
  let plan = Workload.plan ~seed live in
  let n = Array.length plan.due_ns in
  let args =
    [ "--cores"; string_of_int workers; "--lanes"; "1"; "--quantum-us"; string_of_int live.quantum_us ]
    @ if traced then [ "--obs"; "--obs-capacity"; string_of_int ((4 * n) + 65_536) ] else []
  in
  let setup_s = ref [] in
  let rec boot k =
    let srv, s = start ~exe ~args in
    setup_s := s :: !setup_s;
    if k > 1 then begin
      ignore (Serve_proc.stop srv);
      boot (k - 1)
    end
    else srv
  in
  let srv = boot setups in
  let k = sub_windows live in
  let m0, m1 = plan.window in
  (* marks: the sub-window boundaries *)
  let marks = Array.init (k + 1) (fun j -> m0 + ((m1 - m0) * j / k)) in
  let cpu_at = Array.make (k + 1) 0.0 and steal_at = Array.make (k + 1) 0 in
  let rss_mib = ref 0.0 in
  let drv =
    Open_loop.run ~port:srv.port ~conns ~plan ~grace_s:3.0 ~timed:traced ~marks ~on_mark:(fun i ->
        cpu_at.(i) <- Serve_proc.cpu_s srv;
        steal_at.(i) <- Serve_proc.host_steal_ticks ();
        if i = k then rss_mib := Serve_proc.peak_rss_mib (string_of_int srv.pid))
  in
  List.iter (fun m -> failwith ("self-check failed: " ^ m)) drv.mismatched;
  (* the final snapshot: every sent request is answered or counted *)
  let snapshot = Serve_proc.stats srv P.Stats_json in
  let breakdown = if traced then Some (Serve_proc.stats srv P.Stats_breakdown) else None in
  let drained = Serve_proc.stop srv in
  check
    (List.exists (String.starts_with ~prefix:"tq_serve: drained") drained)
    "tq_serve did not report a drain";
  let count code = Array.fold_left (fun acc s -> if s = code then acc + 1 else acc) 0 drv.status in
  let sent = Array.fold_left (fun acc t -> if t >= 0 then acc + 1 else acc) 0 drv.sent_ns in
  let ok = count Open_loop.ok and shed = count Open_loop.shed and errors = count Open_loop.error in
  (* client ledger *)
  check (sent = n) (Printf.sprintf "client sent %d of %d planned requests" sent n);
  check
    (sent = ok + shed + errors + drv.unanswered)
    (Printf.sprintf "client ledger: sent %d <> ok %d + shed %d + errors %d + unanswered %d" sent ok shed
       errors drv.unanswered);
  (* server identities, and server against client *)
  let s path = int_of_float (field snapshot path) in
  let parsed = s [ "parsed" ] and dispatched = s [ "dispatched" ] and sshed = s [ "shed" ] in
  check (parsed = dispatched + sshed)
    (Printf.sprintf "parsed %d <> dispatched %d + shed %d" parsed dispatched sshed);
  check
    (dispatched = s [ "completed" ] + s [ "lost" ] + s [ "dropped" ] + s [ "in_flight" ])
    "accepted <> completed + lost + dropped + in_flight";
  let nprobes = List.length probes in
  check (parsed = sent + nprobes)
    (Printf.sprintf "server parsed %d, client sent %d + %d probes" parsed sent nprobes);
  check (sshed = shed) (Printf.sprintf "server shed %d, client saw %d" sshed shed);
  if drv.unanswered = 0 then
    check
      (s [ "completed" ] = ok + errors + nprobes)
      (Printf.sprintf "server completed %d, client got %d ok + %d errors + %d probes"
         (s [ "completed" ]) ok errors nprobes);
  let lat = Array.make k [] and short = Array.make k [] and late = Array.make k [] in
  let sent = ref 0 and ok = ref 0 in
  Array.iteri
    (fun i due ->
      if plan.measured.(i) then begin
        incr sent;
        let w = min (k - 1) ((due - m0) * k / (m1 - m0)) in
        let due = drv.t0 + due in
        late.(w) <- (drv.sent_ns.(i) - due) :: late.(w);
        if drv.status.(i) = Open_loop.ok then begin
          incr ok;
          let l = drv.recv_ns.(i) - due in
          lat.(w) <- l :: lat.(w);
          if not plan.reqs.(i).heavy then short.(w) <- l :: short.(w)
        end
      end)
    plan.due_ns;
  let pct l = Pct.of_samples (Array.of_list l) in
  let window =
    {
      lat = pct (List.concat (Array.to_list lat));
      lat_w = Array.map pct lat;
      short_w = Array.map pct short;
      late_w = Array.map pct late;
      steal_w = Array.init k (fun j -> steal_at.(j + 1) - steal_at.(j));
      sent = !sent;
      ok = !ok;
      failed = !sent - !ok;
      cpu_s = cpu_at.(k) -. cpu_at.(0);
    }
  in
  let all_ok = ref [] and late_sum = ref 0 in
  Array.iteri
    (fun i due ->
      let due = drv.t0 + due in
      late_sum := !late_sum + (drv.sent_ns.(i) - due);
      if drv.status.(i) = Open_loop.ok then all_ok := (drv.recv_ns.(i) - due) :: !all_ok)
    plan.due_ns;
  {
    window;
    setup_s = List.rev !setup_s;
    rss_mib = !rss_mib;
    snapshot;
    breakdown;
    all_ok = Pct.of_samples (Array.of_list !all_ok);
    late_mean_ns = float_of_int !late_sum /. float_of_int (max 1 n);
    drv;
    requests = n;
  }
