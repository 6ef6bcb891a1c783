(* The open-loop load generator: one thread, a few pipelined connections,
   Tq_serve.Protocol's codec and nothing else of the program.

   Requests are sent on the plan's Poisson schedule whether or not the
   server keeps up, and every latency is measured from the time the
   request was *due*, so a stall of the generator or of the server counts
   against every request it delays.  How late the generator itself ran is
   recorded per request so the run can be declared invalid when the
   generator, not the server, fell behind. *)

module P = Tq_serve.Protocol

(* Outcome codes in [result.status]. *)
let pending = 0
let ok = 1
let shed = 2
let error = 3

type result = {
  t0 : int;  (** absolute monotonic ns of schedule offset 0 *)
  sent_ns : int array;  (** absolute; -1 when never sent *)
  recv_ns : int array;  (** absolute; -1 when unanswered *)
  status : int array;
  mismatched : string list;  (** self-check failures: unmatched ids, bad bodies *)
  syscalls : int;
  encode_ns : int;  (** total, timed only with [~timed:true] *)
  decode_ns : int;
  decoded : int;
  unanswered : int;  (** the generator's own count of sends never answered *)
}

type conn = {
  fd : Unix.file_descr;
  rb : P.Reassembly.t;
  out : P.Outbuf.t;
  scratch : Buffer.t;
}

let connect port n =
  Array.init n (fun _ ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.set_nonblock fd;
      { fd; rb = P.Reassembly.create (); out = P.Outbuf.create (); scratch = Buffer.create 256 })

(* [run ~port ~conns ~plan ~grace_s ~timed ~marks ~on_mark] drives the
   whole plan.  [marks] are schedule offsets (ascending); [on_mark k] is
   called once the clock passes [marks.(k)], from the send loop. *)
let run ~port ~conns ~(plan : Workload.plan) ~grace_s ~timed ~marks ~on_mark =
  let n = Array.length plan.due_ns in
  let cs = connect port conns in
  let sent_ns = Array.make n (-1) and recv_ns = Array.make n (-1) in
  let status = Array.make n pending in
  let mismatched = ref [] in
  let fail msg = if List.length !mismatched < 10 then mismatched := msg :: !mismatched in
  let syscalls = ref 0 and encode_ns = ref 0 and decode_ns = ref 0 and decoded = ref 0 in
  let outstanding = ref 0 in
  let next_mark = ref 0 in
  let chunk = Bytes.create 65536 in
  let t0 = Mono.now_ns () + 1_000_000 in
  let next = ref 0 in
  let deadline = ref max_int in
  let handle payload now =
    let t_dec = if timed then Mono.now_ns () else 0 in
    let decoded_resp = P.decode_response payload in
    if timed then begin
      decode_ns := !decode_ns + (Mono.now_ns () - t_dec);
      incr decoded
    end;
    match decoded_resp with
    | Error e -> fail ("undecodable reply: " ^ e)
    | Ok r ->
        let id = r.P.req_id in
        if id < 0 || id >= n || sent_ns.(id) < 0 then fail (Printf.sprintf "reply to unsent id %d" id)
        else if status.(id) <> pending then fail (Printf.sprintf "second reply to id %d" id)
        else begin
          recv_ns.(id) <- now;
          decr outstanding;
          match r.P.status with
          | P.Ok ->
              if Workload.body_ok plan plan.reqs.(id).request r.P.body then status.(id) <- ok
              else begin
                status.(id) <- error;
                fail (Printf.sprintf "id %d: malformed body %S" id r.P.body)
              end
          | P.Shed -> status.(id) <- shed
          | P.Error _ -> status.(id) <- error
        end
  in
  let receive c =
    incr syscalls;
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> raise End_of_file
    | k ->
        let now = Mono.now_ns () in
        P.Reassembly.add c.rb chunk k;
        let rec frames () =
          match P.Reassembly.next c.rb with
          | Error e -> fail ("corrupt reply stream: " ^ e)
          | Ok None -> ()
          | Ok (Some payload) ->
              handle payload now;
              frames ()
        in
        frames ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let flush c =
    if not (P.Outbuf.is_empty c.out) then begin
      let buf, off, len = P.Outbuf.peek c.out in
      incr syscalls;
      match Unix.write c.fd buf off len with
      | k -> P.Outbuf.consume c.out k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    end
  in
  let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
  let by_fd fd = List.find (fun c -> c.fd = fd) (Array.to_list cs) in
  (try
     while !next < n || (!outstanding > 0 && Mono.now_ns () < !deadline) do
       let now = Mono.now_ns () in
       while !next_mark < Array.length marks && now >= t0 + marks.(!next_mark) do
         on_mark !next_mark;
         incr next_mark
       done;
       while !next < n && t0 + plan.due_ns.(!next) <= now do
         let id = !next in
         let c = cs.(id mod conns) in
         let t_enc = if timed then Mono.now_ns () else 0 in
         Buffer.clear c.scratch;
         P.encode_request c.scratch ~req_id:id plan.reqs.(id).request;
         P.Outbuf.add_buffer c.out c.scratch;
         if timed then encode_ns := !encode_ns + (Mono.now_ns () - t_enc);
         sent_ns.(id) <- now;
         incr outstanding;
         incr next
       done;
       Array.iter flush cs;
       if !next >= n && !deadline = max_int then deadline := now + int_of_float (grace_s *. 1e9);
       let wait_ns =
         if Array.exists (fun c -> not (P.Outbuf.is_empty c.out)) cs then 0
         else
           let until = if !next < n then t0 + plan.due_ns.(!next) else !deadline in
           let until =
             if !next_mark < Array.length marks then min until (t0 + marks.(!next_mark)) else until
           in
           max 0 (until - Mono.now_ns ())
       in
       incr syscalls;
       match Unix.select fds [] [] (float_of_int wait_ns /. 1e9) with
       | readable, _, _ -> List.iter (fun fd -> receive (by_fd fd)) readable
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with End_of_file -> fail "server closed a load connection");
  while !next_mark < Array.length marks do
    on_mark !next_mark;
    incr next_mark
  done;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  {
    t0;
    sent_ns;
    recv_ns;
    status;
    mismatched = List.rev !mismatched;
    syscalls = !syscalls;
    encode_ns = !encode_ns;
    decode_ns = !decode_ns;
    decoded = !decoded;
    unanswered = !outstanding;
  }
