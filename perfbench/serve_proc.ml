(* tq_serve as a child process: spawn, talk to over its Stats RPC, read
   its CPU time and peak RSS from /proc, stop with SIGTERM.

   The server runs in its own process so that the load generator's
   allocation never joins the server domains' stop-the-world minor
   collections. *)

module P = Tq_serve.Protocol

type t = {
  pid : int;
  port : int;
  out : in_channel;  (** the server's stdout *)
  mutable exited : bool;
}

let live : t list ref = ref []

(* Stop every server still running; registered with [at_exit] so a
   failed self-check never leaves a child behind. *)
let kill_all () =
  List.iter
    (fun t ->
      if not t.exited then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
        t.exited <- true
      end)
    !live

(* SIGTERM or SIGINT exits through [at_exit] too, so the servers go
   with the benchmark. *)
let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

let spawn ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process exe argv devnull w Unix.stderr in
  Unix.close w;
  Unix.close devnull;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line "tq_serve: listening on %_[^:]:%d" (fun p -> p) with
  | Some port ->
      let t = { pid; port; out; exited = false } in
      live := t :: !live;
      t
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr out;
      failwith ("tq_serve did not start listening: " ^ line)

(* {2 A blocking RPC connection} *)

type conn = { fd : Unix.file_descr; rb : P.Reassembly.t; buf : Buffer.t; chunk : bytes }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; rb = P.Reassembly.create (); buf = Buffer.create 256; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c ~req_id req =
  Buffer.clear c.buf;
  P.encode_request c.buf ~req_id req;
  let s = Buffer.to_bytes c.buf in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

let rec recv c =
  match P.Reassembly.next c.rb with
  | Error e -> failwith ("stats connection: " ^ e)
  | Ok (Some payload) -> (
      match P.decode_response payload with
      | Ok r -> r
      | Error e -> failwith ("stats connection: " ^ e))
  | Ok None ->
      let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
      if n = 0 then raise End_of_file;
      P.Reassembly.add c.rb c.chunk n;
      recv c

let stats t view =
  let c = connect t.port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      send c ~req_id:0 (P.Stats { view });
      let r = recv c in
      match r.status with
      | P.Ok -> (
          match Tq_util.Json.of_string r.body with
          | Ok j -> j
          | Error e -> failwith ("stats body is not JSON: " ^ e))
      | _ -> failwith ("stats RPC refused: " ^ r.body))

(* {2 /proc} *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* utime + stime in seconds of the process or thread whose stat file is
   [path].  /proc reports clock ticks at USER_HZ, which Linux fixes at
   100 for every architecture. *)
let stat_cpu_s path =
  let s = read_file path in
  let close = String.rindex s ')' in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s (close + 2) (String.length s - close - 2))) in
  (* fields from "state" (field 3) on: utime is field 14, stime 15 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let cpu_s t = stat_cpu_s (Printf.sprintf "/proc/%d/stat" t.pid)

(* CPU time the hypervisor gave to other guests while this host's CPUs
   had work, in ticks summed over CPUs: the "steal" column of the first
   line of /proc/stat. *)
let host_steal_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: _user :: _nice :: _system :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
      int_of_string steal
  | _ -> failwith "/proc/stat: unexpected cpu line"

let peak_rss_mib proc =
  let s = read_file ("/proc/" ^ proc ^ "/status") in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* {2 Stopping} *)

(* SIGTERM starts the server's graceful drain; it exits 0 only when
   every admitted request was answered.  Returns its last stdout lines. *)
let stop t =
  if t.exited then invalid_arg "Serve_proc.stop: already stopped";
  Unix.kill t.pid Sys.sigterm;
  let lines = ref [] in
  (try
     while true do
       lines := input_line t.out :: !lines
     done
   with End_of_file -> ());
  let _, status = Unix.waitpid [] t.pid in
  t.exited <- true;
  close_in_noerr t.out;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "tq_serve exited with code %d after drain" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> failwith (Printf.sprintf "tq_serve killed by signal %d" n));
  List.rev !lines
