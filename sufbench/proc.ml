(* One `sufdec serve --workers 1` process on a private Unix socket, and the
   single client connection that drives it. *)

module P = Sepsat_serve.Protocol
module Clock = Sepsat_obs.Clock

let now = Clock.mono_now

let run_dir = ".bench_run"

type t = {
  pid : int;
  sock : string;
  ic : in_channel;
  oc : out_channel;
  setup_s : float;  (** spawn until the first pong *)
  mutable lost : bool;  (** the server closed the connection mid-run *)
}

exception Lost

(* Every server this process started and has not yet reaped, so an abort
   never leaves one running on the next run's cores. *)
let live : (int * string) list ref = ref []

let count = ref 0

let kill_all () =
  List.iter
    (fun (pid, sock) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    !live;
  live := []

let send t req =
  output_string t.oc (P.request_to_line req);
  output_char t.oc '\n';
  flush t.oc

let recv t =
  match P.reply_of_line (input_line t.ic) with
  | Ok r -> r
  | Error e -> failwith ("bad reply: " ^ e)

let start ~sufdec =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  incr count;
  let sock = Printf.sprintf "%s/s%d.%d" run_dir (Unix.getpid ()) !count in
  if Sys.file_exists sock then Sys.remove sock;
  let t0 = now () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process sufdec
      [| sufdec; "serve"; "--socket"; sock; "--workers"; "1" |]
      null null Unix.stderr
  in
  Unix.close null;
  live := (pid, sock) :: !live;
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun (p, _) -> p <> pid) !live;
        failwith "sufdec serve exited before listening");
      if now () -. t0 > 30. then failwith "sufdec serve did not listen";
      Unix.sleepf 0.0002;
      connect ()
  in
  let fd = connect () in
  let t =
    { pid; sock; ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd; setup_s = 0.; lost = false }
  in
  send t (P.Ping "setup");
  (match recv t with
  | P.Pong _ -> ()
  | _ -> failwith "expected pong");
  { t with setup_s = now () -. t0 }

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
          kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let forget t = live := List.filter (fun (p, _) -> p <> t.pid) !live

(* A server that was lost is killed and reaped and its socket removed. *)
let discard t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  forget t;
  close_in_noerr t.ic;
  if Sys.file_exists t.sock then Sys.remove t.sock

(* Reads the server's peak RSS, shuts it down, reaps it and checks that it
   removed its socket. A lost server is discarded and has no peak RSS. *)
let stop t =
  if t.lost then begin
    discard t;
    nan
  end
  else begin
    let rss = vm_hwm_mb t.pid in
    send t (P.Shutdown "bye");
    let rec drain () =
      match recv t with
      | P.Bye _ -> ()
      | _ -> drain ()
      | exception End_of_file -> ()
    in
    drain ();
    close_in_noerr t.ic;
    let deadline = now () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
      | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid);
        failwith "sufdec serve ignored shutdown"
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> failwith "sufdec serve exited abnormally"
    in
    Fun.protect ~finally:(fun () -> forget t) reap;
    if Sys.file_exists t.sock then begin
      Sys.remove t.sock;
      failwith "sufdec serve left its socket behind"
    end;
    rss
  end

(* What the client saw of one solve request. *)
type sample = {
  mutable due : float;  (** when the request was due to be sent *)
  mutable sent : float;
  mutable got : float;  (** reply arrival; [nan] until one comes *)
  mutable reply : P.reply option;
}

let solve_req ~traced idx text =
  let id = string_of_int idx in
  P.Solve
    {
      P.sq_id = id;
      sq_lang = P.Suf;
      sq_text = text;
      sq_method = Sepsat.Decide.Hybrid_at 700;
      sq_timeout_s = Some 30.;
      sq_trace =
        (if traced then Some { P.tc_rid = "bench-" ^ id; tc_path = [] }
         else None);
    }

let samples n =
  Array.init n (fun _ -> { due = nan; sent = nan; got = nan; reply = None })

(* Every request gets exactly one reply (a blown budget answers unknown),
   so blocking reads terminate. A server that closes the connection is
   marked lost; the requests it did not answer stay without a reply. *)
let take_reply t samples =
  match recv t with
  | r ->
    let s = samples.(int_of_string (P.reply_id r)) in
    s.got <- now ();
    s.reply <- Some r
  | exception End_of_file ->
    t.lost <- true;
    Printf.printf "server %d closed the connection\n%!" t.pid;
    raise Lost

(* Closed loop on one connection, one request outstanding: each request is
   due when the previous reply arrived. *)
let closed_loop ?(traced = false) t texts =
  let ss = samples (Array.length texts) in
  let due = ref (now ()) in
  (try
     Array.iteri
       (fun i s ->
         s.due <- !due;
         s.sent <- now ();
         send t (solve_req ~traced i texts.(i));
         take_reply t ss;
         due := s.got)
       ss
   with
   | Lost -> ()
   | Sys_error _ -> t.lost <- true);
  ss

(* Open loop: a sender thread emits request [i] at [due.(i)] whatever the
   replies, while this thread collects them. Also returns the backlog (sent
   minus answered) when the last request went out. *)
let open_loop ?(traced = false) t texts ~due =
  let n = Array.length texts in
  let ss = samples n in
  Array.iteri (fun i d -> ss.(i).due <- d) due;
  let received = Atomic.make 0 in
  let backlog = ref 0 in
  let sender () =
    Array.iteri
      (fun i s ->
        let wait = s.due -. now () in
        if wait > 0. then Unix.sleepf wait;
        s.sent <- now ();
        if not t.lost then
          try send t (solve_req ~traced i texts.(i)) with Sys_error _ -> ())
      ss;
    backlog := n - Atomic.get received
  in
  let th = Thread.create sender () in
  (try
     for _ = 1 to n do
       take_reply t ss;
       Atomic.incr received
     done
   with Lost -> ());
  Thread.join th;
  (ss, !backlog)
