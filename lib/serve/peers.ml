(* The connection layer of `sufdec serve` and the fleet router; see the
   interface. One thread owns the table, so nothing here is locked. *)

type 'a peer = {
  id : int;
  role : 'a;
  conn : Lineconn.t;
  mutable reading : bool;
  mutable owed : int;
}

type 'a t = {
  poll : Poll.t;
  peers : (int, 'a peer) Hashtbl.t;
  by_fd : (Unix.file_descr, int) Hashtbl.t;
  handlers : (Unix.file_descr, unit -> unit) Hashtbl.t;  (* on readable *)
  mutable listeners : (Unix.file_descr * string) list;
  mutable next_id : int;
}

let create () =
  (* A peer gone mid-write costs its connection (EPIPE), not the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  {
    poll = Poll.create ();
    peers = Hashtbl.create 64;
    by_fd = Hashtbl.create 64;
    handlers = Hashtbl.create 4;
    listeners = [];
    next_id = 0;
  }

let fds conn = [ Lineconn.fd conn; Lineconn.write_fd conn ]

let add t role conn =
  t.next_id <- t.next_id + 1;
  let p = { id = t.next_id; role; conn; reading = true; owed = 0 } in
  Hashtbl.replace t.peers p.id p;
  List.iter (fun fd -> Hashtbl.replace t.by_fd fd p.id) (fds conn)

let rec accept t fd role =
  match Unix.accept ~cloexec:true fd with
  | cfd, _ ->
    add t role (Lineconn.create cfd);
    accept t fd role
  | exception Unix.Unix_error _ -> ()  (* EAGAIN: the backlog is drained *)

let listen t ~path role =
  (try Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 128;
  Unix.set_nonblock fd;
  t.listeners <- (fd, path) :: t.listeners;
  Hashtbl.replace t.handlers fd (fun () -> accept t fd role)

let watch t fd f = Hashtbl.replace t.handlers fd f

let stop_accepting t =
  List.iter
    (fun (fd, _) ->
      Hashtbl.remove t.handlers fd;
      Poll.remove t.poll fd)
    t.listeners

let find t id = Hashtbl.find_opt t.peers id

let live t p = Hashtbl.mem t.peers p.id

let drop t conn =
  (match Option.bind (Hashtbl.find_opt t.by_fd (Lineconn.fd conn)) (find t) with
  | Some p when p.conn == conn ->
    Hashtbl.remove t.peers p.id;
    List.iter
      (fun fd ->
        Hashtbl.remove t.by_fd fd;
        Poll.remove t.poll fd)
      (fds conn)
  | _ -> ());
  Lineconn.close conn

let reply t id r =
  Option.iter
    (fun p -> Lineconn.enqueue p.conn (Protocol.reply_to_line r))
    (find t id)

let iter t f = List.iter f (Hashtbl.fold (fun _ p acc -> p :: acc) t.peers [])

let count t f = Hashtbl.fold (fun _ p n -> if f p then n + 1 else n) t.peers 0

let set_interest t =
  Hashtbl.iter
    (fun _ p ->
      let rfd = Lineconn.fd p.conn and wfd = Lineconn.write_fd p.conn in
      let w = Lineconn.wants_write p.conn in
      if rfd = wfd then Poll.set t.poll rfd ~read:p.reading ~write:w
      else begin
        Poll.set t.poll rfd ~read:p.reading ~write:false;
        Poll.set t.poll wfd ~read:false ~write:w
      end)
    t.peers;
  Hashtbl.iter
    (fun fd _ -> Poll.set t.poll fd ~read:true ~write:false)
    t.handlers

let overlong =
  Printf.sprintf "request line exceeds %d MiB" (Lineconn.max_line_bytes lsr 20)

let read t p ~on_lines ~on_end =
  match Lineconn.on_readable p.conn with
  | `Nothing -> ()
  | `Lines ls -> on_lines p ls
  | `Closed ->
    p.reading <- false;
    on_end p `Eof
  | `Overlong ls ->
    on_lines p ls;
    p.reading <- false;
    reply t p.id (Protocol.Error ("", overlong));
    on_end p `Overlong

let step t ~timeout_s ~on_lines ~on_end =
  set_interest t;
  List.iter
    (fun (r : Poll.ready) ->
      let fd = r.Poll.r_fd in
      match Hashtbl.find_opt t.handlers fd with
      | Some f -> f ()
      | None -> (
        match Option.bind (Hashtbl.find_opt t.by_fd fd) (find t) with
        | Some p when r.Poll.r_readable && p.reading ->
          read t p ~on_lines ~on_end
        | _ -> ()))
    (Poll.wait t.poll ~timeout_s);
  (* Write what the sockets take — replies queued this round included,
     rather than one poll interval later — then close the peers that are
     done. *)
  iter t (fun p ->
      if live t p && Lineconn.on_writable p.conn = `Closed then begin
        on_end p `Broken;
        drop t p.conn
      end;
      if
        live t p && (not p.reading) && p.owed <= 0
        && not (Lineconn.wants_write p.conn)
      then drop t p.conn)

let flush_bounded t seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop () =
    let waiting = ref [] in
    iter t (fun p ->
        if Lineconn.on_writable p.conn = `Closed then drop t p.conn
        else if Lineconn.wants_write p.conn then
          waiting := Lineconn.write_fd p.conn :: !waiting);
    let left = deadline -. Unix.gettimeofday () in
    if !waiting <> [] && left > 0. then begin
      (try ignore (Unix.select [] !waiting [] left)
       with Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let close t =
  iter t (fun p -> drop t p.conn);
  stop_accepting t;
  List.iter
    (fun (fd, path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    t.listeners;
  t.listeners <- []
