module Obs = Sepsat_obs.Obs
module Prom = Sepsat_obs.Prom
module Clock = Sepsat_obs.Clock

let solved_of_outcome ?trace id (o : Engine.outcome) =
  Protocol.Ok_solve
    {
      Protocol.sv_id = id;
      sv_verdict = o.Engine.o_verdict;
      sv_origin = o.Engine.o_origin;
      sv_digest = o.Engine.o_digest;
      sv_witness = o.Engine.o_witness;
      sv_solve_ms = o.Engine.o_solve_ms;
      sv_time_ms = o.Engine.o_time_ms;
      sv_trace = trace;
    }

(* Reply-side trace for a request that arrived with a wire trace context:
   this process's recv/send clock anchors plus its local hop breakdown.
   The receiver (the fleet router) turns the anchors into the [wire] hop
   and splices these local hops into the six-hop fleet view. *)
let reply_trace_of (tc : Protocol.trace_ctx) ~recv_wall ~recv_mono
    (o : Engine.outcome) =
  let send_wall, send_mono = Clock.pair () in
  {
    Protocol.rt_rid = tc.Protocol.tc_rid;
    rt_served_by =
      Option.value (Prom.const_label "backend") ~default:"";
    rt_hops =
      [
        ("shard.queue", o.Engine.o_queue_ms); ("shard.solve", o.Engine.o_time_ms);
      ];
    rt_recv_wall = recv_wall;
    rt_recv_mono = recv_mono;
    rt_send_wall = send_wall;
    rt_send_mono = send_mono;
  }

let job_of (rq : Protocol.solve_req) =
  (* A wire trace context wins over local minting: the job adopts the
     fleet rid and hop path so everything recorded while serving it
     answers to the fleet-wide id. *)
  let rid, path =
    match rq.Protocol.sq_trace with
    | Some tc -> (Some tc.Protocol.tc_rid, tc.Protocol.tc_path)
    | None -> (None, [])
  in
  Engine.job ~lang:rq.Protocol.sq_lang ~method_:rq.Protocol.sq_method
    ?timeout_s:rq.Protocol.sq_timeout_s ~id:rq.Protocol.sq_id ?rid ~path
    rq.Protocol.sq_text

(* A minimal HTTP/1.0 responder so a stock Prometheus (or curl
   --unix-socket) can scrape without speaking the JSON-lines protocol: one
   response per connection, answered as soon as the request line is in. *)
let http_response status content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s; charset=utf-8\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let scrape_response request_line =
  match String.split_on_char ' ' (String.trim request_line) with
  | "GET" :: target :: _ when target = "/metrics" || target = "/" ->
    http_response "200 OK" Prom.content_type (Prom.current ())
  | _ -> http_response "404 Not Found" "text/plain" "not found\n"

type role = Client | Scrape

type io = Listen of string | Stdio of Unix.file_descr * Unix.file_descr

(* The serving loop. One thread owns every connection; the engine's worker
   domains never touch one. A worker queues its finished reply on [done_q]
   and, under the same lock, writes a byte down the wake pipe the loop
   polls with everything else. The loop drains the pipe before it takes
   the queue, so no reply waits on a wake-up it already consumed; and once
   every owed reply is taken no worker will touch the pipe again, so it
   can be closed. *)
let run ~metrics_path eng io =
  let peers = Peers.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let done_mu = Mutex.create () and done_q = ref [] in
  let complete peer finish =
    Mutex.protect done_mu (fun () ->
        done_q := (peer, finish) :: !done_q;
        try ignore (Unix.single_write_substring wake_w "!" 0 1)
        with Unix.Unix_error _ -> ()  (* a full pipe wakes the loop anyway *))
  in
  let inflight = ref 0 and wake_buf = Bytes.create 64 in
  Peers.watch peers wake_r (fun () ->
      (try while Unix.read wake_r wake_buf 0 64 > 0 do () done
       with Unix.Unix_error _ -> ());
      let batch =
        Mutex.protect done_mu (fun () ->
            let l = !done_q in
            done_q := [];
            l)
      in
      List.iter
        (fun ((p : role Peers.peer), finish) ->
          decr inflight;
          p.Peers.owed <- p.Peers.owed - 1;
          Peers.reply peers p.Peers.id (finish ()))
        (List.rev batch));
  (* [shutdown], or the end of the stdio stream: accept and read no more,
     then leave the loop once every owed reply is out. *)
  let stopping = ref false and result = ref `Eof in
  let stop () =
    stopping := true;
    Peers.stop_accepting peers;
    Peers.iter peers (fun p -> p.Peers.reading <- false)
  in
  let handle (p : role Peers.peer) line =
    let send = Peers.reply peers p.Peers.id in
    match Protocol.request_of_line line with
    | Error msg -> send (Protocol.Error ("", "bad request: " ^ msg))
    | Ok (Protocol.Ping id) -> send (Protocol.Pong id)
    | Ok (Protocol.Stats_req id) ->
      send (Protocol.Stats (id, Engine.stats_json eng))
    | Ok (Protocol.Metrics_req id) ->
      send (Protocol.Metrics (id, Prom.current ()))
    | Ok (Protocol.Dump_req id) ->
      send (Protocol.Dump (id, Sepsat_obs.Flight.to_json ()))
    | Ok (Protocol.Shutdown id) ->
      send (Protocol.Bye id);
      Obs.log Obs.Info "serve: shutdown requested";
      result := `Shutdown;
      stop ()
    | Ok (Protocol.Warm w) ->
      if
        Engine.warm eng ~key:w.Protocol.wr_key ~verdict:w.Protocol.wr_verdict
          ~witness:w.Protocol.wr_witness ~solve_ms:w.Protocol.wr_solve_ms
      then send (Protocol.Warmed w.Protocol.wr_id)
      else
        send
          (Protocol.Error
             (w.Protocol.wr_id, "warm requires a decisive verdict"))
    | Ok (Protocol.Solve rq) ->
      let id = rq.Protocol.sq_id in
      let recv_wall, recv_mono = Clock.pair () in
      let cb (reply : Engine.reply) =
        complete p (fun () ->
            match reply with
            | Ok o ->
              let trace =
                Option.map
                  (fun tc -> reply_trace_of tc ~recv_wall ~recv_mono o)
                  rq.Protocol.sq_trace
              in
              solved_of_outcome ?trace id o
            | Error msg -> Protocol.Error (id, msg))
      in
      if Engine.submit eng (job_of rq) cb then begin
        incr inflight;
        p.Peers.owed <- p.Peers.owed + 1
      end
      else send (Protocol.Busy id)
  in
  let on_lines (p : role Peers.peer) lines =
    match (p.Peers.role, lines) with
    | Scrape, l :: _ ->
      Lineconn.write p.Peers.conn (scrape_response l);
      Lineconn.finish p.Peers.conn
    | Scrape, [] -> ()
    | Client, _ -> List.iter (fun l -> if p.Peers.reading then handle p l) lines
  in
  (* A stdio stream is the server's one client: its end is a shutdown,
     and the loop runs until that client is closed, queue drained. *)
  let stdio = match io with Stdio _ -> true | Listen _ -> false in
  let on_end (p : role Peers.peer) _ =
    if stdio && p.Peers.role = Client then stop ()
  in
  let finished () =
    !stopping && !inflight = 0
    && not (stdio && Peers.count peers (fun p -> p.Peers.role = Client) > 0)
  in
  Fun.protect
    ~finally:(fun () ->
      Peers.close peers;
      (* Left open if the loop died owing replies: a worker may still write. *)
      if !inflight = 0 then List.iter Unix.close [ wake_r; wake_w ])
    (fun () ->
      (match io with
      | Listen path ->
        Peers.listen peers ~path Client;
        Obs.log Obs.Info "serve: listening on %s" path
      | Stdio (input, output) ->
        Peers.add peers Client (Lineconn.of_fds ~input ~output));
      Option.iter
        (fun path ->
          Peers.listen peers ~path Scrape;
          Obs.log Obs.Info "serve: metrics on %s" path)
        metrics_path;
      while not (finished ()) do
        Peers.step peers ~timeout_s:1.0 ~on_lines ~on_end
      done;
      Peers.flush_bounded peers 2.);
  !result

(* The loop works on duplicates of the channels' descriptors, so closing
   them leaves the caller's channels open; O_NONBLOCK lives on the shared
   open file, so the originals are put back in blocking mode. *)
let serve_fds ~metrics_path eng ic oc =
  flush oc;
  let input = Unix.descr_of_in_channel ic
  and output = Unix.descr_of_out_channel oc in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        [ input; output ])
    (fun () ->
      run ~metrics_path eng
        (Stdio (Unix.dup ~cloexec:true input, Unix.dup ~cloexec:true output)))

let serve_channels eng ic oc = serve_fds ~metrics_path:None eng ic oc

let serve_stdio eng ~metrics_path = serve_fds ~metrics_path eng stdin stdout

let serve_unix ?metrics_path eng ~path =
  ignore (run ~metrics_path eng (Listen path))
