(* Flight recorder dumps. The records live in Obs's per-domain rings,
   which servers keep enabled at their default capacity; this module only
   serializes them — on SIGUSR1, on crash, on deadline expiry, or via the
   serve protocol's [dump] op — so a wedged or slow server can be debugged
   after the fact. *)

(* -- JSON dump ------------------------------------------------------------ *)

let add_record buf (r : Obs.record) =
  Buffer.add_string buf
    (Printf.sprintf "{\"ts\": %.6f, \"mono\": %.6f, \"tid\": %d, \"kind\": \"%s\", "
       r.ts r.mono r.tid (Obs.kind_name r.kind));
  Buffer.add_string buf "\"name\": ";
  Json_string.add buf r.name;
  if r.rid <> "" then begin
    Buffer.add_string buf ", \"rid\": ";
    Json_string.add buf r.rid
  end;
  if r.dur <> 0. then
    Buffer.add_string buf (Printf.sprintf ", \"dur_ms\": %.6f" (r.dur *. 1e3));
  if r.data <> [] then begin
    Buffer.add_string buf ", \"data\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Json_string.add buf k;
        Buffer.add_string buf ": ";
        Json_string.add buf v)
      r.data;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_json () =
  let recs = Obs.records () in
  let buf = Buffer.create 65536 in
  (* The (wall, mono) pair is sampled together so a consumer can map any
     record's mono stamp onto the wall timeline without assuming the two
     processes' wall clocks agree — see [Chrome_trace.assemble]. *)
  let wall, mono = Clock.pair () in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\": \"sepsat-flight-1\", \"pid\": %d, \"dumped_at\": %.6f, \
        \"wall\": %.6f, \"mono\": %.6f, \"dropped\": %d, \"records\": ["
       (Unix.getpid ()) wall wall mono (Obs.dropped ()));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ", ";
      add_record buf r)
    recs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json ());
      output_char oc '\n')

(* -- Dump management ------------------------------------------------------ *)

let dump_dir = Atomic.make "."

let dump_seq = Atomic.make 0

let set_dump_dir d = Atomic.set dump_dir d

let sanitize_reason s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

let dump ~reason () =
  let path =
    Filename.concat (Atomic.get dump_dir)
      (Printf.sprintf "flight-%d-%d-%s.json" (Unix.getpid ())
         (1 + Atomic.fetch_and_add dump_seq 1)
         (sanitize_reason reason))
  in
  write path;
  path

let install_signal_dump ?(signal = Sys.sigusr1) () =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         (* Signal handlers run on the main domain at a safe point; dumping
            takes only the registry mutex briefly and writes a fresh file,
            so it cannot deadlock request processing. *)
         try ignore (dump ~reason:"signal" ()) with _ -> ()))

let install_crash_dump () =
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      (try
         let path = dump ~reason:"crash" () in
         Printf.eprintf "flight recorder dumped to %s\n%!" path
       with _ -> ());
      Printf.eprintf "Fatal error: exception %s\n%s%!" (Printexc.to_string exn)
        (Printexc.raw_backtrace_to_string bt))
