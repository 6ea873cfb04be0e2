(* Always-on flight recorder: a bounded ring of recent span completions,
   log lines and solver-progress snapshots per domain, kept even when full
   tracing is off, so a wedged or slow server can be debugged *after the
   fact* — dump on SIGUSR1, on crash, on deadline expiry, or via the
   serve protocol's [dump] op.

   Concurrency contract. Writers follow the Obs ring discipline: each
   domain owns its ring through DLS, so recording is a plain array store
   with no synchronization; only ring registration takes the global mutex.
   Records are immutable OCaml blocks stored through a single pointer
   write into an ['a option array], so a reader that races a writer sees
   either the old record or the new one, never a torn mix — this is what
   makes dumping a *live* server safe, and what test/test_flight.ml's
   qcheck battery checks. The [count] field may lag the data array during
   a race; readers only use it to bound how much they scan, so the worst
   case is a dump missing the very newest records. *)

type kind = Span | Log | Progress | Event

let kind_name = function
  | Span -> "span"
  | Log -> "log"
  | Progress -> "progress"
  | Event -> "event"

type record = {
  fr_ts : float;  (* completion wall-clock time *)
  fr_mono : float;  (* same instant on this process's Clock.mono_now *)
  fr_tid : int;
  fr_rid : string;  (* "" when outside any request *)
  fr_kind : kind;
  fr_name : string;
  fr_dur_ms : float;  (* 0 for point records *)
  fr_data : (string * string) list;
}

type ring = {
  r_tid : int;
  r_gen : int;
  data : record option array;
  mutable count : int;  (* total records; the ring holds the last [cap] *)
}

let default_capacity = 4096

let enabled_ = Atomic.make false

let capacity_ = Atomic.make default_capacity

let generation = Atomic.make 0

let registry : ring list ref = ref []

let registry_mu = Mutex.create ()

let enabled () = Atomic.get enabled_

let fresh_ring () =
  let r =
    {
      r_tid = (Domain.self () :> int);
      r_gen = Atomic.get generation;
      data = Array.make (max 16 (Atomic.get capacity_)) None;
      count = 0;
    }
  in
  Mutex.protect registry_mu (fun () -> registry := r :: !registry);
  r

let key = Domain.DLS.new_key fresh_ring

let ring () =
  let r = Domain.DLS.get key in
  if r.r_gen = Atomic.get generation then r
  else begin
    let r = fresh_ring () in
    Domain.DLS.set key r;
    r
  end

let enable ?(capacity = default_capacity) () =
  Atomic.set capacity_ capacity;
  Atomic.set enabled_ true

let disable () = Atomic.set enabled_ false

let reset () =
  Mutex.protect registry_mu (fun () -> registry := []);
  Atomic.incr generation

let record ?rid ?(dur_ms = 0.) ?(data = []) kind name =
  if Atomic.get enabled_ then begin
    let rid = match rid with Some r -> r | None -> Trace_ctx.rid () in
    let r = ring () in
    let wall, mono = Clock.pair () in
    let rec_ =
      {
        fr_ts = wall;
        fr_mono = mono;
        fr_tid = r.r_tid;
        fr_rid = rid;
        fr_kind = kind;
        fr_name = name;
        fr_dur_ms = dur_ms;
        fr_data = data;
      }
    in
    r.data.(r.count mod Array.length r.data) <- Some rec_;
    r.count <- r.count + 1
  end

(* -- Collection ----------------------------------------------------------- *)

let ring_records r =
  (* Scan the whole array rather than trusting [count]'s ordering: a live
     writer may be mid-overwrite, and every slot holds either None or a
     complete record. *)
  Array.to_list r.data |> List.filter_map Fun.id

let records () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.concat_map ring_records rings
  |> List.stable_sort (fun a b ->
         match Float.compare a.fr_ts b.fr_ts with
         | 0 -> compare a.fr_tid b.fr_tid
         | c -> c)

let dropped () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.fold_left
    (fun acc r -> acc + max 0 (r.count - Array.length r.data))
    0 rings

(* -- JSON dump ------------------------------------------------------------ *)

let add_record buf r =
  Buffer.add_string buf
    (Printf.sprintf "{\"ts\": %.6f, \"mono\": %.6f, \"tid\": %d, \"kind\": \"%s\", "
       r.fr_ts r.fr_mono r.fr_tid (kind_name r.fr_kind));
  Buffer.add_string buf "\"name\": ";
  Json_string.add buf r.fr_name;
  if r.fr_rid <> "" then begin
    Buffer.add_string buf ", \"rid\": ";
    Json_string.add buf r.fr_rid
  end;
  if r.fr_dur_ms <> 0. then
    Buffer.add_string buf (Printf.sprintf ", \"dur_ms\": %.6f" r.fr_dur_ms);
  if r.fr_data <> [] then begin
    Buffer.add_string buf ", \"data\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Json_string.add buf k;
        Buffer.add_string buf ": ";
        Json_string.add buf v)
      r.fr_data;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}'

let to_json () =
  let recs = records () in
  let buf = Buffer.create 65536 in
  (* The (wall, mono) pair is sampled together so a consumer can map any
     record's mono stamp onto the wall timeline without assuming the two
     processes' wall clocks agree — see [assemble]. *)
  let wall, mono = Clock.pair () in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\": \"sepsat-flight-1\", \"pid\": %d, \"dumped_at\": %.6f, \
        \"wall\": %.6f, \"mono\": %.6f, \"dropped\": %d, \"records\": ["
       (Unix.getpid ()) wall wall mono (dropped ()));
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

(* -- Cross-process assembly ----------------------------------------------- *)

type source = {
  src_label : string;
  src_pid : int;
  src_wall : float;
  src_mono : float;
  src_records : record list;
}

(* One Chrome trace from many processes' flight dumps. Each source's
   (wall, mono) header pair pins its mono timeline to the shared wall
   timeline; a record's absolute end time is then

     src_wall -. (src_mono -. fr_mono)

   which only ever subtracts mono readings from the *same* process —
   immune to wall-clock skew between router and shards. Spans become
   "X" (complete) events ending at that instant; point records become
   thread-scoped instants. One Chrome pid per source, named via
   process_name metadata, gives the lane-per-process view. *)
let assemble ?rid sources =
  let keep r = match rid with None -> true | Some id -> r.fr_rid = id in
  let abs_end src r = src.src_wall -. (src.src_mono -. r.fr_mono) in
  let origin =
    List.fold_left
      (fun acc src ->
        List.fold_left
          (fun acc r ->
            if keep r then Float.min acc (abs_end src r -. (r.fr_dur_ms /. 1e3))
            else acc)
          acc src.src_records)
      Float.infinity sources
  in
  let origin = if origin = Float.infinity then 0. else origin in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ", "
  in
  List.iteri
    (fun pid src ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
            \"tid\": 0, \"args\": {\"name\": "
           pid);
      Json_string.add buf src.src_label;
      Buffer.add_string buf "}}")
    sources;
  (* Flatten, tag with the source lane, and sort by start time so the
     event stream reads in causal order. *)
  let events =
    List.concat
      (List.mapi
         (fun pid src ->
           List.filter_map
             (fun r ->
               if keep r then
                 let start_us =
                   (abs_end src r -. origin) *. 1e6 -. (r.fr_dur_ms *. 1e3)
                 in
                 Some (Float.max 0. start_us, pid, r)
               else None)
             src.src_records)
         sources)
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  List.iter
    (fun (start_us, pid, r) ->
      sep ();
      Buffer.add_string buf "{\"name\": ";
      Json_string.add buf r.fr_name;
      Buffer.add_string buf
        (Printf.sprintf
           ", \"cat\": \"%s\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f"
           (kind_name r.fr_kind) pid r.fr_tid start_us);
      if r.fr_dur_ms > 0. then
        Buffer.add_string buf
          (Printf.sprintf ", \"ph\": \"X\", \"dur\": %.3f"
             (r.fr_dur_ms *. 1e3))
      else Buffer.add_string buf ", \"ph\": \"i\", \"s\": \"t\"";
      Buffer.add_string buf ", \"args\": {";
      Buffer.add_string buf "\"rid\": ";
      Json_string.add buf r.fr_rid;
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ", ";
          Json_string.add buf ("data." ^ k);
          Buffer.add_string buf ": ";
          Json_string.add buf v)
        r.fr_data;
      Buffer.add_string buf "}}")
    events;
  Buffer.add_string buf "], \"displayTimeUnit\": \"ms\"}";
  Buffer.contents buf

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
