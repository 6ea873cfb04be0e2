(* trace_event JSON writer. The format reference is the "Trace Event
   Format" document of the Chromium project; the subset here is X complete
   events, i instants, C counters and M metadata, which both
   chrome://tracing and Perfetto load. *)

type source = {
  src_label : string;
  src_pid : int;
  src_wall : float;
  src_mono : float;
  src_records : Obs.record list;
  src_threads : (int * string) list;
}

let local () =
  let wall, mono = Clock.pair () in
  {
    src_label = "sepsat";
    src_pid = Unix.getpid ();
    src_wall = wall;
    src_mono = mono;
    src_records = Obs.records ();
    src_threads = Obs.thread_names ();
  }

let start (r : Obs.record) = r.mono -. r.dur

(* Counter series of a sample or progress record: its numeric payload. *)
let counters (r : Obs.record) =
  List.filter_map
    (fun (k, v) ->
      match float_of_string_opt v with
      | Some f when Float.is_finite f -> Some (k, f)
      | _ -> None)
    r.data

(* Timeline. A source's (wall, mono) anchor pins its mono clock to the
   wall timeline, so a record's absolute start is

     start + (src_wall - src_mono)

   which only ever subtracts mono readings of the *same* process — immune
   to wall-clock skew between router and shards. The origin is the
   earliest absolute start. Within a source, times are mapped as
   [(x - first) + shift] with [first] the source's earliest start: a
   monotone function of the mono reading, so spans that nest on the mono
   clock still nest after the mapping. *)
let assemble ?rid sources =
  let keep (r : Obs.record) =
    match rid with None -> true | Some id -> r.rid = id
  in
  let sources =
    List.mapi
      (fun pid s ->
        let recs = List.filter keep s.src_records in
        let first =
          List.fold_left (fun acc r -> Float.min acc (start r)) infinity recs
        in
        (pid, s, recs, first, first +. (s.src_wall -. s.src_mono)))
      sources
  in
  let origin =
    List.fold_left
      (fun acc (_, _, recs, _, abs_first) ->
        if recs = [] then acc else Float.min acc abs_first)
      infinity sources
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\": [";
  let first_event = ref true in
  let emit fmt =
    if !first_event then first_event := false
    else Buffer.add_string buf ",\n  ";
    Printf.bprintf buf fmt
  in
  let q = Json_string.quote in
  List.iter
    (fun (pid, s, _, _, _) ->
      emit
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"tid\": \
         0, \"args\": {\"name\": %s}}"
        pid (q s.src_label);
      List.iter
        (fun (tid, name) ->
          emit
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \
             \"tid\": %d, \"args\": {\"name\": %s}}"
            pid tid (q name))
        s.src_threads)
    sources;
  (* Tag each record with its lane and mapped start, then sort by start so
     the event stream reads in causal order. *)
  let events =
    List.concat_map
      (fun (pid, _, recs, first, abs_first) ->
        let shift = abs_first -. origin in
        let us x = (x -. first +. shift) *. 1e6 in
        List.map (fun r -> (us (start r), us r.Obs.mono, pid, r)) recs)
      sources
    |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare a b)
  in
  let args (r : Obs.record) =
    let b = Buffer.create 64 in
    Buffer.add_char b '{';
    if r.rid <> "" then Printf.bprintf b "\"rid\": %s" (q r.rid);
    List.iteri
      (fun i (k, v) ->
        if i > 0 || r.rid <> "" then Buffer.add_string b ", ";
        Printf.bprintf b "%s: %s" (q ("data." ^ k)) (q v))
      r.data;
    Buffer.add_char b '}';
    Buffer.contents b
  in
  List.iter
    (fun (t0, t1, pid, (r : Obs.record)) ->
      let cat =
        match List.assoc_opt "cat" r.data with
        | Some c -> c
        | None -> Obs.kind_name r.kind
      in
      match r.kind with
      | Span ->
        emit
          "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": %d, \"tid\": \
           %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": %s}"
          (q r.name) (q cat) pid r.tid t0 (t1 -. t0) (args r)
      | Event | Log ->
        emit
          "{\"name\": %s, \"cat\": %s, \"ph\": \"i\", \"s\": \"t\", \"pid\": \
           %d, \"tid\": %d, \"ts\": %.3f, \"args\": %s}"
          (q r.name) (q cat) pid r.tid t1 (args r)
      | Sample | Progress ->
        emit
          "{\"name\": %s, \"ph\": \"C\", \"pid\": %d, \"tid\": %d, \"ts\": \
           %.3f, \"args\": {%s}}"
          (q r.name) pid r.tid t1
          (String.concat ", "
             (List.map
                (fun (k, f) -> q k ^ ": " ^ Json_string.number f)
                (counters r))))
    events;
  Buffer.add_string buf "], \"displayTimeUnit\": \"ms\"}";
  Buffer.contents buf

let write ?rid path sources =
  let doc = assemble ?rid sources in
  if path = "-" then print_endline doc
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc doc;
        output_char oc '\n')
  end

let write_current path = write path [ local () ]
