(* trace_event JSON writer. The format reference is the "Trace Event
   Format" document of the Chromium project; the subset here is B/E
   duration events, i instants, C counters and M metadata, which both
   chrome://tracing and Perfetto load. *)

type out = { buf : Buffer.t; mutable first : bool }

let emit o fmt =
  if o.first then o.first <- false else Buffer.add_string o.buf ",\n  ";
  Printf.ksprintf (Buffer.add_string o.buf) fmt

(* Span begin/end replay for one tid. Spans are sorted so parents precede
   their children ([ts] ascending, duration descending breaks the tie);
   walking with a stack then closes every span that cannot contain the next
   one before opening it. Per-domain monotone capture in [Obs] makes real
   traces perfectly nested; for defensive completeness, a span that
   partially overlaps the stack top is clipped by closing the top first, so
   B/E events always stay matched and ordered. *)
let emit_spans o ~tid spans =
  let spans =
    List.stable_sort
      (fun (_, _, _, ts1, d1) (_, _, _, ts2, d2) ->
        match Float.compare ts1 ts2 with
        | 0 -> Float.compare d2 d1
        | c -> c)
      spans
  in
  (* The rid rides in [args] so Perfetto's query/filter UI can isolate one
     request's spans across every lane. *)
  let rid_args rid =
    if rid = "" then ""
    else Printf.sprintf ", \"args\": {\"rid\": %s}" (Json_string.quote rid)
  in
  let emit_b (name, cat, rid, ts, _) =
    emit o
      "{\"name\": %s, \"cat\": %s, \"ph\": \"B\", \"pid\": 0, \
       \"tid\": %d, \"ts\": %.3f%s}"
      (Json_string.quote name)
      (Json_string.quote (if cat = "" then "sepsat" else cat))
      tid ts (rid_args rid)
  in
  let emit_e ~at (name, _, _, _, _) =
    emit o
      "{\"name\": %s, \"ph\": \"E\", \"pid\": 0, \"tid\": %d, \"ts\": \
       %.3f}"
      (Json_string.quote name) tid at
  in
  let ends (_, _, _, ts, d) = ts +. d in
  let contains p c = ends c <= ends p in
  let stack = ref [] in
  List.iter
    (fun ((_, _, _, ts, _) as s) ->
      (* Close every stacked span that cannot contain [s] before opening it,
         clamping close times to be non-decreasing. *)
      let rec close_until last =
        match !stack with
        | top :: rest when not (contains top s) ->
          (* Usually [ends top <= ts] (disjoint siblings); a partial overlap
             (impossible under monotone capture, possible after ring drops)
             is clipped at the new begin so timestamps never decrease. *)
          let at = Float.max last (Float.min (ends top) ts) in
          emit_e ~at top;
          stack := rest;
          close_until at
        | _ -> ()
      in
      close_until neg_infinity;
      emit_b s;
      stack := s :: !stack)
    spans;
  let rec drain last =
    match !stack with
    | [] -> ()
    | top :: rest ->
      let at = Float.max (ends top) last in
      emit_e ~at top;
      stack := rest;
      drain at
  in
  drain neg_infinity

let to_buffer buf evs =
  let o = { buf; first = true } in
  let t0 =
    List.fold_left (fun acc e -> Float.min acc (Obs.event_ts e)) infinity evs
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let us t = (t -. t0) *. 1e6 in
  Buffer.add_string buf "{\"traceEvents\": [\n  ";
  emit o
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
     \"args\": {\"name\": \"sepsat\"}}";
  List.iter
    (fun (tid, name) ->
      emit o
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \
         \"args\": {\"name\": %s}}"
        tid (Json_string.quote name))
    (Obs.thread_names ());
  (* Group spans per tid so each lane's B/E stream nests independently. *)
  let by_tid :
      (int, (string * string * string * float * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (function
      | Obs.Span { name; cat; ts; dur; tid; rid } ->
        let r =
          match Hashtbl.find_opt by_tid tid with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add by_tid tid r;
            r
        in
        r := (name, cat, rid, us ts, dur *. 1e6) :: !r
      | Obs.Instant { name; cat; ts; tid; rid } ->
        emit o
          "{\"name\": %s, \"cat\": %s, \"ph\": \"i\", \"s\": \"t\", \
           \"pid\": 0, \"tid\": %d, \"ts\": %.3f%s}"
          (Json_string.quote name)
          (Json_string.quote (if cat = "" then "sepsat" else cat))
          tid (us ts)
          (if rid = "" then ""
           else
             Printf.sprintf ", \"args\": {\"rid\": %s}"
               (Json_string.quote rid))
      | Obs.Sample { name; ts; value; tid } ->
        emit o
          "{\"name\": %s, \"ph\": \"C\", \"pid\": 0, \"tid\": %d, \"ts\": \
           %.3f, \"args\": {\"value\": %.6g}}"
          (Json_string.quote name) tid (us ts) value)
    evs;
  let tids =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] |> List.sort compare
  in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt by_tid tid with
      | Some spans -> emit_spans o ~tid (List.rev !spans)
      | None -> ())
    tids;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n"

let to_string evs =
  let buf = Buffer.create 65536 in
  to_buffer buf evs;
  Buffer.contents buf

let write_file path evs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer buf evs;
      Buffer.output_buffer oc buf)

let write_current path = write_file path (Obs.events ())
