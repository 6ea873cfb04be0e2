(* Off-by-default recording into per-domain rings of immutable records.

   Hot-path discipline: every public emission function first loads one
   atomic ([enabled_]) and returns when unset — instrumented code pays a
   load and a branch, nothing else. When enabled, the emitting domain owns
   its ring (reached through domain-local storage), so a push is a plain
   array store with no synchronization; only ring *registration* (once
   per domain per generation) takes the global mutex.

   Concurrency contract for readers. A record is an immutable block stored
   through a single pointer write, so a reader that races a writer sees
   either the old record or the new one, never a torn mix — this is what
   makes dumping a *live* server safe, and what test/test_flight.ml's
   qcheck battery checks. The [count] field may lag the slots during a
   race; readers only use it to order and bound the scan, so the worst
   case is a dump missing the very newest records. *)

type kind = Span | Event | Log | Progress | Sample

let kind_name = function
  | Span -> "span"
  | Event -> "event"
  | Log -> "log"
  | Progress -> "progress"
  | Sample -> "sample"

type record = {
  ts : float;
  mono : float;
  tid : int;
  rid : string;  (* ambient request id at capture; "" outside requests *)
  kind : kind;
  name : string;
  dur : float;
  data : (string * string) list;
}

(* Marks a never-written slot; compared physically. *)
let empty =
  { ts = 0.; mono = 0.; tid = 0; rid = ""; kind = Event; name = ""; dur = 0.;
    data = [] }

type ring = {
  r_tid : int;
  r_gen : int;
  slots : record array;
  mutable count : int;  (* total pushes; the ring holds the last [cap] *)
}

let default_capacity = 4096

let trace_capacity = 65536

let enabled_ = Atomic.make false

let capacity_ = Atomic.make default_capacity

let generation = Atomic.make 0

let registry : ring list ref = ref []

let registry_mu = Mutex.create ()

let names : (int * string) list ref = ref []

let names_mu = Mutex.create ()

let enabled () = Atomic.get enabled_

let fresh_ring () =
  let r =
    {
      r_tid = (Domain.self () :> int);
      r_gen = Atomic.get generation;
      slots = Array.make (max 16 (Atomic.get capacity_)) empty;
      count = 0;
    }
  in
  Mutex.protect registry_mu (fun () -> registry := r :: !registry);
  r

let key = Domain.DLS.new_key fresh_ring

(* A reset bumps the generation; stale domain-local rings (already dropped
   from the registry) are replaced on next use. *)
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
  Mutex.protect names_mu (fun () -> names := []);
  Atomic.incr generation

(* -- Levels -------------------------------------------------------------- *)

type level = Quiet | Info | Debug

let rank = function Quiet -> 0 | Info -> 1 | Debug -> 2

let level_ = Atomic.make Quiet

let set_level l = Atomic.set level_ l

let get_level () = Atomic.get level_

let level_of_string = function
  | "quiet" -> Some Quiet
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let log lvl fmt =
  if rank lvl <= rank (Atomic.get level_) && lvl <> Quiet then
    Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr (fmt ^^ "\n%!")

(* -- Emission ------------------------------------------------------------ *)

let push ~wall ~mono ~rid ~dur ~data kind name =
  let r = ring () in
  r.slots.(r.count mod Array.length r.slots) <-
    { ts = wall; mono; tid = r.r_tid; rid; kind; name; dur; data };
  r.count <- r.count + 1

let record ?rid ?(dur = 0.) ?(data = []) kind name =
  if Atomic.get enabled_ then begin
    let rid = match rid with Some r -> r | None -> Trace_ctx.rid () in
    let wall, mono = Clock.pair () in
    push ~wall ~mono ~rid ~dur ~data kind name
  end

(* The one span body. The duration is a difference of two readings of the
   process-monotone clock, so it is never negative, and the span's start
   is recovered exactly as [mono -. dur] (both readings are close enough
   for the subtraction to be exact). *)
let timed ?(cat = "") name f =
  if not (Atomic.get enabled_) then begin
    let t0 = Clock.mono_now () in
    let v = f () in
    (v, Clock.mono_now () -. t0)
  end
  else begin
    let rid = Trace_ctx.rid () in
    Trace_ctx.push name;
    let t0 = Clock.mono_now () in
    let finish () =
      let path = Trace_ctx.path_string () in
      Trace_ctx.pop ();
      let wall, mono = Clock.pair () in
      let dur = mono -. t0 in
      let data = if cat = "" then [] else [ ("cat", cat) ] in
      let data = if path = name then data else ("path", path) :: data in
      push ~wall ~mono ~rid ~dur ~data Span name;
      dur
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let span ?cat name f =
  if Atomic.get enabled_ then fst (timed ?cat name f) else f ()

let instant ?(cat = "") name =
  if Atomic.get enabled_ then
    record ~data:(if cat = "" then [] else [ ("cat", cat) ]) Event name

let sample name value =
  if Atomic.get enabled_ then
    record ~data:[ ("value", Json_string.number value) ] Sample name

(* -- Thread naming ------------------------------------------------------- *)

(* Unconditional (no [enabled_] gate): lane names are consumed by the
   engine's live lane table and exported traces alike, and pools name
   their workers once per spawn — off the hot path. *)
let name_thread name =
  let tid = (Domain.self () :> int) in
  Mutex.protect names_mu (fun () ->
      names := (tid, name) :: List.remove_assoc tid !names)

let thread_names () =
  Mutex.protect names_mu (fun () -> List.sort compare !names)

(* -- Collection ---------------------------------------------------------- *)

(* Oldest first. Under a racing writer a slot may already hold a newer
   record than [count] says; it is still a whole record. *)
let ring_records r =
  let cap = Array.length r.slots in
  let c = r.count in
  let n = min c cap in
  List.init n (fun i -> r.slots.((c - n + i) mod cap))
  |> List.filter (fun x -> x != empty)

let records () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.concat_map ring_records rings
  |> List.stable_sort (fun a b ->
         match Float.compare a.mono b.mono with
         | 0 -> compare a.tid b.tid
         | c -> c)

let dropped () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.fold_left
    (fun acc r -> acc + max 0 (r.count - Array.length r.slots))
    0 rings

(* -- Span rollup --------------------------------------------------------- *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total : float;
  ss_max : float;
}

let span_summary recs =
  let tbl : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      if r.kind = Span then
        match Hashtbl.find_opt tbl r.name with
        | Some s ->
          s :=
            {
              !s with
              ss_count = !s.ss_count + 1;
              ss_total = !s.ss_total +. r.dur;
              ss_max = Float.max !s.ss_max r.dur;
            }
        | None ->
          Hashtbl.add tbl r.name
            (ref
               { ss_name = r.name; ss_count = 1; ss_total = r.dur;
                 ss_max = r.dur }))
    recs;
  Hashtbl.fold (fun _ s acc -> !s :: acc) tbl []
  |> List.sort (fun a b -> Float.compare b.ss_total a.ss_total)

let pp_summary ppf recs =
  let stats = span_summary recs in
  Format.fprintf ppf "%-24s %8s %12s %12s %12s@." "span" "count" "total(s)"
    "mean(s)" "max(s)";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-24s %8d %12.4f %12.4f %12.4f@." s.ss_name
        s.ss_count s.ss_total
        (s.ss_total /. float_of_int (max 1 s.ss_count))
        s.ss_max)
    stats
