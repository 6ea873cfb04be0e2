(* The repository benchmark. See sufbench/README.md for the workloads, the
   metrics and how to run it. *)

module P = Sepsat_serve.Protocol

let now = Proc.now

(* -- Statistics ------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let geomean l =
  exp (List.fold_left (fun s x -> s +. log x) 0. l /. float_of_int (List.length l))

(* -- Verdict checks -------------------------------------------------------- *)

(* Requests sent and their outcomes, over every phase of a run. *)
type tally = {
  mutable attempted : int;
  mutable wrong : int;  (** a decisive verdict against the known answer *)
  mutable undecided : int;  (** busy, error, no reply, unexpected unknown *)
  mutable blowups : int;  (** the documented EIJ blowup's unknown *)
}

let tally = { attempted = 0; wrong = 0; undecided = 0; blowups = 0 }

let check (item : Gen.item) (verdict : P.verdict option) =
  tally.attempted <- tally.attempted + 1;
  match verdict with
  | Some P.Valid when item.Gen.valid -> ()
  | Some P.Invalid when not item.Gen.valid -> ()
  | Some (P.Valid | P.Invalid) ->
    tally.wrong <- tally.wrong + 1;
    Printf.eprintf "WRONG verdict on %s\n%!" item.Gen.name
  | Some (P.Unknown _) when item.Gen.may_blow_up ->
    tally.blowups <- tally.blowups + 1
  | Some (P.Unknown _) | None -> tally.undecided <- tally.undecided + 1

let verdict_of (s : Proc.sample) =
  match s.Proc.reply with
  | Some (P.Ok_solve r) -> Some r.P.sv_verdict
  | Some _ | None -> None

let count_outcomes items (ss : Proc.sample array) =
  Array.iteri (fun i s -> check items.(i) (verdict_of s)) ss

let latency_ms (s : Proc.sample) = (s.Proc.got -. s.Proc.due) *. 1000.

let late_ms (s : Proc.sample) = (s.Proc.sent -. s.Proc.due) *. 1000.

(* -- Servers --------------------------------------------------------------- *)

let sufdec = ref ""

let setups = ref []

let rsses = ref []

(* -- Closed-loop workloads ------------------------------------------------- *)

let texts_of items = Array.map (fun i -> i.Gen.text) items

(* A fresh server (cold cache); with [warm], first run through those
   formulas in a closed loop so that its heap has grown to working size
   before anything is timed. *)
let with_server ?warm f =
  let srv = Proc.start ~sufdec:!sufdec in
  setups := srv.Proc.setup_s :: !setups;
  Option.iter
    (fun items -> count_outcomes items (Proc.closed_loop srv (texts_of items)))
    warm;
  let v = f srv in
  rsses := Proc.stop srv :: !rsses;
  v

(* Closed-loop passes with one request outstanding, each on a fresh server,
   until [seconds] have passed and at least three ran. A request's time to
   verdict is its median over the passes, so that the host stalling during
   one pass does not move the figures. [texts] are the requests, [items]
   what each one is. *)
let run_closed ?warm ~seconds items texts =
  let t0 = now () in
  let passes = ref [] in
  while now () -. t0 < seconds || List.length !passes < 3 do
    let ss = with_server ?warm (fun srv -> Proc.closed_loop srv texts) in
    count_outcomes items ss;
    let lat = Array.map latency_ms ss in
    Printf.printf "pass wall_s=%.4f\n%!" (Array.fold_left ( +. ) 0. lat /. 1000.);
    passes := lat :: !passes
  done;
  (* A request a lost server never answered has no time; it is already
     counted as failed. *)
  let lat =
    List.init (Array.length texts) (fun i ->
        median (List.filter Float.is_finite (List.map (fun p -> p.(i)) !passes)))
    |> List.filter Float.is_finite
  in
  (* Over 9 or 10 formulas a percentile is one formula's time, which the
     seeded bug flags reorder: printed, not reported. *)
  Printf.printf "latency p50_ms=%.3f p99_ms=%.3f\n" (median lat)
    (quantile 0.99 lat);
  [
    ("wall_s", "s", List.fold_left ( +. ) 0. lat /. 1000.);
    ("verdict_geomean_ms", "ms", geomean lat);
  ]

(* -- Open-loop served workload -------------------------------------------- *)

(* Single-worker capacity on the request stream of a warmed server,
   measured once in a closed loop with two requests outstanding (seeds 11
   to 13, 2-vCPU x86-64 VM), and fixed here with the two offered rates so
   that every later run offers the same load. The rates sit at 0.25 and
   0.5 of capacity: at 0.85 the queue overflowed into shed requests in
   bursts. *)
let capacity_rps = 95.

let low_rps = 0.25 *. capacity_rps

let high_rps = 0.5 *. capacity_rps

(* A step whose generator sent its p99 request later than this measured
   the generator, not the server. *)
let late_limit_ms = 10.

type step = {
  rate : float;
  ss : Proc.sample array;
  reqs : Gen.request array;
  backlog : int;  (** unanswered requests when the last one went out *)
  late_p99 : float;
}

let step_valid st = st.late_p99 <= late_limit_ms

let step_lat st =
  List.filter Float.is_finite (Array.to_list (Array.map latency_ms st.ss))

let step_failures st =
  Array.fold_left
    (fun n (s : Proc.sample) ->
      match s.Proc.reply with Some (P.Ok_solve _) -> n | _ -> n + 1)
    0 st.ss

(* One open-loop step: seeded Poisson arrivals at [rate] for [duration]
   seconds, over the stream of namespace [ns], so no cache entry of an
   earlier step on the same server is ever asked for again. *)
let run_step ?traced srv ~seed ~ns ~rate ~duration bases =
  let n = max 20 (int_of_float (rate *. duration)) in
  let reqs = Gen.stream ~seed ~ns bases n in
  let rng = Gen.rng seed (1000 + ns) in
  let texts = Array.map (fun r -> r.Gen.req_text) reqs in
  let t = ref (now () +. 0.02) in
  let due =
    Array.init n (fun _ ->
        let d = !t in
        t := !t -. (log (1. -. Random.State.float rng 1.) /. rate);
        d)
  in
  let ss, backlog = Proc.open_loop ?traced srv texts ~due in
  let late_p99 = quantile 0.99 (Array.to_list (Array.map late_ms ss)) in
  { rate; ss; reqs; backlog; late_p99 }

(* A step whose generator ran late is flagged, and its latency withheld. *)
let print_step name st =
  let lat = step_lat st in
  Printf.printf "step %s rate_rps=%.1f n=%d failed=%d gen.late_p99_ms=%.3f \
                 gen.backlog=%d "
    name st.rate (Array.length st.ss) (step_failures st) st.late_p99 st.backlog;
  if step_valid st then
    Printf.printf "p50_ms=%.3f p99_ms=%.3f\n%!" (median lat) (quantile 0.99 lat)
  else Printf.printf "INVALID: generator ran late\n%!"

let items_of_step st = Array.map (fun r -> r.Gen.base) st.reqs

(* A step the generator could not keep to schedule is run once more, in a
   fresh namespace. Every step's verdicts are checked. *)
let measured_step ?traced srv ~seed ~ns ~rate ~duration name bases =
  let run ns =
    let st = run_step ?traced srv ~seed ~ns ~rate ~duration bases in
    print_step name st;
    count_outcomes (items_of_step st) st.ss;
    st
  in
  let st = run ns in
  if step_valid st then st else run (ns + 100)

let repeat_share reqs =
  float_of_int (Array.fold_left (fun n r -> if r.Gen.repeat then n + 1 else n) 0 reqs)
  /. float_of_int (Array.length reqs)

(* Requests in one closed-loop pass of the served workload. *)
let stream_len = 400

(* The served workload's end-to-end figures come from closed-loop passes
   over one request stream; the two fixed-rate open-loop steps after them
   are printed with their generator health but not reported as metrics:
   their percentiles moved by a fifth to a third between seeds and between
   repeats of one seed on a 2-vCPU VM. *)
let run_served ~seed ~seconds bases =
  let pool = Array.of_list bases in
  let reqs = Gen.stream ~seed ~ns:0 bases stream_len in
  Printf.printf "descriptors requests=%d repeat_share=%.3f\n" stream_len
    (repeat_share reqs);
  let metrics =
    run_closed ~warm:pool ~seconds:(0.8 *. seconds)
      (Array.map (fun r -> r.Gen.base) reqs)
      (Array.map (fun r -> r.Gen.req_text) reqs)
  in
  List.iter
    (fun (name, ns, rate) ->
      with_server ~warm:pool (fun srv ->
          ignore
            (measured_step srv ~seed ~ns ~rate ~duration:(0.1 *. seconds) name
               bases)))
    [ ("low", 1, low_rps); ("high", 2, high_rps) ];
  metrics

(* -- Traced run ------------------------------------------------------------ *)

let hop name (s : P.solved) =
  match s.P.sv_trace with
  | Some tr -> List.assoc_opt name tr.P.rt_hops
  | None -> None

(* Layer figures read from the replies of traced requests. *)
let serve_layers (ss : Proc.sample array) ~backlog =
  let ok =
    Array.to_list ss
    |> List.filter_map (fun (s : Proc.sample) ->
           match s.Proc.reply with
           | Some (P.Ok_solve r) -> Some (s, r)
           | _ -> None)
  in
  let queue = List.filter_map (fun (_, r) -> hop "shard.queue" r) ok in
  let solve =
    List.filter_map
      (fun (_, r) -> if r.P.sv_origin = P.Solved then hop "shard.solve" r else None)
      ok
  in
  let hits =
    List.filter_map
      (fun (_, r) -> if r.P.sv_origin = P.Cache_hit then Some r.P.sv_time_ms else None)
      ok
  in
  let wire =
    List.filter_map
      (fun ((s : Proc.sample), r) ->
        match r.P.sv_trace with
        | Some tr ->
          Some
            (((s.Proc.got -. s.Proc.sent) -. (tr.P.rt_send_mono -. tr.P.rt_recv_mono))
            *. 1000.)
        | None -> None)
      ok
  in
  let joins = List.length (List.filter (fun (_, r) -> r.P.sv_origin = P.Joined) ok) in
  let shed =
    Array.fold_left
      (fun n (s : Proc.sample) ->
        match s.Proc.reply with Some (P.Busy _) -> n + 1 | _ -> n)
      0 ss
  in
  let late = Array.to_list (Array.map late_ms ss) in
  [
    ("serve.queue_ms.p50", "ms", median queue);
    ("serve.queue_ms.p99", "ms", quantile 0.99 queue);
    ("serve.solve_ms.p50", "ms", median solve);
    ("serve.hit_ms.p50", "ms", median hits);
    ("serve.wire_ms.p50", "ms", median wire);
    ("serve.wire_ms.p99", "ms", quantile 0.99 wire);
    ( "serve.cache.hit_ratio", "ratio",
      float_of_int (List.length hits) /. float_of_int (List.length ok) );
    ("serve.cache.joins", "count", float_of_int joins);
    ("serve.shed", "count", float_of_int shed);
    ("gen.late_p99_ms", "ms", quantile 0.99 late);
    ("gen.backlog", "count", float_of_int backlog);
  ]

(* Runs every formula stage by stage and through [Decide.decide]; returns
   the per-layer metrics of the in-process part. *)
let in_process items =
  let untraced = ref 0. in
  Array.iter
    (fun (item : Gen.item) ->
      let traced = Traced.pipeline item.Gen.text in
      let refr, dt = Traced.reference item.Gen.text in
      untraced := !untraced +. dt;
      if
        P.verdict_to_string traced.Traced.verdict
        <> P.verdict_to_string refr.Traced.verdict
        || traced.Traced.clauses <> refr.Traced.clauses
      then begin
        tally.wrong <- tally.wrong + 1;
        Printf.eprintf "MISMATCH traced pipeline vs Decide.decide on %s\n%!"
          item.Gen.name
      end;
      check item (Some traced.Traced.verdict))
    items;
  let bad = Traced.counts.Traced.bad_witnesses in
  if bad > 0 then begin
    tally.wrong <- tally.wrong + bad;
    Printf.eprintf "%d witnesses do not falsify their formula\n%!" bad
  end;
  let total =
    List.fold_left (fun s sp -> s +. (sp.Traced.t1 -. sp.Traced.t0)) 0. (Traced.roots ())
  in
  let layer name = fst (Traced.layer name) in
  let mwords name = snd (Traced.layer name) /. 1e6 in
  let names = [ "suf.parse"; "suf.elim"; "encode"; "cnf"; "sat"; "witness" ] in
  let covered = List.fold_left (fun s n -> s +. layer n) 0. names in
  Printf.printf "trace share";
  List.iter (fun n -> Printf.printf " %s=%.3f" n (layer n /. total)) names;
  Printf.printf " uncovered=%.4f\n" ((total -. covered) /. total);
  Printf.printf
    "trace traced_s=%.4f untraced_s=%.4f overhead_s=%.4f encode.blowup_s=%.4f\n%!"
    total !untraced (total -. !untraced) Traced.counts.Traced.blowup_s;
  let c = Traced.counts in
  let i x = float_of_int x in
  [
    ("suf.parse.s", "s", layer "suf.parse");
    ("suf.elim.s", "s", layer "suf.elim");
    ("suf.elim.apps", "count", i c.Traced.elim_apps);
    ("encode.s", "s", layer "encode");
    ("encode.minor_mwords", "Mwords", mwords "encode");
    ("encode.trans_constraints", "count", i c.Traced.trans_constraints);
    ("encode.eij_predicates", "count", i c.Traced.eij_predicates);
    ("encode.sd_classes", "count", i c.Traced.sd_classes);
    ("encode.eij_classes", "count", i c.Traced.eij_classes);
    ("encode.bool_size", "count", i c.Traced.bool_size);
    ("encode.blowups", "count", i c.Traced.blowups);
    ("cnf.s", "s", layer "cnf");
    ("cnf.minor_mwords", "Mwords", mwords "cnf");
    ("cnf.clauses", "count", i c.Traced.cnf_clauses);
    ("sat.s", "s", layer "sat");
    ("sat.conflicts", "count", i c.Traced.conflicts);
    ("sat.decisions", "count", i c.Traced.decisions);
    ("sat.propagations", "count", i c.Traced.propagations);
    ("witness.s", "s", layer "witness");
  ]

(* -- Entry point ----------------------------------------------------------- *)

let workloads = [ "eij-translate"; "sd-search"; "served-repeat" ]

let formulas ~seed = function
  | "eij-translate" -> Gen.eij_translate ~seed
  | "sd-search" -> Gen.sd_search ~seed
  | _ -> Gen.pool_bases

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* No [sufdec] process of this run, and no socket file, may outlive it:
   every socket of the run is named [.bench_run/s<pid>.<k>]. *)
let check_isolation () =
  if !Proc.live <> [] then failwith "a server was not reaped";
  let mine = Printf.sprintf "s%d." (Unix.getpid ()) in
  if
    Sys.file_exists Proc.run_dir
    && Array.exists (fun f -> String.starts_with ~prefix:mine f)
         (Sys.readdir Proc.run_dir)
  then failwith "a socket file was left behind";
  Array.iter
    (fun d ->
      match In_channel.with_open_bin ("/proc/" ^ d ^ "/cmdline") In_channel.input_all with
      | cmd when contains ~sub:(Proc.run_dir ^ "/" ^ mine) cmd ->
        failwith ("sufdec process left behind: pid " ^ d)
      | _ | (exception Sys_error _) -> ())
    (Sys.readdir "/proc")

let print_result ~correct metrics =
  let module J = Sepsat_serve.Json in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then failwith (name ^ " was not measured"))
    metrics;
  let metric (name, unit, v) =
    (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ])
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int tally.attempted));
            ("failed", J.Num (float_of_int tally.undecided));
            ("metrics", J.Obj (List.map metric metrics));
          ]))

let main workload seed seconds trace =
  let items = Array.of_list (formulas ~seed workload) in
  Printf.printf "descriptors workload=%s seed=%d formulas=%d dag_nodes=%d%s\n%!"
    workload seed (Array.length items)
    (Array.fold_left (fun s i -> s + i.Gen.nodes) 0 items)
    (* Batch formulas are pairwise distinct by construction. *)
    (if workload = "served-repeat" then "" else " repeat_share=0");
  let metrics =
    if trace then begin
      let layers = in_process items in
      let serve =
        if workload = "served-repeat" then begin
          let st =
            with_server ~warm:items (fun srv ->
                measured_step ~traced:true srv ~seed ~ns:1 ~rate:low_rps
                  ~duration:(0.3 *. seconds) "low.traced" (Array.to_list items))
          in
          serve_layers st.ss ~backlog:st.backlog
        end
        else begin
          (* Twice through: the second round is all cache hits. *)
          let both = Array.append items items in
          let ss =
            with_server (fun srv -> Proc.closed_loop ~traced:true srv (texts_of both))
          in
          count_outcomes both ss;
          serve_layers ss ~backlog:0
        end
      in
      Traced.write
        (Printf.sprintf "%s/trace-%s-%d.json" Proc.run_dir workload seed);
      layers @ serve
    end
    else begin
      (* Set-up alone, several times, besides the servers the workload
         starts. *)
      for _ = 1 to 5 do
        let srv = Proc.start ~sufdec:!sufdec in
        setups := srv.Proc.setup_s :: !setups;
        ignore (Proc.stop srv)
      done;
      let e2e =
        if workload = "served-repeat" then
          run_served ~seed ~seconds (Array.to_list items)
        else run_closed ~seconds items (texts_of items)
      in
      ("setup_s", "s", median !setups)
      :: ("peak_rss_mb", "MB", median (List.filter Float.is_finite !rsses))
      :: e2e
    end
  in
  check_isolation ();
  let sent = max 1 tally.attempted in
  Printf.printf "row workload=%s seed=%d" workload seed;
  List.iter (fun (n, u, v) -> Printf.printf " %s=%.6g %s" n v u) metrics;
  Printf.printf " failed_ratio=%.4f ratio\n"
    (float_of_int (tally.undecided + tally.blowups) /. float_of_int sent);
  print_result ~correct:(tally.wrong = 0) metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--sufdec", Arg.Set_string sufdec, " path of the sufdec executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sufbench --workload NAME --seed N --seconds S --trace 0|1 --sufdec PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists !sufdec) then begin
    prerr_endline "no sufdec executable";
    exit 2
  end;
  (* Neither a hung server nor an interrupted run may leave a server
     behind. *)
  let abort why =
    Sys.Signal_handle
      (fun _ ->
        Proc.kill_all ();
        prerr_endline ("sufbench: " ^ why);
        exit 3)
  in
  Sys.set_signal Sys.sigalrm (abort "time limit reached");
  Sys.set_signal Sys.sigterm (abort "terminated");
  Sys.set_signal Sys.sigint (abort "interrupted");
  ignore (Unix.alarm 170);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main !workload !seed !seconds (!trace = 1) with
  | () -> ()
  | exception e ->
    Proc.kill_all ();
    prerr_endline ("sufbench: " ^ Printexc.to_string e);
    exit 1
