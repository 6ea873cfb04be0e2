module Ast = Sepsat_suf.Ast
module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Solver = Sepsat_sat.Solver
module Hybrid = Sepsat_encode.Hybrid
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Json_string = Sepsat_obs.Json_string

type outcome = Completed | Timed_out | Blew_up

type row = {
  bench : string;
  family : string;
  invariant_checking : bool;
  method_ : Decide.method_;
  size : int;
  sep_cnt : int;
  verdict : Verdict.t;
  outcome : outcome;
  total_time : float;
  wall_time : float;
  translate_time : float;
  sat_time : float;
  cnf_clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  trans_constraints : int;
  winner : Decide.method_ option;  (** portfolio runs only *)
  phase_times : (string * float) list;
  alloc_words : float;
  major_words : float;
  heap_words : int;
}

(* Every [run] appends its row here (newest first), so experiments render
   their tables as before while the bench driver exports the same
   measurements as machine-readable JSON afterwards. *)
let recorded : row list ref = ref []

let reset_recorded () = recorded := []

let recorded_rows () = List.rev !recorded

(* The separation-predicate estimate is a property of the formula, not of
   the method, so compute it through the standard pipeline. *)
let sep_count ctx formula =
  let elim = Sepsat_suf.Elim.eliminate ctx formula in
  let normalized = Sepsat_sep.Normal.normalize ctx elim.Sepsat_suf.Elim.formula in
  let classes =
    Sepsat_sep.Classes.build ~p_consts:elim.Sepsat_suf.Elim.p_consts normalized
  in
  Sepsat_sep.Classes.total_sep_cnt classes

let run ?(deadline_s = 30.) method_ (bench : Suite.benchmark) =
  let ctx = Ast.create_ctx () in
  let formula = bench.Suite.build ctx in
  let size = Ast.size formula in
  let sep_cnt = sep_count ctx formula in
  let deadline = Deadline.after deadline_s in
  (* [Gc.quick_stat] reads counters without forcing a collection, so the
     allocation/heap deltas are cheap enough to record on every row. *)
  let g0 = Gc.quick_stat () in
  let w0 = Deadline.wall_now () in
  let r =
    Obs.span ~cat:"bench"
      (Printf.sprintf "%s/%s" bench.Suite.name
         (Format.asprintf "%a" Decide.pp_method method_))
      (fun () -> Decide.decide ~method_ ~deadline ctx formula)
  in
  let w1 = Deadline.wall_now () in
  let g1 = Gc.quick_stat () in
  let alloc_words =
    g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  in
  let outcome =
    match r.Decide.verdict with
    | Verdict.Valid | Verdict.Invalid _ -> Completed
    | Verdict.Unknown "translation blowup" -> Blew_up
    | Verdict.Unknown _ -> Timed_out
  in
  let row =
    {
      bench = bench.Suite.name;
      family = Suite.family_name bench.Suite.family;
      invariant_checking = bench.Suite.invariant_checking;
      method_;
      size;
      sep_cnt;
      verdict = r.Decide.verdict;
      outcome;
      total_time = r.Decide.total_time;
      wall_time = w1 -. w0;
      translate_time = r.Decide.translate_time;
      sat_time = r.Decide.sat_time;
      cnf_clauses = r.Decide.cnf_clauses;
      conflicts =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.conflicts
        | None -> 0);
      decisions =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.decisions
        | None -> 0);
      propagations =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.propagations
        | None -> 0);
      trans_constraints =
        (match r.Decide.encode_stats with
        | Some es -> es.Hybrid.trans_constraints
        | None -> 0);
      winner = r.Decide.winner;
      phase_times = r.Decide.phase_times;
      alloc_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      heap_words = g1.Gc.heap_words;
    }
  in
  recorded := row :: !recorded;
  row

let penalized_time ~deadline_s row =
  match row.outcome with
  | Completed -> row.total_time
  | Timed_out | Blew_up -> deadline_s

let normalized_time ~deadline_s row =
  penalized_time ~deadline_s row /. (float_of_int (max row.size 1) /. 1000.)

(* -- Machine-readable export (hand-rolled JSON, no dependency) ------------ *)

let verdict_label = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown _ -> "unknown"

let outcome_label = function
  | Completed -> "completed"
  | Timed_out -> "timeout"
  | Blew_up -> "blowup"

let row_to_json row =
  let method_str = Format.asprintf "%a" Decide.pp_method row.method_ in
  let winner_str =
    match row.winner with
    | Some m -> Json_string.quote (Format.asprintf "%a" Decide.pp_method m)
    | None -> "null"
  in
  let phases_str =
    String.concat ", "
      (List.map
         (fun (name, t) -> Printf.sprintf "%s: %.6f" (Json_string.quote name) t)
         row.phase_times)
  in
  Printf.sprintf
    "{\"bench\": %s, \"family\": %s, \"method\": %s, \"verdict\": \
     \"%s\", \"outcome\": \"%s\", \"wall_time\": %.6f, \"cpu_time\": %.6f, \
     \"translate_time\": %.6f, \"sat_time\": %.6f, \"phase_times\": {%s}, \
     \"size\": %d, \"sep_cnt\": %d, \"cnf_clauses\": %d, \"conflicts\": %d, \
     \"decisions\": %d, \"propagations\": %d, \"winner\": %s, \"gc\": \
     {\"alloc_words\": %.0f, \"major_words\": %.0f, \"heap_words\": %d}}"
    (Json_string.quote row.bench)
    (Json_string.quote row.family)
    (Json_string.quote method_str)
    (verdict_label row.verdict)
    (outcome_label row.outcome)
    row.wall_time row.total_time row.translate_time row.sat_time phases_str
    row.size row.sep_cnt row.cnf_clauses row.conflicts row.decisions
    row.propagations winner_str row.alloc_words row.major_words row.heap_words

let rows_to_json rows =
  String.concat ""
    [ "[\n  "; String.concat ",\n  " (List.map row_to_json rows); "\n]" ]

(* Schema 2: the run array moved under "runs" to make room for process-wide
   GC telemetry and the observability metrics registry snapshot. *)
let report_to_json rows =
  let g = Gc.quick_stat () in
  let gc_json =
    Printf.sprintf
      "{\"minor_words\": %.0f, \"major_words\": %.0f, \"promoted_words\": \
       %.0f, \"minor_collections\": %d, \"major_collections\": %d, \
       \"heap_words\": %d, \"top_heap_words\": %d, \"compactions\": %d}"
      g.Gc.minor_words g.Gc.major_words g.Gc.promoted_words
      g.Gc.minor_collections g.Gc.major_collections g.Gc.heap_words
      g.Gc.top_heap_words g.Gc.compactions
  in
  String.concat ""
    [
      "{\n\"schema\": 2,\n\"runs\": ";
      rows_to_json rows;
      ",\n\"gc\": ";
      gc_json;
      ",\n\"metrics\": ";
      Metrics.to_json ();
      "\n}\n";
    ]

let write_json path rows =
  let oc = open_out path in
  output_string oc (report_to_json rows);
  close_out oc
