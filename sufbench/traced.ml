(* The traced run: the pipeline's stages called one by one in process, in
   [Decide]'s order, each wrapped in a span timed by the benchmark's own
   clock with the minor-heap allocation around it. Each formula is also
   decided by [Decide.decide], untraced, to check that the stages measured
   here are the program users run. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Elim = Sepsat_suf.Elim
module Hybrid = Sepsat_encode.Hybrid
module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module P = Sepsat_serve.Protocol

let now = Sepsat_obs.Clock.mono_now

type span = {
  id : int;
  parent : int;  (** 0 for a formula's root span *)
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
}

let spans : span list ref = ref []

let next_id = ref 0

let span ~parent name f =
  incr next_id;
  let id = !next_id in
  let w0 = Gc.minor_words () and t0 = now () in
  let finish () =
    spans :=
      { id; parent; name; t0; t1 = now ();
        minor_words = Gc.minor_words () -. w0 }
      :: !spans
  in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Layer counters summed over the run's formulas. *)
type counts = {
  mutable elim_apps : int;
  mutable trans_constraints : int;
  mutable eij_predicates : int;
  mutable sd_classes : int;
  mutable eij_classes : int;
  mutable bool_size : int;
  mutable blowups : int;
  mutable blowup_s : float;  (** encode time that ended in a blowup *)
  mutable cnf_clauses : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable bad_witnesses : int;  (** invalid verdicts whose witness held *)
}

let counts =
  { elim_apps = 0; trans_constraints = 0; eij_predicates = 0; sd_classes = 0;
    eij_classes = 0; bool_size = 0; blowups = 0; blowup_s = 0.; cnf_clauses = 0;
    conflicts = 0; decisions = 0; propagations = 0; bad_witnesses = 0 }

let config = Hybrid.hybrid ~threshold:700 ()

type outcome = { verdict : P.verdict; clauses : int }

(* Returns the stage-by-stage outcome. An [Invalid] verdict's witness must
   falsify the formula as parsed; [counts.bad_witnesses] counts those that
   do not. *)
let pipeline text =
  span ~parent:0 "formula" @@ fun root ->
  let ctx = Ast.create_ctx () in
  let f = span ~parent:root "suf.parse" (fun _ -> Parse.formula ctx text) in
  let elim = span ~parent:root "suf.elim" (fun _ -> Elim.eliminate ctx f) in
  counts.elim_apps <- counts.elim_apps + List.length elim.Elim.defs;
  let t0 = now () in
  match
    span ~parent:root "encode" (fun _ ->
        Hybrid.encode ~config ctx ~p_consts:elim.Elim.p_consts
          elim.Elim.formula)
  with
  | exception Hybrid.Translation_blowup ->
    counts.blowups <- counts.blowups + 1;
    counts.blowup_s <- counts.blowup_s +. (now () -. t0);
    { verdict = P.Unknown "translation blowup"; clauses = 0 }
  | enc ->
    let st = enc.Hybrid.stats in
    counts.trans_constraints <- counts.trans_constraints + st.Hybrid.trans_constraints;
    counts.eij_predicates <- counts.eij_predicates + st.Hybrid.eij_predicates;
    counts.sd_classes <- counts.sd_classes + st.Hybrid.sd_classes;
    counts.eij_classes <- counts.eij_classes + st.Hybrid.eij_classes;
    counts.bool_size <- counts.bool_size + st.Hybrid.bool_size;
    let solver, ts =
      span ~parent:root "cnf" (fun _ ->
          let solver = Solver.create () in
          Solver.set_simplify solver (Decide.simplify_default ());
          let ts = Tseitin.create ~mode:Tseitin.Polarity solver in
          Tseitin.assert_root ts (F.not_ enc.Hybrid.prop_ctx enc.Hybrid.f_bool);
          (solver, ts))
    in
    let clauses = Tseitin.clauses_added ts in
    counts.cnf_clauses <- counts.cnf_clauses + clauses;
    let res = span ~parent:root "sat" (fun _ -> Solver.solve solver) in
    let ss = Solver.stats solver in
    counts.conflicts <- counts.conflicts + ss.Solver.conflicts;
    counts.decisions <- counts.decisions + ss.Solver.decisions;
    counts.propagations <- counts.propagations + ss.Solver.propagations;
    (match res with
    | Solver.Sat ->
      let w =
        span ~parent:root "witness" (fun _ ->
            let assign i =
              match Tseitin.find_var ts i with
              | Some l -> Solver.value solver l
              | None -> false
            in
            Witness.of_assignment elim (enc.Hybrid.decode assign))
      in
      if not (Witness.falsifies w f) then
        counts.bad_witnesses <- counts.bad_witnesses + 1
    | Solver.Unsat | Solver.Unknown -> ());
    let verdict =
      match res with
      | Solver.Unsat -> P.Valid
      | Solver.Sat -> P.Invalid
      | Solver.Unknown -> P.Unknown "timeout"
    in
    { verdict; clauses }

let reference text =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx text in
  let t0 = now () in
  let r = Decide.decide ~method_:(Decide.Hybrid_at 700) ctx f in
  let dt = now () -. t0 in
  ({ verdict = P.verdict_of_sep r.Decide.verdict; clauses = r.Decide.cnf_clauses },
    dt)

(* Sum of the durations of spans named [name], and their allocation. *)
let layer name =
  List.fold_left
    (fun (s, w) sp ->
      if sp.name = name then (s +. (sp.t1 -. sp.t0), w +. sp.minor_words)
      else (s, w))
    (0., 0.) !spans

let roots () = List.filter (fun sp -> sp.parent = 0) !spans

(* Chrome trace_event document of every span, written once at the end. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f}}"
        (if i = 0 then "" else ",")
        sp.name (sp.t0 *. 1e6) ((sp.t1 -. sp.t0) *. 1e6) sp.id sp.parent
        sp.minor_words)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
