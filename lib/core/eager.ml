module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline

type t = {
  solver : Solver.t;
  tseitin : Tseitin.t;
  proof : Sepsat_sat.Proof.t option;
}

let load ~simplify ?stop ?(certify = false) ctx root =
  let solver = Solver.create () in
  Solver.set_simplify solver simplify;
  Option.iter (Solver.set_stop solver) stop;
  (* The proof must start before the first clause. *)
  let proof = if certify then Some (Solver.start_proof solver) else None in
  let tseitin = Tseitin.create solver in
  Tseitin.assert_root tseitin (F.not_ ctx root);
  { solver; tseitin; proof }

let check ~deadline ~decode t =
  match Solver.solve ~deadline t.solver with
  | Solver.Unsat ->
    (Verdict.Valid, Option.map Sepsat_sat.Drup_check.certified t.proof)
  | Solver.Sat ->
    let assign i =
      match Tseitin.find_var t.tseitin i with
      | Some lit -> Solver.value t.solver lit
      | None -> false
    in
    (Verdict.Invalid (decode assign), None)
  | Solver.Unknown ->
    (* The deadline also counts as exceeded once its stop flag is up, so the
       flags, not the clock, tell a cancellation from a timeout. *)
    let cancelled =
      Deadline.interrupted deadline || Solver.interrupted t.solver
    in
    (Verdict.Unknown (if cancelled then "cancelled" else "timeout"), None)

let solver t = t.solver

let clauses t = Tseitin.clauses_added t.tseitin
