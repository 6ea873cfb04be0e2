(** The eager pipeline's last step: CNF → SAT → verdict.

    Every caller that turns a propositional encoding into a verdict goes
    through {!load} and {!check}: the eager methods ({!Decide}), each worker
    of the component pool ({!Parallel}), DIMACS export and the
    positive-equality ablation. So there is one CNF conversion
    (polarity-aware {!Sepsat_prop.Tseitin}), one model decode, one DRUP
    replay and one rule for naming an [Unknown]. *)

type t
(** A SAT solver holding the CNF of one negated validity query. *)

val load :
  simplify:bool ->
  ?stop:bool Atomic.t ->
  ?certify:bool ->
  Sepsat_prop.Formula.ctx ->
  Sepsat_prop.Formula.t ->
  t
(** [load ~simplify ctx root] builds a solver with SatELite-style
    preprocessing per [simplify], polling [stop], logging a DRUP proof when
    [certify] (default [false]), and asserts the CNF of [¬root]. *)

val check :
  deadline:Sepsat_util.Deadline.t ->
  decode:((int -> bool) -> Sepsat_sep.Brute.assignment) ->
  t ->
  Sepsat_sep.Verdict.t * bool option
(** Solves under [deadline]. Unsatisfiable gives [Valid] with, when loaded
    with [~certify:true], the DRUP replay's result; satisfiable gives
    [Invalid (decode model)], a variable that never reached the solver
    reading [false]; out of budget gives [Unknown "cancelled"] if a stop
    flag of the deadline or the solver is up, [Unknown "timeout"]
    otherwise. *)

val solver : t -> Sepsat_sat.Solver.t

val clauses : t -> int
(** CNF clauses the conversion pushed into the solver. *)
