module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit

type mode = Polarity

type t = {
  solver : Solver.t;
  var_lits : (int, Lit.t) Hashtbl.t;  (* formula var index -> solver literal *)
  memo : (int, Lit.t) Hashtbl.t;  (* formula node id -> solver literal *)
  done_pos : (int, unit) Hashtbl.t;  (* gate ids with l => def clauses out *)
  done_neg : (int, unit) Hashtbl.t;  (* gate ids with def => l clauses out *)
  root_done : (int, unit) Hashtbl.t;  (* nodes already asserted as roots *)
  mutable const_true : Lit.t option;
  mutable n_clauses : int;
}

(* Cap on n-ary flattening: an And/Or spine wider than this is split into
   nested gates so no single definition clause grows unboundedly (long
   clauses slow the two-watched-literal scheme's new-watch scan). *)
let max_width = 64

let create ?mode:_ solver =
  {
    solver;
    var_lits = Hashtbl.create 256;
    memo = Hashtbl.create 1024;
    done_pos = Hashtbl.create 1024;
    done_neg = Hashtbl.create 1024;
    root_done = Hashtbl.create 64;
    const_true = None;
    n_clauses = 0;
  }

(* One registry-wide counter across every converter instance. *)
let m_clauses = lazy (Sepsat_obs.Metrics.counter "cnf.clauses")

let add_clause t c =
  t.n_clauses <- t.n_clauses + 1;
  Sepsat_obs.Metrics.incr (Lazy.force m_clauses);
  Solver.add_clause t.solver c

let lit_of_var t i =
  match Hashtbl.find_opt t.var_lits i with
  | Some l -> l
  | None ->
    let l = Lit.pos (Solver.new_var t.solver) in
    Hashtbl.add t.var_lits i l;
    l

let find_var t i = Hashtbl.find_opt t.var_lits i

let true_lit t =
  match t.const_true with
  | Some l -> l
  | None ->
    let l = Lit.pos (Solver.new_var t.solver) in
    add_clause t [ l ];
    t.const_true <- Some l;
    l

let gate_lit t (f : Formula.t) =
  match Hashtbl.find_opt t.memo f.id with
  | Some l -> l
  | None ->
    let l = Lit.pos (Solver.new_var t.solver) in
    Hashtbl.add t.memo f.id l;
    l

(* Children of the same-connective spine rooted at [f] (an And or Or gate),
   deduplicated. Flattening stops at nodes that already carry a gate literal
   (shared subformulas keep their single definition) and at [max_width]. *)
let gather t (f : Formula.t) =
  let is_and = match f.node with Formula.And _ -> true | _ -> false in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let count = ref 0 in
  let rec go (g : Formula.t) =
    let flatten =
      !count < max_width
      && (not (Hashtbl.mem t.memo g.id))
      &&
      match (g.node, is_and) with
      | Formula.And _, true | Formula.Or _, false -> true
      | _ -> false
    in
    if flatten then
      match g.node with
      | Formula.And (a, b) | Formula.Or (a, b) ->
        go a;
        go b
      | _ -> assert false
    else if not (Hashtbl.mem seen g.id) then begin
      Hashtbl.add seen g.id ();
      acc := g :: !acc;
      incr count
    end
  in
  (match f.node with
  | Formula.And (a, b) | Formula.Or (a, b) ->
    go a;
    go b
  | _ -> assert false);
  List.rev !acc

(* Returns the literal for [f], emitting only the definition directions that
   the occurrence polarity demands: [pos] asks for l => def (the node occurs
   under an even number of negations), [neg] for def => l. Directions are
   tracked per gate, so a shared node seen under both polarities ends up
   fully defined while single-polarity nodes stay at half price. *)
let rec encode_pg t (f : Formula.t) ~pos ~neg =
  match f.node with
  | Formula.True -> true_lit t
  | Formula.False -> Lit.neg (true_lit t)
  | Formula.Var i -> lit_of_var t i
  | Formula.Not g -> Lit.neg (encode_pg t g ~pos:neg ~neg:pos)
  | Formula.And _ | Formula.Or _ ->
    let l = gate_lit t f in
    let need_pos = pos && not (Hashtbl.mem t.done_pos f.id) in
    let need_neg = neg && not (Hashtbl.mem t.done_neg f.id) in
    if need_pos then Hashtbl.add t.done_pos f.id ();
    if need_neg then Hashtbl.add t.done_neg f.id ();
    if need_pos || need_neg then begin
      let children = gather t f in
      let clits =
        List.map (fun g -> encode_pg t g ~pos:need_pos ~neg:need_neg) children
      in
      match f.node with
      | Formula.And _ ->
        if need_pos then
          List.iter (fun c -> add_clause t [ Lit.neg l; c ]) clits;
        if need_neg then add_clause t (l :: List.map Lit.neg clits)
      | Formula.Or _ ->
        if need_pos then add_clause t (Lit.neg l :: clits);
        if need_neg then
          List.iter (fun c -> add_clause t [ l; Lit.neg c ]) clits
      | _ -> assert false
    end;
    l

let rec assert_root t (f : Formula.t) =
  if not (Hashtbl.mem t.root_done f.id) then begin
    Hashtbl.add t.root_done f.id ();
    match f.node with
    | Formula.True -> ()
    | Formula.False -> add_clause t []
    | Formula.And (a, b) when not (Hashtbl.mem t.memo f.id) ->
      (* A conjunctive root splits into several roots: no gate variable, no
         definition clauses. *)
      assert_root t a;
      assert_root t b
    | Formula.Or _ when not (Hashtbl.mem t.memo f.id) ->
      (* A disjunctive root becomes a single clause over its children. *)
      let clits =
        List.map (fun g -> encode_pg t g ~pos:true ~neg:false) (gather t f)
      in
      add_clause t clits
    | _ -> add_clause t [ encode_pg t f ~pos:true ~neg:false ]
  end

let clauses_added t = t.n_clauses
