(* Tests for the propositional formula manager and Tseitin conversion. *)

module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit

let test_constants () =
  let ctx = F.create_ctx () in
  Alcotest.(check bool) "tru shared" true (F.tru ctx == F.tru ctx);
  Alcotest.(check bool) "not true = false" true
    (F.not_ ctx (F.tru ctx) == F.fls ctx);
  Alcotest.(check bool) "of_bool" true (F.of_bool ctx true == F.tru ctx)

let test_smart_constructors () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  Alcotest.(check bool) "and true" true (F.and_ ctx a (F.tru ctx) == a);
  Alcotest.(check bool) "and false" true
    (F.and_ ctx a (F.fls ctx) == F.fls ctx);
  Alcotest.(check bool) "or false" true (F.or_ ctx a (F.fls ctx) == a);
  Alcotest.(check bool) "or true" true (F.or_ ctx a (F.tru ctx) == F.tru ctx);
  Alcotest.(check bool) "idempotent and" true (F.and_ ctx a a == a);
  Alcotest.(check bool) "contradiction" true
    (F.and_ ctx a (F.not_ ctx a) == F.fls ctx);
  Alcotest.(check bool) "excluded middle" true
    (F.or_ ctx a (F.not_ ctx a) == F.tru ctx);
  Alcotest.(check bool) "double negation" true (F.not_ ctx (F.not_ ctx a) == a);
  Alcotest.(check bool) "commutative sharing" true
    (F.and_ ctx a b == F.and_ ctx b a)

let test_derived () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  let assign_of va vb i = if i = F.var_index a then va else vb in
  List.iter
    (fun (va, vb) ->
      let e = assign_of va vb in
      Alcotest.(check bool) "implies" (not va || vb) (F.eval e (F.implies ctx a b));
      Alcotest.(check bool) "iff" (va = vb) (F.eval e (F.iff ctx a b));
      Alcotest.(check bool) "xor" (va <> vb) (F.eval e (F.xor ctx a b));
      (* ite a b (iff a b): selects b when a holds, (a <=> b) otherwise *)
      Alcotest.(check bool) "ite"
        (if va then vb else va = vb)
        (F.eval e (F.ite ctx a b (F.iff ctx a b))))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_size_sharing () =
  let ctx = F.create_ctx () in
  let a = F.fresh_var ctx and b = F.fresh_var ctx in
  let ab = F.and_ ctx a b in
  let f = F.or_ ctx ab (F.not_ ctx ab) in
  (* or simplifies x ∨ ¬x to true *)
  Alcotest.(check bool) "tautology folded" true (f == F.tru ctx);
  let g = F.or_ ctx ab (F.and_ ctx ab a) in
  (* and_ ctx ab a is a distinct node; sharing keeps the size small *)
  Alcotest.(check bool) "size bounded" true (F.size g <= 5)

let test_var_errors () =
  let ctx = F.create_ctx () in
  Alcotest.(check bool) "unallocated var rejected" true
    (match F.var ctx 0 with exception Invalid_argument _ -> true | _ -> false);
  let v = F.fresh_var ctx in
  Alcotest.(check bool) "allocated ok" true (F.var ctx 0 == v);
  Alcotest.(check bool) "var_index of non-var" true
    (match F.var_index (F.tru ctx) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Random formula generator producing (formula, reference-eval closure). *)
let gen_formula nvars depth =
  let open QCheck2.Gen in
  let rec go ctx depth =
    if depth = 0 then
      oneof
        [
          map (fun i -> F.var ctx (i mod nvars)) (int_bound (nvars - 1));
          pure (F.tru ctx);
          pure (F.fls ctx);
        ]
    else
      oneof
        [
          map (fun i -> F.var ctx (i mod nvars)) (int_bound (nvars - 1));
          map (F.not_ ctx) (go ctx (depth - 1));
          map2 (F.and_ ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map2 (F.or_ ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map2 (F.xor ctx) (go ctx (depth - 1)) (go ctx (depth - 1));
          map3 (F.ite ctx) (go ctx (depth - 1)) (go ctx (depth - 1))
            (go ctx (depth - 1));
        ]
  in
  let ctx = F.create_ctx () in
  for _ = 1 to nvars do
    ignore (F.fresh_var ctx)
  done;
  map (fun f -> (ctx, f)) (go ctx depth)

(* Property: Tseitin encoding is equisatisfiable and model-faithful. The
   brute-force reference enumerates all assignments of the formula's
   variables. *)
let prop_tseitin_equisat =
  QCheck2.Test.make ~name:"tseitin equisatisfiable" ~count:300
    (gen_formula 5 4) (fun (_ctx, f) ->
      let nvars = 5 in
      let sat_brute =
        let rec loop a v =
          if v = nvars then F.eval (fun i -> a.(i)) f
          else begin
            a.(v) <- true;
            loop a (v + 1)
            ||
            (a.(v) <- false;
             loop a (v + 1))
          end
        in
        loop (Array.make nvars false) 0
      in
      let solver = Solver.create () in
      let ts = Tseitin.create solver in
      Tseitin.assert_root ts f;
      match Solver.solve solver with
      | Solver.Sat ->
        (* the decoded model must satisfy the formula *)
        let assign i =
          match Tseitin.find_var ts i with
          | Some lit -> Solver.value solver lit
          | None -> false
        in
        sat_brute && F.eval assign f
      | Solver.Unsat -> not sat_brute
      | Solver.Unknown -> false)

(* Property: evaluation respects the Boolean algebra laws used by the smart
   constructors. *)
let prop_eval_consistent =
  QCheck2.Test.make ~name:"simplification preserves evaluation" ~count:300
    QCheck2.Gen.(pair (gen_formula 4 4) (array_size (pure 4) bool))
    (fun ((ctx, f), assignment) ->
      let e i = assignment.(i) in
      (* rebuilding the formula through the constructors must not change its
         value *)
      let rec rebuild (g : F.t) =
        match g.F.node with
        | F.True -> F.tru ctx
        | F.False -> F.fls ctx
        | F.Var i -> F.var ctx i
        | F.Not h -> F.not_ ctx (rebuild h)
        | F.And (a, b) -> F.and_ ctx (rebuild a) (rebuild b)
        | F.Or (a, b) -> F.or_ ctx (rebuild a) (rebuild b)
      in
      F.eval e f = F.eval e (rebuild f))

let test_tseitin_clause_count () =
  let ctx = F.create_ctx () in
  let vars = Array.init 10 (fun _ -> F.fresh_var ctx) in
  let f = Array.fold_left (F.and_ ctx) (F.tru ctx) vars in
  (* Polarity: the conjunctive root splits into 10 unit clauses, no gates. *)
  let solver = Solver.create () in
  let ts = Tseitin.create solver in
  Tseitin.assert_root ts f;
  Alcotest.(check int) "polarity clauses" 10 (Tseitin.clauses_added ts)

let () =
  Alcotest.run "prop"
    [
      ( "formula",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "derived connectives" `Quick test_derived;
          Alcotest.test_case "size and sharing" `Quick test_size_sharing;
          Alcotest.test_case "variable errors" `Quick test_var_errors;
        ] );
      ( "tseitin",
        [
          Alcotest.test_case "clause count" `Quick test_tseitin_clause_count;
          QCheck_alcotest.to_alcotest prop_tseitin_equisat;
          QCheck_alcotest.to_alcotest prop_eval_consistent;
        ] );
    ]
