(* Workload generation. Every formula is built from the repository's own
   generators (or, for congruence chains, written out here), printed to
   SUF text, and tagged with the verdict its construction implies. The
   server only ever sees the text. *)

module Ast = Sepsat_suf.Ast
module W = Sepsat_workloads

type item = {
  name : string;
  text : string;
  valid : bool;  (** the verdict the construction implies *)
  may_blow_up : bool;
      (** an [unknown] from the EIJ translation budget is the documented
          outcome (paper Fig. 5); a decisive verdict must still match
          [valid] *)
  nodes : int;  (** [Ast.size], DAG nodes *)
}

let item ?(may_blow_up = false) name ~valid build =
  let ctx = Ast.create_ctx () in
  let f = build ctx in
  { name; text = Format.asprintf "%a" Ast.pp f; valid; may_blow_up;
    nodes = Ast.size f }

(* Healthy instances are valid and bug-planted ones invalid, except batch,
   whose healthy form claims an achievable joint scenario is impossible. *)
let pipe ~seed n bug =
  item (Printf.sprintf "pipe.n%d%s" n (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx ->
      W.Pipeline.formula ~bug ctx ~n_instructions:n ~seed)

let lsu n bug =
  item (Printf.sprintf "lsu.n%d%s" n (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx -> W.Load_store.formula ~bug ctx ~n_ops:n)

let cache n bug =
  item (Printf.sprintf "cache.n%d%s" n (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx -> W.Cache.formula ~bug ctx ~n_caches:n)

let tv ~seed n bug =
  item (Printf.sprintf "tv.n%d.s%d%s" n seed (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx ->
      W.Trans_valid.formula ~bug ctx ~n_blocks:n ~seed)

let drv ~seed n bug =
  item (Printf.sprintf "drv.n%d%s" n (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx ->
      W.Device_driver.formula ~bug ctx ~n_steps:n ~seed)

let batch u bug =
  item (Printf.sprintf "batch.u%d%s" u (if bug then ".bug" else ""))
    ~valid:bug (fun ctx -> W.Batch.formula ~bug ctx ~n_units:u ~n_ops:16)

let ooo ?may_blow_up n bug =
  item ?may_blow_up (Printf.sprintf "ooo.n%d%s" n (if bug then ".bug" else ""))
    ~valid:(not bug) (fun ctx -> W.Ooo_invariant.formula ~bug ctx ~n_entries:n)

(* x = y ⟹ f^d(x) = f^d(y) is valid by congruence; without the hypothesis
   it is invalid. Elimination turns the nesting into ITE case splits that
   the SAT search must refute. *)
let chain d ~valid =
  let rec app d x = if d = 0 then x else Printf.sprintf "(f %s)" (app (d - 1) x) in
  let eq = Printf.sprintf "(= %s %s)" (app d "x") (app d "y") in
  let text = if valid then Printf.sprintf "(or (not (= x y)) %s)" eq else eq in
  item (Printf.sprintf "chain.d%d%s" d (if valid then "" else ".bug")) ~valid
    (fun ctx -> Sepsat_suf.Parse.formula ctx text)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Exactly [k] of [n] flags set, which ones chosen by [st]. *)
let balanced_flags st n k = shuffle st (List.init n (fun i -> i < k))

(* The seed varies pipeline commit permutations and which instances carry a
   planted bug; it never varies instance sizes or their order, so the work
   per run stays comparable across seeds (the order sets the server's peak
   heap). *)
let eij_translate ~seed =
  let st = rng seed 1 in
  let pipes =
    List.map2 (fun n bug -> pipe ~seed:(31 * seed + n) n bug)
      [ 8; 10; 12; 14 ] (balanced_flags st 4 2)
  in
  let bug = Random.State.bool st in
  pipes
  @ [
      (* Generator seed fixed: schedules of other seeds cost from 0.3x to 6x
         this one at the same size. *)
      tv ~seed:0 10 bug;
      batch 8 (not bug);
      batch 12 bug;
      (* Healthy always: its planted bug cuts this formula's time by about
         a quarter, near a tenth of the workload's. *)
      ooo 12 false;
      ooo ~may_blow_up:true 16 false;
    ]

let sd_search ~seed =
  let st = rng seed 2 in
  let s = 1 + Random.State.int st 1000 in
  [
    lsu 22 false; lsu 26 true; lsu 30 false;
    tv ~seed:s 21 false; tv ~seed:s 28 true; tv ~seed:s 36 false;
    chain 6 ~valid:false; chain 7 ~valid:true; chain 8 ~valid:false;
    chain 9 ~valid:true;
  ]

(* The served pool: small and medium formulas, each healthy and buggy. It
   is the same for every seed, which draws the request stream and its
   arrival times instead: the pool's costs are what a run measures, and
   some generators' costs swing several-fold with their own seed. *)
let pool_bases =
  List.concat_map
    (fun bug ->
      List.map (fun n -> pipe ~seed:n n bug) [ 2; 3; 4; 5 ]
      @ List.map (fun n -> lsu n bug) [ 3; 5; 8; 10; 12 ]
      @ List.map (fun n -> cache n bug) [ 3; 4; 6; 8 ]
      @ List.map (fun n -> tv ~seed:5 n bug) [ 3; 4; 5 ]
      @ List.map (fun n -> drv ~seed:5 n bug) [ 6; 10; 16; 24 ])
    [ false; true ]

let keywords =
  [ "true"; "false"; "not"; "and"; "or"; "=>"; "iff"; "ite"; "="; "<"; "<=";
    ">"; ">="; "succ"; "pred"; "+"; "-" ]

(* Alpha-renames every symbol, giving a structurally distinct formula (a
   new cache key) of the same shape and cost. *)
let rename k text =
  let b = Buffer.create (String.length text * 5 / 4) in
  let n = String.length text in
  let sep c = c = '(' || c = ')' || c = ' ' || c = '\n' || c = '\t' in
  let i = ref 0 in
  while !i < n do
    if sep text.[!i] then begin
      Buffer.add_char b text.[!i];
      incr i
    end
    else begin
      let j = ref !i in
      while !j < n && not (sep text.[!j]) do incr j done;
      let tok = String.sub text !i (!j - !i) in
      Buffer.add_string b tok;
      if not (List.mem tok keywords || int_of_string_opt tok <> None) then
        Printf.bprintf b "_%d" k;
      i := !j
    end
  done;
  Buffer.contents b

type request = { base : item; req_text : string; repeat : bool }

(* [n] requests: two in five, at seeded positions, repeat an earlier
   request picked uniformly, so formulas that were popular early keep
   drawing repeats (skewed popularity); the others are the next base of a
   seeded cycle under a fresh renaming. The share is fixed, not drawn per
   request, and kept off one half: at exactly one half the median latency
   falls on the edge between the hit and miss clusters and jumps between
   them from run to run. Fresh requests walk the whole pool evenly, so the
   cost of the misses does not depend on the seed. Renamings
   are numbered from [1 + 1000 * ns]: streams of different [ns] share no
   formula, and none is a pool base as printed. *)
let stream ~seed ~ns bases n =
  let st = rng seed (100 + ns) in
  let bases = Array.of_list bases in
  let nb = Array.length bases in
  let order = ref [||] in
  let fresh = ref 0 in
  let sent = Array.make n (bases.(0), "") in
  let flags = Array.of_list (balanced_flags st (n - 1) (2 * (n - 1) / 5)) in
  Array.init n (fun i ->
      let repeat = i > 0 && flags.(i - 1) in
      let base, text =
        if repeat then sent.(Random.State.int st i)
        else begin
          if !fresh mod nb = 0 then
            order := Array.of_list (shuffle st (Array.to_list bases));
          let base = !order.(!fresh mod nb) in
          let k = 1 + (1000 * ns) + (!fresh / nb) in
          incr fresh;
          (base, rename k base.text)
        end
      in
      sent.(i) <- (base, text);
      { base; req_text = text; repeat })
