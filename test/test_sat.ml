(* The SAT solver is validated against brute-force enumeration on random
   instances, plus directed tests: unit propagation chains, pigeonhole
   principle (unsat), assumptions, and incremental use.

   Every case runs once per solver configuration a retry may use (see
   [Solver_configs]). *)

module S = Sat.Solver

let make_solver cfg nvars =
  let s = S.create ~config:cfg () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  s

(* A CNF is a list of clauses; a clause a list of (var, sign). *)
let brute_force nvars cnf =
  let rec go assignment v =
    if v = nvars then
      List.for_all
        (fun clause ->
          List.exists (fun (x, sign) -> assignment.(x) = sign) clause)
        cnf
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make nvars false) 0

let solve_cnf cfg nvars cnf =
  let s = make_solver cfg nvars in
  List.iter (fun clause -> S.add_clause s (List.map (fun (v, sign) -> S.lit v sign) clause)) cnf;
  (s, S.solve s)

let check_model s cnf =
  List.for_all
    (fun clause -> List.exists (fun (v, sign) -> S.value s v = sign) clause)
    cnf

let random_cnf st nvars nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Random.State.int st 4 in
      List.init len (fun _ ->
          (Random.State.int st nvars, Random.State.bool st)))

let prop_random_cnf cfg seed =
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 12 in
  let nclauses = 1 + Random.State.int st 50 in
  let cnf = random_cnf st nvars nclauses in
  let expected = brute_force nvars cnf in
  let s, result = solve_cnf cfg nvars cnf in
  match result with
  | S.Sat -> expected && check_model s cnf
  | S.Unsat -> not expected

let prop_assumptions cfg seed =
  (* Solving under assumptions must agree with adding them as unit
     clauses, and must not poison later solves. *)
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 10 in
  let cnf = random_cnf st nvars (1 + Random.State.int st 30) in
  let n_assum = 1 + Random.State.int st 3 in
  let assum = List.init n_assum (fun _ -> (Random.State.int st nvars, Random.State.bool st)) in
  let s, _ = solve_cnf cfg nvars cnf in
  let assumptions = List.map (fun (v, sign) -> S.lit v sign) assum in
  let with_assumptions = S.solve ~assumptions s in
  let expected =
    brute_force nvars (cnf @ List.map (fun a -> [ a ]) assum)
  in
  let plain_after = S.solve s in
  let plain_expected = brute_force nvars cnf in
  (match with_assumptions with S.Sat -> expected | S.Unsat -> not expected)
  && (match plain_after with S.Sat -> plain_expected | S.Unsat -> not plain_expected)

let prop_incremental cfg seed =
  (* Adding clauses one batch at a time must give the same verdicts as
     solving each prefix from scratch. *)
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 10 in
  let batches = List.init 3 (fun _ -> random_cnf st nvars (1 + Random.State.int st 15)) in
  let s = make_solver cfg nvars in
  let acc = ref [] in
  List.for_all
    (fun batch ->
      acc := !acc @ batch;
      List.iter
        (fun clause ->
          S.add_clause s (List.map (fun (v, sign) -> S.lit v sign) clause))
        batch;
      let expected = brute_force nvars !acc in
      match S.solve s with S.Sat -> expected | S.Unsat -> not expected)
    batches

let test_trivial cfg () =
  let s = make_solver cfg 2 in
  Alcotest.(check bool) "empty instance sat" true (S.solve s = S.Sat);
  S.add_clause s [ S.lit 0 true ];
  S.add_clause s [ S.lit 0 false; S.lit 1 true ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v0" true (S.value s 0);
  Alcotest.(check bool) "v1 implied" true (S.value s 1);
  S.add_clause s [ S.lit 1 false ];
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat)

let test_empty_clause cfg () =
  let s = make_solver cfg 1 in
  S.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (S.solve s = S.Unsat)

let test_pigeonhole cfg () =
  (* PHP(n+1, n): n+1 pigeons in n holes, classic unsat family that
     requires real conflict analysis. Variable p*n + h = pigeon p in hole
     h. *)
  let pigeons = 5 and holes = 4 in
  let s = make_solver cfg (pigeons * holes) in
  let v p h = (p * holes) + h in
  for p = 0 to pigeons - 1 do
    S.add_clause s (List.init holes (fun h -> S.lit (v p h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        S.add_clause s [ S.lit (v p1 h) false; S.lit (v p2 h) false ]
      done
    done
  done;
  Alcotest.(check bool) "pigeonhole unsat" true (S.solve s = S.Unsat)

let test_graph_coloring cfg () =
  (* 3-coloring of a 5-cycle is satisfiable; 2-coloring is not. *)
  let cycle = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let solve_coloring colors =
    let s = make_solver cfg (5 * colors) in
    let v node c = (node * colors) + c in
    for node = 0 to 4 do
      S.add_clause s (List.init colors (fun c -> S.lit (v node c) true))
    done;
    List.iter
      (fun (a, b) ->
        for c = 0 to colors - 1 do
          S.add_clause s [ S.lit (v a c) false; S.lit (v b c) false ]
        done)
      cycle;
    S.solve s
  in
  Alcotest.(check bool) "3-colorable" true (solve_coloring 3 = S.Sat);
  Alcotest.(check bool) "not 2-colorable" true (solve_coloring 2 = S.Unsat)

let test_assumption_basics cfg () =
  let s = make_solver cfg 2 in
  S.add_clause s [ S.lit 0 false; S.lit 1 true ];
  Alcotest.(check bool) "assume x0 -> sat with x1" true
    (S.solve ~assumptions:[ S.lit 0 true ] s = S.Sat && S.value s 1);
  Alcotest.(check bool) "conflicting assumptions unsat" true
    (S.solve ~assumptions:[ S.lit 1 false; S.lit 0 true ] s = S.Unsat);
  Alcotest.(check bool) "recovers" true (S.solve s = S.Sat)

let test_larger_random_unsat cfg () =
  (* A dense random instance far above the sat threshold: should be unsat
     and exercise restarts/learning. 20 vars, clause ratio ~ 10. *)
  let st = Random.State.make [| 42 |] in
  let nvars = 20 in
  let cnf =
    List.init 200 (fun _ ->
        List.init 3 (fun _ -> (Random.State.int st nvars, Random.State.bool st)))
  in
  let _, result = solve_cnf cfg nvars cnf in
  let expected = brute_force nvars cnf in
  Alcotest.(check bool) "matches brute force" true
    (match result with S.Sat -> expected | S.Unsat -> not expected)

let test_implication_chain cfg () =
  (* x0 and a 300-long implication chain force every variable true; the
     model must reflect the full propagation. *)
  let n = 300 in
  let s = make_solver cfg n in
  S.add_clause s [ S.lit 0 true ];
  for i = 0 to n - 2 do
    S.add_clause s [ S.lit i false; S.lit (i + 1) true ]
  done;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  for i = 0 to n - 1 do
    if not (S.value s i) then Alcotest.failf "x%d not propagated" i
  done;
  Alcotest.(check bool) "propagations counted" true (S.num_propagations s >= n - 1);
  (* Now close the chain into a contradiction. *)
  S.add_clause s [ S.lit (n - 1) false ];
  Alcotest.(check bool) "contradiction" true (S.solve s = S.Unsat)

let test_resolve_no_repropagation cfg () =
  (* The level-0 trail is propagated once: re-solving the unchanged
     300-literal implication chain must not walk it again. *)
  let n = 300 in
  let s = make_solver cfg n in
  S.add_clause s [ S.lit 0 true ];
  for i = 0 to n - 2 do
    S.add_clause s [ S.lit i false; S.lit (i + 1) true ]
  done;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check int) "first solve propagates the chain" n
    (S.last_solve s).S.s_propagations;
  Alcotest.(check bool) "still sat" true (S.solve s = S.Sat);
  Alcotest.(check int) "re-solve propagates nothing" 0
    (S.last_solve s).S.s_propagations;
  Alcotest.(check bool) "model intact" true (S.value s (n - 1))

let test_xor_chain_unsat cfg () =
  (* Tseitin-encoded xor chain with contradictory endpoints: classic
     resolution-hard family at small size. y_i = y_{i-1} xor x_i. *)
  let n = 12 in
  let s = make_solver cfg (2 * n + 1) in
  let y i = i and x i = n + i in
  let xor_clauses a b c =
    (* c = a xor b *)
    S.add_clause s [ S.lit c false; S.lit a true; S.lit b true ];
    S.add_clause s [ S.lit c false; S.lit a false; S.lit b false ];
    S.add_clause s [ S.lit c true; S.lit a false; S.lit b true ];
    S.add_clause s [ S.lit c true; S.lit a true; S.lit b false ]
  in
  for i = 1 to n - 1 do
    xor_clauses (y (i - 1)) (x i) (y i)
  done;
  (* Pin every x_i to false, y0 true, y_{n-1} false: unsat since the
     chain preserves y. *)
  for i = 1 to n - 1 do
    S.add_clause s [ S.lit (x i) false ]
  done;
  S.add_clause s [ S.lit (y 0) true ];
  S.add_clause s [ S.lit (y (n - 1)) false ];
  Alcotest.(check bool) "xor chain unsat" true (S.solve s = S.Unsat)

(* {1 Activation literals and per-query statistics — the incremental
   BMC protocol} *)

let test_activation_lifecycle cfg () =
  (* One clause group per activation literal: dormant until assumed,
     selectable per query, and permanently disabled by [retire]. *)
  let s = make_solver cfg 1 in
  let a1 = S.new_act s in
  let a2 = S.new_act s in
  S.add_clause_act s ~act:a1 [ S.lit 0 true ];
  S.add_clause_act s ~act:a2 [ S.lit 0 false ];
  (* Dormant groups constrain nothing. *)
  Alcotest.(check bool) "dormant" true (S.solve s = S.Sat);
  (* Each group is selectable on its own... *)
  Alcotest.(check bool) "group 1" true
    (S.solve ~assumptions:[ a1 ] s = S.Sat && S.value s 0);
  Alcotest.(check bool) "group 2" true
    (S.solve ~assumptions:[ a2 ] s = S.Sat && not (S.value s 0));
  (* ...and the two together are contradictory. *)
  Alcotest.(check bool) "both groups" true
    (S.solve ~assumptions:[ a1; a2 ] s = S.Unsat);
  (* Retiring group 1 disables it even when its literal is assumed. *)
  S.retire s a1;
  Alcotest.(check bool) "retired group cannot be re-selected" true
    (S.solve ~assumptions:[ a1 ] s = S.Unsat);
  Alcotest.(check bool) "survivor unaffected" true
    (S.solve ~assumptions:[ a2 ] s = S.Sat && not (S.value s 0));
  (* A fresh group can take over the retired one's role. *)
  let a3 = S.new_act s in
  S.add_clause_act s ~act:a3 [ S.lit 0 true ];
  Alcotest.(check bool) "re-added group selectable" true
    (S.solve ~assumptions:[ a3 ] s = S.Sat && S.value s 0);
  Alcotest.(check bool) "re-added vs survivor unsat" true
    (S.solve ~assumptions:[ a3; a2 ] s = S.Unsat)

(* Pigeonhole clauses over a fresh or shared solver, guarded by [act]
   when given: the crafted hard instance for the reuse tests. *)
let add_php ?act s ~pigeons ~holes ~base =
  let v p h = base + (p * holes) + h in
  let add =
    match act with
    | Some act -> fun c -> S.add_clause_act s ~act c
    | None -> fun c -> S.add_clause s c
  in
  for p = 0 to pigeons - 1 do
    add (List.init holes (fun h -> S.lit (v p h) true))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        add [ S.lit (v p1 h) false; S.lit (v p2 h) false ]
      done
    done
  done

let test_learnt_survival cfg () =
  (* The point of keeping one solver alive: clauses learnt by query N
     make query N+1 cheaper than solving it from scratch. Query the same
     guarded pigeonhole group twice on one instance; a fresh solver
     facing the identical question is the scratch baseline. *)
  let pigeons = 6 and holes = 5 in
  let persistent = make_solver cfg (pigeons * holes) in
  let act = S.new_act persistent in
  add_php ~act persistent ~pigeons ~holes ~base:0;
  Alcotest.(check bool) "query 1 unsat" true
    (S.solve ~assumptions:[ act ] persistent = S.Unsat);
  let first = (S.last_solve persistent).S.s_conflicts in
  Alcotest.(check bool) "query 1 needed real search" true (first > 0);
  Alcotest.(check bool) "query 2 unsat" true
    (S.solve ~assumptions:[ act ] persistent = S.Unsat);
  let second = (S.last_solve persistent).S.s_conflicts in
  let scratch = make_solver cfg (pigeons * holes) in
  add_php scratch ~pigeons ~holes ~base:0;
  Alcotest.(check bool) "scratch baseline unsat" true (S.solve scratch = S.Unsat);
  let baseline = (S.last_solve scratch).S.s_conflicts in
  if second >= baseline then
    Alcotest.failf
      "learnt clauses did not survive: query 2 took %d conflicts, scratch %d"
      second baseline

let test_last_solve_resets cfg () =
  (* [last_solve] is a per-query delta — each solve re-bases it — while
     [stats] stays cumulative across the instance's lifetime. *)
  let s = make_solver cfg 20 in
  add_php s ~pigeons:5 ~holes:4 ~base:0;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let q1 = (S.last_solve s).S.s_conflicts in
  let total1 = (S.stats s).S.s_conflicts in
  Alcotest.(check int) "first query: delta equals cumulative" total1 q1;
  Alcotest.(check bool) "the instance was not free" true (q1 > 0);
  (* A root-level-unsat instance answers immediately: the delta must
     re-base to 0, not carry query 1's conflicts. *)
  Alcotest.(check bool) "still unsat" true (S.solve s = S.Unsat);
  let q2 = (S.last_solve s).S.s_conflicts in
  Alcotest.(check int) "second query: delta re-based" 0 q2;
  Alcotest.(check int) "cumulative untouched by re-basing" total1
    (S.stats s).S.s_conflicts;
  (* Size fields stay absolute in both views. *)
  Alcotest.(check int) "last_solve vars absolute" (S.num_vars s)
    (S.last_solve s).S.s_vars

(* {1 Clause-database churn}

   [reduce_db] only fires above max(1000, clauses/3) live learnts, so
   these instances are sized to cross that threshold: the arena is
   compacted mid-search while reason clauses are locked on the trail. *)

let test_reduce_pigeonhole cfg () =
  let s = make_solver cfg (9 * 8) in
  add_php s ~pigeons:9 ~holes:8 ~base:0;
  Alcotest.(check bool) "PHP(9,8) unsat" true (S.solve s = S.Unsat);
  let st = S.last_solve s in
  if st.S.s_reduces = 0 then
    Alcotest.failf "no learnt-clause reduction in %d conflicts" st.S.s_conflicts

(* Random 3-SAT over [nvars] with a planted solution: every clause is
   drawn until the planted assignment satisfies it, so the instance is
   satisfiable and the returned model can be checked. *)
let planted_3sat st ~nvars ~nclauses =
  let planted = Array.init nvars (fun _ -> Random.State.bool st) in
  let rec clause () =
    let c = List.init 3 (fun _ -> (Random.State.int st nvars, Random.State.bool st)) in
    if List.exists (fun (v, sign) -> planted.(v) = sign) c then c else clause ()
  in
  List.init nclauses (fun _ -> clause ())

let test_reduce_planted cfg () =
  let reduces = ref 0 in
  for seed = 1 to 5 do
    let st = Random.State.make [| seed |] in
    let cnf = planted_3sat st ~nvars:200 ~nclauses:900 in
    let s, result = solve_cnf cfg 200 cnf in
    if result <> S.Sat then Alcotest.failf "seed %d: planted instance unsat" seed;
    if not (check_model s cnf) then
      Alcotest.failf "seed %d: model violates a clause" seed;
    reduces := !reduces + (S.last_solve s).S.s_reduces
  done;
  Alcotest.(check bool) "learnt-clause reductions happened" true (!reduces > 0)

(* The activation protocol under random interleaving: guarded clause
   groups are added, solved under assumptions and retired in any order,
   and every answer must match brute force over the clauses still live —
   the permanent ones plus the groups assumed in that query. *)
let prop_activation cfg seed =
  let st = Random.State.make [| seed |] in
  let nvars = 1 + Random.State.int st 8 in
  let s = make_solver cfg nvars in
  let to_lits = List.map (fun (v, sign) -> S.lit v sign) in
  let permanent = ref [] in
  (* (activation literal, its clauses, retired) *)
  let groups = ref [||] in
  let pick () = !groups.(Random.State.int st (Array.length !groups)) in
  let check_query () =
    let assumed =
      List.filter (fun _ -> Random.State.bool st) (Array.to_list !groups)
    in
    let units =
      List.map (fun c -> [ List.hd c ]) (random_cnf st nvars (Random.State.int st 3))
    in
    let assumptions =
      List.map (fun (a, _, _) -> a) assumed @ to_lits (List.concat units)
    in
    let live =
      !permanent @ units @ List.concat_map (fun (_, cs, _) -> !cs) assumed
    in
    let expected =
      (not (List.exists (fun (_, _, retired) -> !retired) assumed))
      && brute_force nvars live
    in
    match S.solve ~assumptions s with
    | S.Sat -> expected && check_model s live
    | S.Unsat -> not expected
  in
  let ok = ref true in
  for _ = 1 to 16 do
    if !ok then
      match Random.State.int st 5 with
      | 0 -> groups := Array.append !groups [| (S.new_act s, ref [], ref false) |]
      | 1 when !groups <> [||] ->
          let a, cs, _ = pick () in
          let c = List.hd (random_cnf st nvars 1) in
          S.add_clause_act s ~act:a (to_lits c);
          cs := c :: !cs
      | 2 when !groups <> [||] ->
          let a, _, retired = pick () in
          S.retire s a;
          retired := true
      | 3 ->
          let c = List.hd (random_cnf st nvars 1) in
          S.add_clause s (to_lits c);
          permanent := c :: !permanent
      | _ -> ok := check_query ()
  done;
  !ok && check_query ()

let qprop cfg name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name QCheck.(make Gen.(int_bound 1_000_000)) (f cfg))

let suite cfg =
  let case name f = Alcotest.test_case name `Quick (f cfg) in
  [
    ( "directed",
      [
        case "trivial" test_trivial;
        case "empty clause" test_empty_clause;
        case "pigeonhole" test_pigeonhole;
        case "graph coloring" test_graph_coloring;
        case "assumptions" test_assumption_basics;
        case "dense random" test_larger_random_unsat;
        case "implication chain" test_implication_chain;
        case "re-solve skips the propagated root" test_resolve_no_repropagation;
        case "xor chain" test_xor_chain_unsat;
      ] );
    ( "clause database",
      [
        case "pigeonhole across reductions" test_reduce_pigeonhole;
        case "planted 3-SAT across reductions" test_reduce_planted;
      ] );
    ( "incremental",
      [
        case "activation lifecycle" test_activation_lifecycle;
        case "learnt clauses survive queries" test_learnt_survival;
        case "last_solve re-bases per query" test_last_solve_resets;
      ] );
    ( "properties",
      [
        qprop cfg "random cnf vs brute force" prop_random_cnf;
        qprop cfg "assumptions vs unit clauses" prop_assumptions;
        qprop cfg "incremental prefixes" prop_incremental;
        qprop cfg "activation protocol vs brute force" prop_activation;
      ] );
  ]

let () = Solver_configs.run "sat" suite
