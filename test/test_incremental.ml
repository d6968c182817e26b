(* The incremental (persistent-solver) BMC engine, cross-checked against
   the per-depth scratch oracle and the simulator.

   The incremental engine keeps one solver alive across the whole depth
   sequence — new transition frames are stamped from a blasted template,
   the current depth's property is selected with an activation literal,
   and learnt clauses survive between depths. None of that may be
   observable in the verdicts: this suite runs random circuits with
   random multi-assert properties (plus the four real DUTs) through
   [~incremental:true] and [~incremental:false] and demands the same
   outcome kind, the same counterexample depth, and a counterexample
   trace that replays on the [Sim] interpreter ([Bmc.validate] raises
   [Replay_mismatch] on divergence). Budget-starved runs must downgrade
   identically — never flip — in both modes. *)

module S = Sat.Solver
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
module V = Duts.Vscale
module M = Duts.Maple
module A = Duts.Aes
module C = Duts.Cva6lite

let unknown_to_string = Bmc.unknown_reason_to_string

(* {1 Fixtures} *)

let counter_property values =
  let open Signal in
  let cnt = reg "cnt" 4 in
  reg_set_next cnt (cnt +: one 4);
  let circuit = Circuit.create ~name:"counter" ~outputs:[ ("cnt", cnt) ] () in
  let asserts =
    List.map
      (fun v -> (Printf.sprintf "ne%d" v, ~:(cnt ==: of_int ~width:4 v)))
      values
  in
  (circuit, { Bmc.assumes = []; asserts })

let inductive_property n =
  let open Signal in
  let regs =
    List.init n (fun i ->
        let r = reg (Printf.sprintf "z%d" i) 1 in
        reg_set_next r r;
        r)
  in
  let circuit =
    Circuit.create ~name:"zeros"
      ~outputs:(List.mapi (fun i r -> (Printf.sprintf "o%d" i, r)) regs)
      ()
  in
  ( circuit,
    { Bmc.assumes = []; asserts = List.mapi (fun i r -> (Printf.sprintf "z%d" i, ~:r)) regs } )

(* The four DUTs at their Table-1 counterexample settings — real miters,
   real optimizer, real CEX depths, on both engines. *)
let dut_rows () =
  [
    ( "V5",
      (fun () -> V.ft_for_stage V.Arch_pipeline (V.create ())),
      8 );
    ( "C2",
      (fun () ->
        Autocc.Ft.generate ~threshold:2 ~flush_done:(C.flush_done ())
          (C.create ~config:(C.with_fixes ~fix_c2:false C.Microreset) ())),
      11 );
    ( "M3",
      (fun () ->
        Autocc.Ft.generate ~threshold:2 ~flush_done:(M.flush_done ())
          (M.create ~config:{ M.fix_m2 = true; fix_m3 = false } ())),
      10 );
    ( "A1",
      (fun () -> Autocc.Ft.generate ~threshold:2 (A.create ())),
      12 );
  ]

(* {1 Agreement predicates} *)

(* Outcome agreement: kind and depth; a CEX must additionally replay on
   the [Sim] interpreter with exactly the failing set the engine
   reported. Each side's trace is validated against the property of the
   run that produced it (for FT runs, each [generate] call builds fresh
   signals, so properties are not interchangeable across runs). *)
let outcomes_agree p1 p2 o1 o2 =
  let replays property c =
    List.sort compare c.Bmc.cex_failed
    = List.sort compare
        (Bmc.validate c.Bmc.cex_circuit property c.Bmc.cex_inputs
           c.Bmc.cex_depth)
  in
  match (o1, o2) with
  | Bmc.Bounded_proof s1, Bmc.Bounded_proof s2 ->
      s1.Bmc.depth_reached = s2.Bmc.depth_reached
  | Bmc.Cex (c1, _), Bmc.Cex (c2, _) ->
      c1.Bmc.cex_depth = c2.Bmc.cex_depth && replays p1 c1 && replays p2 c2
  | Bmc.Unknown (r1, _), Bmc.Unknown (r2, _) ->
      unknown_to_string r1 = unknown_to_string r2
  | _ -> false

let describe = function
  | Bmc.Cex (c, _) -> Printf.sprintf "cex@%d" c.Bmc.cex_depth
  | Bmc.Bounded_proof s -> Printf.sprintf "proof@%d" s.Bmc.depth_reached
  | Bmc.Unknown (r, _) -> "unknown:" ^ unknown_to_string r

(* {1 Directed: the four DUTs} *)

let test_duts_agree () =
  List.iter
    (fun (id, mk_ft, max_depth) ->
      let ft_i = mk_ft () and ft_s = mk_ft () in
      let inc = Autocc.Ft.check ~max_depth ~incremental:true ft_i in
      let scr = Autocc.Ft.check ~max_depth ~incremental:false ft_s in
      (match inc with
      | Bmc.Cex _ -> ()
      | o -> Alcotest.failf "%s: expected a CEX, got %s" id (describe o));
      if
        not
          (outcomes_agree ft_i.Autocc.Ft.property ft_s.Autocc.Ft.property inc
             scr)
      then
        Alcotest.failf "%s: engines disagree (incremental %s, scratch %s)" id
          (describe inc) (describe scr))
    (dut_rows ())

(* {1 Directed: check_each shares one session} *)

let test_check_each_agrees () =
  (* Mixed refutable/unprovable assertions; the incremental engine
     serves all of them from one persistent session with per-assertion
     activation literals and shared cycle facts. *)
  let circuit, property = counter_property [ 9; 3; 6; 12 ] in
  let run incremental =
    Bmc.check_each ~max_depth:10 ~incremental circuit property
  in
  let scr = run false and inc = run true in
  Alcotest.(check int) "result count" (List.length scr) (List.length inc);
  List.iter2
    (fun (n1, o1) (n2, o2) ->
      Alcotest.(check string) "assertion order" n1 n2;
      let sub = { property with Bmc.asserts = List.filter (fun (n, _) -> n = n1) property.Bmc.asserts } in
      if not (outcomes_agree sub sub o1 o2) then
        Alcotest.failf "%s: check_each disagrees (scratch %s, incremental %s)"
          n1 (describe o1) (describe o2))
    scr inc

let test_check_each_empty () =
  let circuit, _ = counter_property [ 3 ] in
  Alcotest.(check int) "no asserts, no results" 0
    (List.length
       (Bmc.check_each ~incremental:true circuit { Bmc.assumes = []; asserts = [] }))

(* {1 Directed: one session behind check and check_each} *)

let m3_ft () =
  Autocc.Ft.generate ~threshold:2 ~flush_done:(M.flush_done ())
    (M.create ~config:{ M.fix_m2 = true; fix_m3 = false } ())

(* Verdict, depth and the exact solver counters of one outcome. *)
let counters_row o =
  let st =
    match o with
    | Bmc.Cex (_, st) | Bmc.Bounded_proof st | Bmc.Unknown (_, st) -> st
  in
  Printf.sprintf "%s conflicts=%d decisions=%d propagations=%d vars=%d clauses=%d"
    (describe o) st.Bmc.conflicts st.Bmc.decisions st.Bmc.propagations
    st.Bmc.vars st.Bmc.clauses

let test_check_is_check_each () =
  (* [check] is [check_each]'s depth loop asked once over all of its
     assertions: on a one-assertion property the two run the same
     query on the same session, down to the last propagation. *)
  let ft = m3_ft () in
  let circuit = ft.Autocc.Ft.wrapper and sym = ft.Autocc.Ft.sym in
  List.iter
    (fun (name, a) ->
      let sub = { ft.Autocc.Ft.property with Bmc.asserts = [ (name, a) ] } in
      let one = Bmc.check ~max_depth:10 ~opt:Opt.O2 ~sym circuit sub in
      match Bmc.check_each ~max_depth:10 ~opt:Opt.O2 ~sym circuit sub with
      | [ (n, each) ] ->
          Alcotest.(check string) "assertion" name n;
          Alcotest.(check string) name (counters_row one) (counters_row each)
      | rs -> Alcotest.failf "%s: check_each returned %d results" name (List.length rs))
    ft.Autocc.Ft.property.Bmc.asserts

let test_check_each_rebuilds_session () =
  (* A 50-conflict cap aborts M3's first assertion: its session is
     dropped, and the next assertion runs on a rebuilt one. Every
     assertion the capped sweep decides must agree with the uncapped
     sweep, and at least one must be decided after an abort. *)
  let sweep budget =
    let ft = m3_ft () in
    Bmc.check_each ~max_depth:10 ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ~budget
      ft.Autocc.Ft.wrapper ft.Autocc.Ft.property
  in
  let free = sweep Bmc.no_budget in
  let capped = sweep (Bmc.budget ~conflicts:50 ()) in
  let aborted = ref false and after_abort = ref 0 in
  List.iter2
    (fun (n, o_free) (_, (o_cap : Bmc.outcome)) ->
      match o_cap with
      | Bmc.Unknown (Bmc.Budget_exhausted _, _) -> aborted := true
      | Bmc.Unknown (r, _) -> Alcotest.failf "%s: %s" n (unknown_to_string r)
      | _ ->
          if !aborted then incr after_abort;
          Alcotest.(check string) (n ^ " after a dropped session")
            (describe o_free) (describe o_cap))
    free capped;
  Alcotest.(check bool) "an assertion was decided on a rebuilt session" true
    (!after_abort > 0)

(* {1 Directed: induction} *)

let test_prove_agrees () =
  (let circuit, property = counter_property [ 10; 4 ] in
   match
     ( Bmc.prove ~max_depth:15 ~incremental:false circuit property,
       Bmc.prove ~max_depth:15 ~incremental:true circuit property )
   with
   | Bmc.Refuted (c1, _), Bmc.Refuted (c2, _) ->
       Alcotest.(check int) "refutation depth" c1.Bmc.cex_depth c2.Bmc.cex_depth
   | _ -> Alcotest.fail "expected Refuted from both engines");
  let circuit, property = inductive_property 3 in
  match
    ( Bmc.prove ~max_depth:10 ~incremental:false circuit property,
      Bmc.prove ~max_depth:10 ~incremental:true circuit property )
  with
  | Bmc.Proved (k1, _), Bmc.Proved (k2, _) ->
      Alcotest.(check int) "induction depth" k1 k2
  | _ -> Alcotest.fail "expected Proved from both engines"

(* {1 Directed: symmetric template vs double blast} *)

let test_symmetric_duts_agree () =
  (* [~symmetric:false] re-blasts both universes separately — the
     double-blast oracle. The single-universe template stamped twice
     through the α/β pairs must give the same verdict, CEX depth and a
     replay-valid trace on every real DUT row. *)
  List.iter
    (fun (id, mk_ft, max_depth) ->
      let ft_s = mk_ft () and ft_d = mk_ft () in
      let sym = Autocc.Ft.check ~max_depth ~symmetric:true ft_s in
      let dbl = Autocc.Ft.check ~max_depth ~symmetric:false ft_d in
      if
        not
          (outcomes_agree ft_s.Autocc.Ft.property ft_d.Autocc.Ft.property sym
             dbl)
      then
        Alcotest.failf "%s: symmetric %s disagrees with double-blast %s" id
          (describe sym) (describe dbl))
    (dut_rows ())

let test_symmetric_substitution_fires () =
  (* Guard against the encoder silently degrading to the direct path:
     the miter must expose α/β pairs, and a symmetric run must actually
     substitute template clauses through them. *)
  let ft = (fun () -> V.ft_for_stage V.Arch_pipeline (V.create ())) () in
  Alcotest.(check bool) "the miter exposes symmetric pairs" true
    (ft.Autocc.Ft.sym <> []);
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      ignore (Autocc.Ft.check ~max_depth:8 ~symmetric:true ft);
      match Obs.Metrics.find "cnf.sym_substituted" with
      | Some (Obs.Metrics.Counter n) ->
          Alcotest.(check bool) "template clauses were substituted" true (n > 0)
      | _ -> Alcotest.fail "cnf.sym_substituted was never recorded")

let test_symmetric_random_miters () =
  (* Random DUTs through the full [Ft.generate] miter construction:
     whatever α/β pair set falls out, symmetric and double-blast runs
     must agree. *)
  for seed = 61 to 66 do
    let st = Random.State.make [| seed |] in
    let dut = Gen_circuit.random_circuit st ~num_nodes:20 ~num_regs:3 in
    let mk () = Autocc.Ft.generate ~threshold:1 dut in
    let ft_s = mk () and ft_d = mk () in
    let sym = Autocc.Ft.check ~max_depth:5 ~symmetric:true ft_s in
    let dbl = Autocc.Ft.check ~max_depth:5 ~symmetric:false ft_d in
    if
      not
        (outcomes_agree ft_s.Autocc.Ft.property ft_d.Autocc.Ft.property sym dbl)
    then
      Alcotest.failf "seed %d: symmetric %s disagrees with double-blast %s" seed
        (describe sym) (describe dbl)
  done

(* {1 Budgets: starved runs downgrade identically} *)

let test_expired_wall_identical () =
  (* An already-expired deadline fires at the first poll in both
     engines, before any search diverges — the Unknown must render
     byte-identically, and both must report clean up to the depth before
     the one being explored. *)
  let circuit, property = counter_property [ 9; 3 ] in
  let budget = Bmc.budget ~wall_s:1e-9 () in
  let run incremental = Bmc.check ~max_depth:8 ~incremental ~budget circuit property in
  match (run false, run true) with
  | Bmc.Unknown (r1, s1), Bmc.Unknown (r2, s2) ->
      Alcotest.(check string) "byte-identical unknown reason"
        (unknown_to_string r1) (unknown_to_string r2);
      Alcotest.(check int) "byte-identical clean depth" s1.Bmc.depth_reached
        s2.Bmc.depth_reached;
      (match r1 with
      | Bmc.Budget_exhausted { ub_budget = S.Wall_clock; ub_depth; _ } ->
          Alcotest.(check int) "clean up to the depth before exhaustion"
            (ub_depth - 1) s1.Bmc.depth_reached
      | r -> Alcotest.failf "wrong reason: %s" (unknown_to_string r))
  | o1, o2 ->
      Alcotest.failf "expired deadline must starve both engines (%s, %s)"
        (describe o1) (describe o2)

let test_conflict_cap_mid_sequence () =
  (* A conflict cap that dies mid-sequence on MAPLE. The engines' search
     trajectories legitimately differ (that is the point of clause
     reuse), so the exhaustion depth may differ — but each must report
     Unknown on the conflict budget with the clean-up-to-[k-1]
     accounting, and neither may conjure a conclusive verdict. *)
  let mk () =
    Autocc.Ft.generate ~threshold:2 ~flush_done:(M.flush_done ())
      (M.create ~config:{ M.fix_m2 = true; fix_m3 = false } ())
  in
  let budget = Bmc.budget ~conflicts:30 () in
  List.iter
    (fun incremental ->
      match Autocc.Ft.check ~max_depth:10 ~incremental ~budget (mk ()) with
      | Bmc.Unknown
          ((Bmc.Budget_exhausted { ub_budget = S.Conflicts; ub_depth; _ } as r), stats)
        ->
          if stats.Bmc.depth_reached <> ub_depth - 1 then
            Alcotest.failf "incremental=%b: dirty accounting in %s" incremental
              (unknown_to_string r)
      | Bmc.Unknown (r, _) ->
          Alcotest.failf "incremental=%b: wrong unknown reason %s" incremental
            (unknown_to_string r)
      | o ->
          Alcotest.failf "incremental=%b: 30 conflicts cannot decide MAPLE (%s)"
            incremental (describe o))
    [ false; true ]

let test_check_each_budget_identical () =
  (* Per-assertion budgets on the shared incremental session: every
     assertion gets its own starved grant, and the per-assertion Unknown
     reports must match the scratch engine's byte for byte. *)
  let circuit, property = counter_property [ 9; 3; 6 ] in
  let budget = Bmc.budget ~wall_s:1e-9 () in
  let run incremental =
    Bmc.check_each ~max_depth:8 ~incremental ~budget circuit property
  in
  List.iter2
    (fun (n1, (o1 : Bmc.outcome)) (n2, (o2 : Bmc.outcome)) ->
      Alcotest.(check string) "order" n1 n2;
      match (o1, o2) with
      | Bmc.Unknown (r1, _), Bmc.Unknown (r2, _) ->
          Alcotest.(check string)
            (n1 ^ " byte-identical unknown")
            (unknown_to_string r1) (unknown_to_string r2)
      | _ ->
          Alcotest.failf "%s: starved check_each must be Unknown (%s, %s)" n1
            (describe o1) (describe o2))
    (run false) (run true)

(* {1 Differential fuzzing} *)

let gen_case seed =
  let st = Random.State.make [| seed |] in
  let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
  let property =
    Gen_circuit.random_property st circuit ~num_asserts:(2 + Random.State.int st 4)
  in
  (circuit, property)

let check_differential seed =
  let circuit, property = gen_case seed in
  let max_depth = 6 in
  let inc = Bmc.check ~max_depth ~incremental:true circuit property in
  let scr = Bmc.check ~max_depth ~incremental:false circuit property in
  outcomes_agree property property inc scr

(* Budget-starved runs on random instances: the engines may disagree on
   *where* a conflict cap lands, but never on conclusive-vs-conclusive
   content — a starved engine answers Unknown, and whenever both are
   conclusive they must agree exactly. *)
let check_differential_budgeted seed =
  let circuit, property = gen_case (seed + 13_000_000) in
  let max_depth = 6 in
  let budget = Bmc.budget ~conflicts:(1 + (seed mod 40)) () in
  let inc = Bmc.check ~max_depth ~incremental:true ~budget circuit property in
  let scr = Bmc.check ~max_depth ~incremental:false ~budget circuit property in
  match (inc, scr) with
  | Bmc.Unknown (Bmc.Budget_exhausted _, _), _
  | _, Bmc.Unknown (Bmc.Budget_exhausted _, _) ->
      (* A downgrade is fine on either side; a flip is not. *)
      (match (inc, scr) with
      | Bmc.Cex _, Bmc.Bounded_proof _ | Bmc.Bounded_proof _, Bmc.Cex _ -> false
      | _ -> true)
  | _ -> outcomes_agree property property inc scr

let fuzz ~count name f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(make Gen.(int_bound 1_000_000)) f)

let () =
  Alcotest.run "incremental"
    [
      ( "directed",
        [
          Alcotest.test_case "four DUTs agree across engines" `Quick test_duts_agree;
          Alcotest.test_case "check_each agrees across engines" `Quick
            test_check_each_agrees;
          Alcotest.test_case "check_each with no asserts" `Quick test_check_each_empty;
          Alcotest.test_case "induction agrees across engines" `Quick
            test_prove_agrees;
        ] );
      ( "session",
        [
          Alcotest.test_case "check is check_each on one assertion" `Quick
            test_check_is_check_each;
          Alcotest.test_case "check_each rebuilds a dropped session" `Quick
            test_check_each_rebuilds_session;
        ] );
      ( "symmetric",
        [
          Alcotest.test_case "four DUTs agree with the double-blast oracle"
            `Quick test_symmetric_duts_agree;
          Alcotest.test_case "template substitution fires" `Quick
            test_symmetric_substitution_fires;
          Alcotest.test_case "random miters agree" `Quick
            test_symmetric_random_miters;
        ] );
      ( "budget",
        [
          Alcotest.test_case "expired deadline is byte-identical" `Quick
            test_expired_wall_identical;
          Alcotest.test_case "conflict cap mid-sequence" `Quick
            test_conflict_cap_mid_sequence;
          Alcotest.test_case "starved check_each is byte-identical" `Quick
            test_check_each_budget_identical;
        ] );
      ( "fuzz",
        [
          fuzz ~count:300 "incremental == scratch" check_differential;
          fuzz ~count:60 "budgeted runs never flip" check_differential_budgeted;
        ] );
    ]
