(* Tests of the bounded model checker on small designs with known
   shallowest counterexample depths.

   The engine cases run once per solver configuration a retry may use
   (see [Solver_configs]): verdicts, depths and traces must not change
   with it. *)

module Signal = Rtl.Signal
open Signal

let counter_circuit () =
  let enable = input "enable" 1 in
  let count = reg "count" 8 in
  reg_set_next count (mux2 enable (count +: one 8) count);
  Rtl.Circuit.create ~name:"counter" ~outputs:[ ("count", count) ] ()

let prop_ne value c =
  {
    Bmc.assumes = [];
    asserts = [ (Printf.sprintf "count_ne_%d" value, Rtl.Circuit.find_output c "count" <>: of_int ~width:8 value) ];
  }

let test_counter_cex_depth cfg () =
  let c = counter_circuit () in
  match Bmc.check ~max_depth:10 ~solver_config:cfg c (prop_ne 5 c) with
  | Bmc.Cex (cex, _) ->
      (* count reaches 5 for the first time on cycle 5. *)
      Alcotest.(check int) "shallowest depth" 5 cex.Bmc.cex_depth;
      Alcotest.(check (list string)) "failed assertion" [ "count_ne_5" ] cex.Bmc.cex_failed
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected a counterexample"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_counter_bounded_proof cfg () =
  let c = counter_circuit () in
  match Bmc.check ~max_depth:10 ~solver_config:cfg c (prop_ne 50 c) with
  | Bmc.Cex _ -> Alcotest.fail "count cannot reach 50 in 10 cycles"
  | Bmc.Bounded_proof stats ->
      Alcotest.(check int) "checked all depths" 10 stats.Bmc.depth_reached
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_assumption_blocks_cex cfg () =
  let c = counter_circuit () in
  let property =
    {
      Bmc.assumes = [ ~:(Rtl.Circuit.find_input c "enable") ];
      asserts = [ ("never_counts", Rtl.Circuit.find_output c "count" ==: zero 8) ];
    }
  in
  match Bmc.check ~max_depth:8 ~solver_config:cfg c property with
  | Bmc.Cex _ -> Alcotest.fail "assumption should prevent counting"
  | Bmc.Bounded_proof _ -> ()
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_multi_assert_reports_failure cfg () =
  let c = counter_circuit () in
  let count = Rtl.Circuit.find_output c "count" in
  let property =
    {
      Bmc.assumes = [];
      asserts =
        [
          ("ne_2", count <>: of_int ~width:8 2);
          ("ne_3", count <>: of_int ~width:8 3);
        ];
    }
  in
  match Bmc.check ~max_depth:8 ~solver_config:cfg c property with
  | Bmc.Cex (cex, _) ->
      Alcotest.(check int) "first failure depth" 2 cex.Bmc.cex_depth;
      Alcotest.(check (list string)) "ne_2 fails first" [ "ne_2" ] cex.Bmc.cex_failed
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected a counterexample"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_replay_values cfg () =
  let c = counter_circuit () in
  match Bmc.check ~max_depth:10 ~solver_config:cfg c (prop_ne 3 c) with
  | Bmc.Cex (cex, _) -> (
      let count = Rtl.Circuit.find_output c "count" in
      match Bmc.replay_values cex [ count ] with
      | [ (_, values) ] ->
          Alcotest.(check int) "trace length" (cex.Bmc.cex_depth + 1) (Array.length values);
          Alcotest.(check int) "final value" 3
            (Bitvec.to_int values.(cex.Bmc.cex_depth))
      | _ -> Alcotest.fail "one watched signal expected")
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected a counterexample"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

(* A state machine with a hidden unlock sequence: the checker must find
   the exact 3-step combination. This is the classic "lock" example that
   stress-tests the search rather than pure unrolling. *)
let lock_circuit () =
  let code = input "code" 4 in
  let state = reg "state" 2 in
  let next =
    mux state
      [
        mux2 (code ==: of_int ~width:4 0xA) (of_int ~width:2 1) (zero 2);
        mux2 (code ==: of_int ~width:4 0x3) (of_int ~width:2 2) (zero 2);
        mux2 (code ==: of_int ~width:4 0x7) (of_int ~width:2 3) (zero 2);
        of_int ~width:2 3;
      ]
  in
  reg_set_next state next;
  Rtl.Circuit.create ~name:"lock"
    ~outputs:[ ("unlocked", state ==: of_int ~width:2 3) ]
    ()

let test_lock_combination cfg () =
  let c = lock_circuit () in
  let property =
    {
      Bmc.assumes = [];
      asserts = [ ("stays_locked", ~:(Rtl.Circuit.find_output c "unlocked")) ];
    }
  in
  match Bmc.check ~max_depth:10 ~solver_config:cfg c property with
  | Bmc.Cex (cex, _) ->
      Alcotest.(check int) "unlocks after 3 inputs" 3 cex.Bmc.cex_depth;
      let codes =
        Array.to_list cex.Bmc.cex_inputs
        |> List.map (fun assignments -> Bitvec.to_int (List.assoc "code" assignments))
      in
      (match codes with
      | [ 0xA; 0x3; 0x7; _ ] -> ()
      | _ -> Alcotest.failf "unexpected combination")
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected the lock to open"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

(* [progress] sees each depth once, in order, just before it is
   solved: up to the counterexample depth when one is found, up to
   [max_depth] for a bounded proof, and the same on the scratch engine. *)
let test_progress_depths cfg () =
  let c = counter_circuit () in
  let seen ?incremental value =
    let depths = ref [] in
    let progress d = depths := d :: !depths in
    ignore
      (Bmc.check ~max_depth:10 ~progress ~solver_config:cfg ?incremental c
         (prop_ne value c));
    List.rev !depths
  in
  let upto n = List.init (n + 1) Fun.id in
  Alcotest.(check (list int)) "counterexample run" (upto 5) (seen 5);
  Alcotest.(check (list int)) "bounded proof" (upto 10) (seen 50);
  Alcotest.(check (list int)) "scratch engine" (upto 5) (seen ~incremental:false 5)

(* {1 k-induction} *)

let test_induction_proves_saturating cfg () =
  (* A saturating counter never reaches 7: true at every depth but not
     provable by plain BMC; 1-inductive. *)
  let count = reg "sat" 3 in
  reg_set_next count
    (mux2 (count >=: of_int ~width:3 5) (of_int ~width:3 5) (count +: one 3));
  let c = Rtl.Circuit.create ~name:"sat_counter" ~outputs:[ ("count", count) ] () in
  let p = { Bmc.assumes = []; asserts = [ ("ne7", count <>: of_int ~width:3 7) ] } in
  match Bmc.prove ~max_depth:10 ~solver_config:cfg c p with
  | Bmc.Proved (k, _) -> Alcotest.(check bool) "small k" true (k <= 2)
  | Bmc.Refuted _ -> Alcotest.fail "property holds"
  | Bmc.Unknown _ -> Alcotest.fail "property is 1-inductive"

let test_induction_refutes cfg () =
  (* A wrapping counter does reach 7: the base case must catch it. *)
  let count = reg "wrap" 3 in
  reg_set_next count (count +: one 3);
  let c = Rtl.Circuit.create ~name:"wrap" ~outputs:[ ("count", count) ] () in
  let p = { Bmc.assumes = []; asserts = [ ("ne7", count <>: of_int ~width:3 7) ] } in
  match Bmc.prove ~max_depth:10 ~solver_config:cfg c p with
  | Bmc.Refuted (cex, _) -> Alcotest.(check int) "exact depth" 7 cex.Bmc.cex_depth
  | _ -> Alcotest.fail "expected refutation"

let test_induction_unknown cfg () =
  (* A free-running counter vs a deep bound: not refutable within the
     budget and not inductive either. *)
  let count = reg "deep" 8 in
  reg_set_next count (count +: one 8);
  let c = Rtl.Circuit.create ~name:"deep" ~outputs:[ ("count", count) ] () in
  let p =
    { Bmc.assumes = []; asserts = [ ("ne200", count <>: of_int ~width:8 200) ] }
  in
  match Bmc.prove ~max_depth:8 ~solver_config:cfg c p with
  | Bmc.Unknown (reason, stats) ->
      Alcotest.(check int) "bound respected" 8 stats.Bmc.depth_reached;
      (match reason with
      | Bmc.Bound_exhausted -> ()
      | r ->
          Alcotest.failf "expected bound exhaustion, got %s"
            (Bmc.unknown_reason_to_string r))
  | Bmc.Proved _ -> Alcotest.fail "count does reach 200 eventually"
  | Bmc.Refuted _ -> Alcotest.fail "not within 8 cycles"

let test_induction_with_assumes cfg () =
  (* Under the assumption that enable stays low, any counter bound is
     inductive. *)
  let enable = input "en" 1 in
  let count = reg "gated" 4 in
  reg_set_next count (mux2 enable (count +: one 4) count);
  let c = Rtl.Circuit.create ~name:"gated" ~outputs:[ ("count", count) ] () in
  let p =
    {
      Bmc.assumes = [ ~:enable ];
      asserts = [ ("stable", count ==: zero 4) ];
    }
  in
  (* From an arbitrary state this is NOT inductive (count could start at
     5), but the assertion itself restricts the good states, so the step
     at k=1 works: good state => count=0 => next count=0. *)
  match Bmc.prove ~max_depth:10 ~solver_config:cfg c p with
  | Bmc.Proved _ -> ()
  | _ -> Alcotest.fail "inductive under the assumption"

let test_equiv_mismatch () =
  let c1 =
    let a = input "a" 4 in
    Rtl.Circuit.create ~name:"one" ~outputs:[ ("o", a +: one 4) ] ()
  in
  let c2 =
    let b = input "b" 4 in
    Rtl.Circuit.create ~name:"two" ~outputs:[ ("o", b +: one 4) ] ()
  in
  Alcotest.check_raises "different input names"
    (Invalid_argument "Bmc.equiv: circuits have different interfaces")
    (fun () -> ignore (Bmc.equiv c1 c2))

(* Two structurally identical accumulators are equivalent to any bound;
   subtracting instead of adding shows up on the first cycle after
   reset, when the register holds [a] in one and [-a] in the other. *)
let test_equiv_identical () =
  let accumulator name op =
    let a = input "a" 4 in
    let r = reg "r" 4 in
    reg_set_next r (op r a);
    Rtl.Circuit.create ~name ~outputs:[ ("sum", r); ("parity", select r 0 0) ] ()
  in
  (match Bmc.equiv ~max_depth:6 (accumulator "x" ( +: )) (accumulator "y" ( +: )) with
  | Bmc.Bounded_proof _ -> ()
  | Bmc.Cex _ -> Alcotest.fail "identical circuits reported different"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r));
  match Bmc.equiv ~max_depth:6 (accumulator "x" ( +: )) (accumulator "y" ( -: )) with
  | Bmc.Cex (cex, _) -> Alcotest.(check int) "first diverging cycle" 1 cex.Bmc.cex_depth
  | Bmc.Bounded_proof _ -> Alcotest.fail "adder and subtractor reported equal"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

(* Each configuration [Retry] may rotate through, run twice over the
   same clause/solve sequence, takes the identical search path: same
   outcome, same counterexample trace, same conflict count. *)
let test_config_determinism () =
  List.iter
    (fun (cfg : Sat.Solver.config) ->
      let run () =
        let st = Random.State.make [| 0xC0FFEE |] in
        let circuit = Gen_circuit.random_circuit st ~num_nodes:40 ~num_regs:4 in
        let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
        match Bmc.check ~max_depth:6 ~solver_config:cfg circuit property with
        | Bmc.Cex (cex, stats) ->
            (Some (cex.Bmc.cex_depth, cex.Bmc.cex_inputs), stats.Bmc.conflicts)
        | Bmc.Bounded_proof stats -> (None, stats.Bmc.conflicts)
        | Bmc.Unknown (r, _) ->
            Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)
      in
      let m1, c1 = run () in
      let m2, c2 = run () in
      Alcotest.(check bool) (cfg.Sat.Solver.cfg_name ^ " model") true (m1 = m2);
      Alcotest.(check int) (cfg.Sat.Solver.cfg_name ^ " conflicts") c1 c2)
    (Sat.Solver.portfolio 4)

(* Differential fuzz: on random circuits with random multi-assert
   properties, every alternate configuration reaches the default's
   verdict and counterexample depth, and its trace replays on the
   simulator with exactly the failing set it reports. *)
let prop_alternates_agree seed =
  let st = Random.State.make [| seed |] in
  let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
  let property =
    Gen_circuit.random_property st circuit ~num_asserts:(2 + Random.State.int st 4)
  in
  let max_depth = 6 in
  let reference = Bmc.check ~max_depth circuit property in
  List.for_all
    (fun solver_config ->
      match (reference, Bmc.check ~max_depth ~solver_config circuit property) with
      | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> true
      | Bmc.Cex (c1, _), Bmc.Cex (c2, _) ->
          c1.Bmc.cex_depth = c2.Bmc.cex_depth
          && List.sort compare c2.Bmc.cex_failed
             = List.sort compare
                 (Bmc.validate c2.Bmc.cex_circuit property c2.Bmc.cex_inputs
                    c2.Bmc.cex_depth)
      | _ -> false)
    (List.tl (Sat.Solver.portfolio 4))

(* The engine cases run under every configuration; the configuration
   checks and [equiv], which takes none, run with the default's. *)
let suite (cfg : Sat.Solver.config) =
  let case name f = Alcotest.test_case name `Quick (f cfg) in
  [
    ( "bmc",
      [
        case "cex at exact depth" test_counter_cex_depth;
        case "bounded proof" test_counter_bounded_proof;
        case "assumptions" test_assumption_blocks_cex;
        case "multiple assertions" test_multi_assert_reports_failure;
        case "replay values" test_replay_values;
        case "lock combination" test_lock_combination;
        case "progress sees every depth" test_progress_depths;
      ] );
    ( "induction",
      [
        case "proves saturating counter" test_induction_proves_saturating;
        case "refutes at exact depth" test_induction_refutes;
        case "unknown when not inductive" test_induction_unknown;
        case "assumptions in the step" test_induction_with_assumes;
      ] );
  ]
  @
  if cfg <> Sat.Solver.default_config then []
  else
    [
      ( "configs",
        [
          Alcotest.test_case "solver configs are deterministic" `Quick
            test_config_determinism;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:500 ~name:"alternate configs == default"
               QCheck.(make Gen.(int_bound 1_000_000))
               prop_alternates_agree);
        ] );
      ( "equiv",
        [
          Alcotest.test_case "interface mismatch" `Quick test_equiv_mismatch;
          Alcotest.test_case "identical and differing circuits" `Quick
            test_equiv_identical;
        ] );
    ]

let () = Solver_configs.run "bmc" suite
