(* The word-level optimization pipeline, cross-checked against the
   simulator and the unoptimized BMC engine.

   Deterministic cases pin each pass individually (strash/CSE, algebraic
   rewrites, cone-of-influence), check that registers with different
   resets are never merged and that a real -O2 run repeats exactly; the
   fuzz section then drives [Opt.optimize] over random
   circuits and requires

   - cycle-accuracy: the optimized circuit and the original produce
     identical output streams on the [Sim] interpreter under the same
     random stimulus;
   - verdict stability: [Bmc.check] at -O0 and -O2, and
     [Parallel.check ~opt:O2], agree on the outcome kind and the
     counterexample depth, and every -O2 counterexample replays on the
     full unoptimized circuit via [Bmc.validate].

   Like test_parallel, the binary honours AUTOCC_JOBS so the dune rules
   exercise both the in-calling-domain fallback (1) and a real worker
   pool (4). *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

let jobs =
  match Sys.getenv_opt "AUTOCC_JOBS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* {1 Deterministic pass tests} *)

let test_level_of_int () =
  Alcotest.(check bool) "0" true (Opt.level_of_int 0 = Opt.O0);
  Alcotest.(check bool) "1" true (Opt.level_of_int 1 = Opt.O2);
  Alcotest.(check bool) "2" true (Opt.level_of_int 2 = Opt.O2);
  Alcotest.(check bool) "9" true (Opt.level_of_int 9 = Opt.O2);
  Alcotest.check_raises "negative"
    (Invalid_argument "Opt.level_of_int: negative level") (fun () ->
      ignore (Opt.level_of_int (-1)))

let test_identity_at_o0 () =
  let open Signal in
  let a = input "a" 4 in
  let c = Circuit.create ~name:"id" ~outputs:[ ("o", a +: one 4) ] () in
  let r = Opt.optimize ~level:Opt.O0 c in
  Alcotest.(check bool) "same circuit" true (r.Opt.opt_circuit == c);
  Alcotest.(check int) "no nodes dropped" r.Opt.opt_stats.Opt.o_nodes_before
    r.Opt.opt_stats.Opt.o_nodes_after

let test_cse () =
  (* Two structurally identical adders built as distinct nodes must
     collapse to one; commutative normalization also catches b+a. *)
  let open Signal in
  let a = input "a" 4 and b = input "b" 4 in
  let c =
    Circuit.create ~name:"cse"
      ~outputs:[ ("o0", a +: b); ("o1", a +: b); ("o2", b +: a) ]
      ()
  in
  let r = Opt.optimize ~level:Opt.O2 c in
  Alcotest.(check bool) "cse hits" true (r.Opt.opt_stats.Opt.o_cse_merged >= 2);
  let outs = Circuit.outputs r.Opt.opt_circuit in
  let sig_of n =
    (List.find (fun p -> p.Circuit.port_name = n) outs).Circuit.signal
  in
  Alcotest.(check bool) "o0 == o1" true (sig_of "o0" == sig_of "o1");
  Alcotest.(check bool) "o0 == o2" true (sig_of "o0" == sig_of "o2")

let test_rewrites () =
  (* Annihilators, identities and mux-equal-arms must fold away without
     SAT: the whole cone reduces to the inputs themselves. *)
  let open Signal in
  let a = input "a" 4 and c = input "c" 1 in
  let z = zero 4 in
  let circuit =
    Circuit.create ~name:"rw"
      ~outputs:
        [
          ("and0", a &: z); (* -> 0 *)
          ("or0", a |: z); (* -> a *)
          ("muxeq", mux2 c a a); (* -> a *)
          ("notnot", ~:(~:a)); (* -> a *)
        ]
      ()
  in
  let r = Opt.optimize ~level:Opt.O2 circuit in
  Alcotest.(check bool) "rewrites fired" true (r.Opt.opt_stats.Opt.o_rewrites >= 4);
  let outs = Circuit.outputs r.Opt.opt_circuit in
  let sig_of n =
    (List.find (fun p -> p.Circuit.port_name = n) outs).Circuit.signal
  in
  let is_const s = Signal.const_value s <> None in
  let is_input s = match Signal.op s with Signal.Input _ -> true | _ -> false in
  Alcotest.(check bool) "a&0 is const" true (is_const (sig_of "and0"));
  Alcotest.(check bool) "a|0 is a" true (is_input (sig_of "or0"));
  Alcotest.(check bool) "mux2 c a a is a" true (is_input (sig_of "muxeq"));
  Alcotest.(check bool) "~~a is a" true (is_input (sig_of "notnot"))

let test_eq_over_concat () =
  (* Eq of two concats splits into part-wise equalities, which lets the
     shared low part cancel structurally: {x,a} == {y,a} -> x == y. *)
  let open Signal in
  let a = input "a" 4 and x = input "c" 1 and y = input "d" 7 in
  let y0 = select y 0 0 in
  let circuit =
    Circuit.create ~name:"eqcat"
      ~outputs:[ ("o", concat [ x; a ] ==: concat [ y0; a ]) ]
      ()
  in
  let r = Opt.optimize ~level:Opt.O2 circuit in
  Alcotest.(check bool) "rewrites fired" true (r.Opt.opt_stats.Opt.o_rewrites >= 1);
  (* a == a folded to 1; the survivor depends only on the 1-bit parts. *)
  Alcotest.(check bool) "smaller" true
    (r.Opt.opt_stats.Opt.o_nodes_after < r.Opt.opt_stats.Opt.o_nodes_before)

let test_coi () =
  let open Signal in
  let a = input "a" 4 and b = input "b" 4 in
  let dead = reg "dead" 4 in
  reg_set_next dead (dead *: b);
  let circuit =
    Circuit.create ~name:"coi"
      ~outputs:[ ("live", a +: one 4); ("dead", dead) ]
      ()
  in
  let r = Opt.optimize ~level:Opt.O2 ~keep_outputs:[ "live" ] circuit in
  Alcotest.(check bool) "dropped the dead cone" true
    (r.Opt.opt_stats.Opt.o_coi_dropped > 0);
  Alcotest.(check int) "one output left" 1
    (List.length (Circuit.outputs r.Opt.opt_circuit));
  Alcotest.(check int) "no registers left" 0
    (List.length (Circuit.regs r.Opt.opt_circuit))

let test_regs_apart () =
  (* Twin register shapes with different reset values: -O2 must keep
     both registers, and BMC at -O0 and -O2 must agree that they never
     meet (r2 starts one ahead of r1 and both add the same input). *)
  let open Signal in
  let a = input "a" 4 in
  let r1 = reg "r1" 4 in
  let r2 = reg ~init:(Bitvec.of_int ~width:4 1) "r2" 4 in
  reg_set_next r1 (r1 +: a);
  reg_set_next r2 (r2 +: a);
  let circuit =
    Circuit.create ~name:"twins_ne" ~outputs:[ ("eq", r1 ==: r2) ] ()
  in
  let r = Opt.optimize ~level:Opt.O2 circuit in
  Alcotest.(check int) "both registers kept" 2
    (List.length (Circuit.regs r.Opt.opt_circuit));
  let property =
    { Bmc.assumes = []; asserts = [ ("ne", ~:(r1 ==: r2)) ] }
  in
  match
    ( Bmc.check ~max_depth:3 ~opt:Opt.O0 circuit property,
      Bmc.check ~max_depth:3 ~opt:Opt.O2 circuit property )
  with
  | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> ()
  | _ -> Alcotest.fail "r1 <> r2 should hold (r2 starts at 1)"

let test_sweep_stats_zero () =
  (* The optimizer has no SAT sweep; the two sweep counters stay in
     [Opt.stats] for readers of older reports and always read 0. *)
  let open Signal in
  let a = input "a" 4 and b = input "b" 4 in
  let circuit =
    Circuit.create ~name:"xor2"
      ~outputs:[ ("o0", a ^: b); ("o1", (a |: b) &: ~:(a &: b)) ]
      ()
  in
  let st = (Opt.optimize ~level:Opt.O2 circuit).Opt.opt_stats in
  Alcotest.(check int) "sweep_merged" 0 st.Opt.o_sweep_merged;
  Alcotest.(check int) "sat_queries" 0 st.Opt.o_sat_queries

(* {1 Determinism}

   A verdict on fixed RTL is only worth re-running if the re-run takes
   the same path: two default-level runs of the same row, each on a
   freshly built DUT and FT, must agree on the verdict and depth and on
   every solver and optimizer counter. V5 is the Vscale pending-IRQ CEX
   at depth 8, C1 the CVA6 I-cache leak at depth 15. *)

let run_signature mk_ft max_depth =
  let stats_of = function
    | Bmc.Cex (c, st) -> ("cex", c.Bmc.cex_depth, st)
    | Bmc.Bounded_proof st -> ("proof", st.Bmc.depth_reached, st)
    | Bmc.Unknown (r, _) ->
        Alcotest.failf "unexpected Unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let kind, depth, st = stats_of (Autocc.Ft.check ~max_depth (mk_ft ())) in
  let o = Option.get st.Bmc.opt in
  ( kind,
    [
      ("depth", depth);
      ("conflicts", st.Bmc.conflicts);
      ("vars", st.Bmc.vars);
      ("clauses", st.Bmc.clauses);
      ("nodes_before", o.Opt.o_nodes_before);
      ("nodes_after", o.Opt.o_nodes_after);
      ("coi_dropped", o.Opt.o_coi_dropped);
      ("cse_merged", o.Opt.o_cse_merged);
      ("rewrites", o.Opt.o_rewrites);
    ] )

let test_repeatable name mk_ft max_depth () =
  let kind1, sig1 = run_signature mk_ft max_depth in
  let kind2, sig2 = run_signature mk_ft max_depth in
  Alcotest.(check string) (name ^ " verdict") kind1 kind2;
  List.iter2
    (fun (field, a) (_, b) -> Alcotest.(check int) (name ^ " " ^ field) a b)
    sig1 sig2

let v5_ft () =
  Duts.Vscale.ft_for_stage Duts.Vscale.Arch_pipeline (Duts.Vscale.create ())

let c1_ft () =
  let module C = Duts.Cva6lite in
  Autocc.Ft.generate ~threshold:2 ~flush_done:(C.flush_done ())
    (C.create ~config:(C.with_fixes ~fix_c1:false C.Microreset) ())

(* {1 Differential fuzzing}

   Each seed draws one random circuit and checks, in order: simulator
   cycle-accuracy of the optimized netlist, then verdict/depth agreement
   of -O0 vs -O2 vs the parallel engine at -O2 on a random property. *)

let outputs_agree c1 c2 cycles =
  let o1 = Gen_circuit.run_outputs (Sim.create c1) cycles in
  let o2 = Gen_circuit.run_outputs (Sim.create c2) cycles in
  List.for_all2
    (fun r1 r2 ->
      List.for_all2
        (fun (n1, v1) (n2, v2) -> n1 = n2 && Bitvec.equal v1 v2)
        r1 r2)
    o1 o2

let check_opt seed =
  let st = Random.State.make [| seed |] in
  let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
  (* Simulator cross-check on the full circuit (all outputs kept). *)
  let r = Opt.optimize ~level:Opt.O2 circuit in
  let cycles = List.init 8 (fun _ -> Gen_circuit.random_inputs st) in
  if not (outputs_agree circuit r.Opt.opt_circuit cycles) then false
  else
    (* Verdict cross-check on a random multi-assert property. *)
    let property =
      Gen_circuit.random_property st circuit
        ~num_asserts:(2 + Random.State.int st 3)
    in
    let max_depth = 6 in
    let o0 = Bmc.check ~max_depth ~opt:Opt.O0 circuit property in
    let o2 = Bmc.check ~max_depth ~opt:Opt.O2 circuit property in
    let par = Parallel.check ~jobs ~max_depth ~opt:Opt.O2 circuit property in
    let agree a b =
      match (a, b) with
      | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> true
      | Bmc.Cex (c1, _), Bmc.Cex (c2, _) ->
          c1.Bmc.cex_depth = c2.Bmc.cex_depth
          (* The -O2 trace must replay on the FULL unoptimized circuit
             with exactly the failing set the engine reported. *)
          && List.sort compare c2.Bmc.cex_failed
             = List.sort compare
                 (Bmc.validate c2.Bmc.cex_circuit property c2.Bmc.cex_inputs
                    c2.Bmc.cex_depth)
      | _ -> false
    in
    agree o0 o2 && agree o0 par

let fuzz ~count name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       QCheck.(make Gen.(int_bound 1_000_000))
       check_opt)

let () =
  Alcotest.run "opt"
    [
      ( "passes",
        [
          Alcotest.test_case "level_of_int" `Quick test_level_of_int;
          Alcotest.test_case "O0 is the identity" `Quick test_identity_at_o0;
          Alcotest.test_case "strash/CSE" `Quick test_cse;
          Alcotest.test_case "algebraic rewrites" `Quick test_rewrites;
          Alcotest.test_case "eq-over-concat split" `Quick test_eq_over_concat;
          Alcotest.test_case "cone of influence" `Quick test_coi;
          Alcotest.test_case "distinct registers stay apart" `Quick
            test_regs_apart;
          Alcotest.test_case "sweep counters read zero" `Quick
            test_sweep_stats_zero;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "V5 at depth 8 repeats exactly" `Quick
            (test_repeatable "V5" v5_ft 8);
          Alcotest.test_case "C1 at depth 15 repeats exactly" `Quick
            (test_repeatable "C1" c1_ft 15);
        ] );
      ( "fuzz",
        [ fuzz ~count:200 "optimized == original (sim, bmc, parallel)" ] );
    ]
