(* Tests of the resource-governed runtime: the pure retry schedule and
   the [Retry.run] loop that drives it, the budget -> Unknown downgrade
   path, deterministic fault injection (a fault may only downgrade a
   verdict, never flip it), campaign crash isolation and crash-safe
   resume. *)

module S = Sat.Solver

let unknown_to_string = Bmc.unknown_reason_to_string

(* {1 Retry: the pure schedule} *)

let test_retry_scale () =
  let p = Retry.policy ~growth:4. ~cap:64. () in
  Alcotest.(check (float 0.)) "attempt 0 is the identity" 1. (Retry.scale p ~attempt:0);
  Alcotest.(check (float 0.)) "attempt 1" 4. (Retry.scale p ~attempt:1);
  Alcotest.(check (float 0.)) "attempt 2" 16. (Retry.scale p ~attempt:2);
  Alcotest.(check (float 0.)) "attempt 3" 64. (Retry.scale p ~attempt:3);
  Alcotest.(check (float 0.)) "capped" 64. (Retry.scale p ~attempt:9)

let test_retry_budget_for () =
  let p = Retry.policy ~growth:4. ~cap:64. () in
  let b = Bmc.budget ~wall_s:2. ~conflicts:100 () in
  let b1 = Retry.budget_for p b ~attempt:1 in
  Alcotest.(check (option (float 1e-9))) "wall escalated" (Some 8.) b1.Bmc.bud_wall_s;
  Alcotest.(check (option int)) "conflicts escalated" (Some 400) b1.Bmc.bud_conflicts;
  Alcotest.(check (option int)) "unset limit stays unset" None b1.Bmc.bud_learnts;
  let b0 = Retry.budget_for p Bmc.no_budget ~attempt:3 in
  Alcotest.(check bool) "no_budget is a fixed point" true (b0 = Bmc.no_budget)

let test_retry_config_for () =
  let alts = [ List.nth (S.portfolio 4) 1; List.nth (S.portfolio 4) 2 ] in
  let p = Retry.policy ~alternate_configs:alts () in
  Alcotest.(check bool) "attempt 0 keeps the caller's config" true
    (Retry.config_for p ~attempt:0 = None);
  Alcotest.(check bool) "attempt 1 takes the first alternate" true
    (Retry.config_for p ~attempt:1 = Some (List.nth alts 0));
  Alcotest.(check bool) "attempt 2 the second" true
    (Retry.config_for p ~attempt:2 = Some (List.nth alts 1));
  Alcotest.(check bool) "alternates cycle" true
    (Retry.config_for p ~attempt:3 = Some (List.nth alts 0));
  let no_alts = Retry.policy ~alternate_configs:[] () in
  Alcotest.(check bool) "no alternates: every attempt keeps the config" true
    (Retry.config_for no_alts ~attempt:2 = None)

let test_retry_backoff () =
  let p = Retry.policy ~backoff_base_s:0.05 ~backoff_cap_s:0.12 () in
  Alcotest.(check (float 1e-9)) "first retry" 0.05 (Retry.backoff_s p ~attempt:1);
  Alcotest.(check (float 1e-9)) "doubles" 0.1 (Retry.backoff_s p ~attempt:2);
  Alcotest.(check (float 1e-9)) "capped" 0.12 (Retry.backoff_s p ~attempt:3)

let test_retry_should_retry () =
  let p = Retry.policy ~max_attempts:3 () in
  let budget_fired =
    Bmc.Budget_exhausted { ub_budget = S.Wall_clock; ub_depth = 2; ub_case = Bmc.Base }
  in
  Alcotest.(check bool) "budget exhaustion is transient" true
    (Retry.should_retry p ~attempt:0 budget_fired);
  Alcotest.(check bool) "faults are transient" true
    (Retry.should_retry p ~attempt:1 (Bmc.Faulted "sat.stop"));
  Alcotest.(check bool) "bound exhaustion is permanent" false
    (Retry.should_retry p ~attempt:0 Bmc.Bound_exhausted);
  Alcotest.(check bool) "attempts are finite" false
    (Retry.should_retry p ~attempt:2 budget_fired);
  let once = Retry.policy ~max_attempts:1 () in
  Alcotest.(check bool) "max_attempts 1 never retries" false
    (Retry.should_retry once ~attempt:0 budget_fired)

(* {1 Retry.run: the effectful half} *)

let wall_fired =
  Bmc.Budget_exhausted { ub_budget = S.Wall_clock; ub_depth = 0; ub_case = Bmc.Base }

(* [Retry.run] over a fake job that answers [reasons] in turn and is
   conclusive ([None]) once they run out. Returns the final result,
   the (budget, solver config) of every call, and the [bmc.retries]
   count. *)
let run_fake p ~budget reasons =
  let calls = ref [] and pending = ref reasons in
  let job ~budget ~solver_config =
    calls := (budget, solver_config) :: !calls;
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> None
  in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable ();
      Obs.Metrics.reset ())
    (fun () ->
      let result = Retry.run p ~budget ~reason_of:Fun.id job in
      let retries =
        match Obs.Metrics.find "bmc.retries" with
        | Some (Obs.Metrics.Counter n) -> n
        | _ -> 0
      in
      (result, List.rev !calls, retries))

let quick_policy ~max_attempts =
  Retry.policy ~max_attempts ~backoff_base_s:0.001 ~backoff_cap_s:0.002 ()

let test_run_schedule () =
  (* Two transient Unknowns, then an answer: three calls. Attempt 0 is
     the caller's own call; each retry runs the schedule's escalated
     budget and rotated alternate config. *)
  let p = quick_policy ~max_attempts:5 in
  let budget = Bmc.budget ~conflicts:10 () in
  let result, calls, retries =
    run_fake p ~budget [ wall_fired; Bmc.Faulted "sat.stop" ]
  in
  Alcotest.(check bool) "the conclusive result is returned" true (result = None);
  Alcotest.(check int) "three calls" 3 (List.length calls);
  List.iteri
    (fun attempt (b, cfg) ->
      let expected = if attempt = 0 then budget else Retry.budget_for p budget ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d budget" attempt)
        true (b = expected);
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d config" attempt)
        true
        (cfg = Retry.config_for p ~attempt))
    calls;
  Alcotest.(check bool) "the first retry runs p1" true
    (snd (List.nth calls 1) = Some (List.nth (S.portfolio 4) 1));
  Alcotest.(check int) "bmc.retries counts each retry" 2 retries

let test_run_gives_up () =
  (* A job that never answers is called [max_attempts] times, and the
     last Unknown comes back. *)
  let p = quick_policy ~max_attempts:3 in
  let result, calls, retries =
    run_fake p ~budget:Bmc.no_budget
      [ wall_fired; wall_fired; Bmc.Faulted "last"; wall_fired ]
  in
  Alcotest.(check bool) "the last Unknown is returned" true
    (result = Some (Bmc.Faulted "last"));
  Alcotest.(check int) "max_attempts calls" 3 (List.length calls);
  Alcotest.(check int) "two retries counted" 2 retries

let test_run_no_retry () =
  (* A permanent reason is final under any policy, and under
     [Retry.default] so is a transient one: one call, no retry counted. *)
  let once p reason =
    let result, calls, retries = run_fake p ~budget:Bmc.no_budget [ reason ] in
    Alcotest.(check bool) "the Unknown is returned" true (result = Some reason);
    Alcotest.(check int) "one call" 1 (List.length calls);
    Alcotest.(check int) "no retry counted" 0 retries
  in
  once (quick_policy ~max_attempts:3) Bmc.Bound_exhausted;
  once Retry.default wall_fired

(* {1 Budgets: exhaustion downgrades to Unknown} *)

module Signal = Rtl.Signal

let leaky_dut () =
  let open Signal in
  let din = input "din" 4 in
  let capture = input "capture" 1 in
  let query = input "query" 4 in
  let stash = reg "stash" 4 in
  reg_set_next stash (mux2 capture din stash);
  Rtl.Circuit.create ~name:"leaky" ~outputs:[ ("hit", query ==: stash) ] ()

let test_wall_budget_unknown () =
  (* An already-expired deadline: the engine must answer Unknown at the
     first poll on any machine, reporting clean up to the depth before
     the one it was exploring. *)
  let ft = Autocc.Ft.generate ~threshold:2 (leaky_dut ()) in
  match
    Autocc.Ft.check ~max_depth:8 ~budget:(Bmc.budget ~wall_s:1e-9 ()) ft
  with
  | Bmc.Unknown ((Bmc.Budget_exhausted { ub_budget = S.Wall_clock; ub_depth; _ } as r), stats)
    ->
      Alcotest.(check int) "clean up to the depth before exhaustion"
        (ub_depth - 1) stats.Bmc.depth_reached;
      Alcotest.(check bool) "reason renders as a budget" true
        (String.length (unknown_to_string r) >= 6
        && String.sub (unknown_to_string r) 0 6 = "budget")
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "wrong unknown reason: %s" (unknown_to_string r)
  | Bmc.Cex _ | Bmc.Bounded_proof _ ->
      Alcotest.fail "an expired deadline cannot produce a conclusive verdict"

let test_conflict_budget_unknown () =
  (* MAPLE needs real search; one conflict cannot be enough. *)
  let ft = Autocc.Ft.generate ~threshold:2 (Duts.Maple.create ()) in
  match
    Autocc.Ft.check ~max_depth:8 ~budget:(Bmc.budget ~conflicts:1 ()) ft
  with
  | Bmc.Unknown (Bmc.Budget_exhausted { ub_budget = S.Conflicts; _ }, _) -> ()
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "wrong unknown reason: %s" (unknown_to_string r)
  | Bmc.Cex _ | Bmc.Bounded_proof _ ->
      Alcotest.fail "one conflict cannot decide MAPLE"

let test_budget_escalation_recovers () =
  (* A starved first attempt plus an escalating retry policy must end
     conclusive: [Retry.run] re-runs the check with grown budgets. *)
  let ft = Autocc.Ft.generate ~threshold:2 (leaky_dut ()) in
  let retry =
    Retry.policy ~max_attempts:6 ~growth:100. ~cap:1e9 ~backoff_base_s:0.001
      ~backoff_cap_s:0.002 ()
  in
  match
    Autocc.Ft.check ~max_depth:8 ~budget:(Bmc.budget ~wall_s:1e-6 ()) ~retry
      ft
  with
  | Bmc.Cex _ -> ()
  | Bmc.Bounded_proof _ -> Alcotest.fail "the leaky DUT must yield a CEX"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "escalation to ~100s never fired: %s" (unknown_to_string r)

let same_counters what (a : Bmc.stats) (b : Bmc.stats) =
  Alcotest.(check int) (what ^ ": conflicts") a.Bmc.conflicts b.Bmc.conflicts;
  Alcotest.(check int) (what ^ ": decisions") a.Bmc.decisions b.Bmc.decisions;
  Alcotest.(check int)
    (what ^ ": propagations")
    a.Bmc.propagations b.Bmc.propagations

let test_retry_policy_keeps_engine () =
  (* A retry policy that never fires (no budget, so no transient
     Unknown) must leave the search untouched: same verdict, same depth,
     same solver counters as the call without a policy. *)
  let ft name ~fixes =
    Duts.Bundled.ft_for ~threshold:2 name (Duts.Bundled.build ~fixes name)
  in
  let m3 =
    ft "maple" ~fixes:{ Duts.Bundled.no_fixes with Duts.Bundled.fix_m2 = true }
  in
  (match
     ( Autocc.Ft.check ~max_depth:10 m3,
       Autocc.Ft.check ~max_depth:10 ~retry:(Retry.policy ()) m3 )
   with
  | Bmc.Cex (c1, s1), Bmc.Cex (c2, s2) ->
      Alcotest.(check int) "M3: CEX depth" c1.Bmc.cex_depth c2.Bmc.cex_depth;
      same_counters "M3" s1 s2
  | _ -> Alcotest.fail "M3: both runs must find the CEX");
  let aes = ft "aes" ~fixes:Duts.Bundled.no_fixes in
  match
    ( Autocc.Ft.prove ~max_depth:12 aes,
      Autocc.Ft.prove ~max_depth:12 ~retry:(Retry.policy ()) aes )
  with
  | Bmc.Proved (k1, s1), Bmc.Proved (k2, s2) ->
      Alcotest.(check int) "AES: induction depth" k1 k2;
      same_counters "AES" s1 s2
  | _ -> Alcotest.fail "AES: both runs must prove"

(* {1 Fault injection: verdicts only ever degrade} *)

let test_fault_determinism () =
  (* The per-hit die is a pure function of (seed, site, n): two armed
     runs replay the same decisions. *)
  let burst () =
    Fault.arm ~rate:0.3 ~seed:1234 ();
    let fired = List.init 200 (fun _ -> Fault.fire "site.a") in
    let hits = Fault.hits () and count = Fault.fired () in
    Fault.disarm ();
    (fired, hits, count)
  in
  let f1, h1, c1 = burst () in
  let f2, h2, c2 = burst () in
  Alcotest.(check (list bool)) "same decisions" f1 f2;
  Alcotest.(check int) "same hit count" h1 h2;
  Alcotest.(check int) "same fired count" c1 c2;
  Alcotest.(check bool) "the die does fire at rate 0.3" true (c1 > 0);
  Alcotest.(check bool) "but not every time" true (c1 < h1);
  Fault.arm ~rate:0.3 ~seed:4321 ();
  let f3 = List.init 200 (fun _ -> Fault.fire "site.a") in
  Fault.disarm ();
  Alcotest.(check bool) "a different seed gives a different trace" true (f1 <> f3)

let test_fault_reseed () =
  (* A serve worker reseeds before every job it runs: offsets must not
     compound, or the dice would drift from job to job. *)
  let seq ?reseeds seed =
    Fault.arm ~rate:0.3 ~seed ();
    Option.iter (List.iter (fun offset -> Fault.reseed ~offset)) reseeds;
    let fired = List.init 200 (fun _ -> Fault.fire "site.a") in
    Fault.disarm ();
    fired
  in
  Alcotest.(check (list bool)) "reseed 3 twice = fresh arm at seed + 3"
    (seq 1237) (seq ~reseeds:[ 3; 3 ] 1234);
  Alcotest.(check (list bool)) "reseed 0 after 3 = the armed seed" (seq 1234)
    (seq ~reseeds:[ 3; 0 ] 1234);
  Alcotest.(check (list bool)) "reseed 0 = the armed seed" (seq 1234)
    (seq ~reseeds:[ 0 ] 1234);
  Alcotest.(check bool) "seed + 3 is another trace" true (seq 1234 <> seq 1237);
  (* Counters restart too: a reseed mid-sequence replays from hit 0. *)
  Fault.arm ~rate:0.3 ~seed:1234 ();
  ignore (List.init 50 (fun _ -> Fault.fire "site.a"));
  Fault.reseed ~offset:0;
  let again = List.init 200 (fun _ -> Fault.fire "site.a") in
  Alcotest.(check int) "hits restart" 200 (Fault.hits ());
  Fault.disarm ();
  Alcotest.(check (list bool)) "reseed restarts the per-site counter" (seq 1234) again

let verdict_flip ref_outcome outcome =
  match (ref_outcome, outcome) with
  | Bmc.Cex (c1, _), Bmc.Cex (c2, _) -> c1.Bmc.cex_depth <> c2.Bmc.cex_depth
  | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> false
  | _, Bmc.Unknown _ -> false (* a downgrade, not a flip *)
  | Bmc.Cex _, Bmc.Bounded_proof _ | Bmc.Bounded_proof _, Bmc.Cex _ -> true
  | Bmc.Unknown _, _ -> true (* the fault-free reference must be conclusive *)

let test_fault_fuzz () =
  (* Random circuits under seeded fault injection: the governed engine
     may answer Unknown but must never contradict the fault-free
     reference verdict. *)
  let total_fired = ref 0 in
  for seed = 1 to 8 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
    let reference = Bmc.check ~max_depth:5 circuit property in
    (match reference with
    | Bmc.Unknown (r, _) ->
        Alcotest.failf "seed %d: fault-free reference is unknown (%s)" seed
          (unknown_to_string r)
    | _ -> ());
    Fault.arm ~rate:0.05 ~seed ();
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          total_fired := !total_fired + Fault.fired ();
          Fault.disarm ())
        (fun () -> Bmc.check ~max_depth:5 circuit property)
    in
    if verdict_flip reference outcome then
      Alcotest.failf "seed %d: fault flipped the verdict" seed
  done;
  Alcotest.(check bool) "the corpus did exercise fault points" true (!total_fired > 0)

let test_fault_fuzz_with_retry () =
  (* Same contract when a retry policy is allowed to rescue faulted
     runs; retries raise the odds of a conclusive (hence equal) verdict
     but must never manufacture a contradicting one. *)
  let retry =
    Retry.policy ~max_attempts:3 ~backoff_base_s:0.001 ~backoff_cap_s:0.002 ()
  in
  for seed = 11 to 16 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
    let reference = Bmc.check ~max_depth:5 circuit property in
    (match reference with
    | Bmc.Unknown (r, _) ->
        Alcotest.failf "seed %d: fault-free reference is unknown (%s)" seed
          (unknown_to_string r)
    | _ -> ());
    Fault.arm ~rate:0.05 ~seed ();
    let outcome =
      Fun.protect
        ~finally:(fun () -> Fault.disarm ())
        (fun () ->
          Retry.run retry ~budget:Bmc.no_budget
            ~reason_of:(function
              | (Bmc.Unknown (r, _) : Bmc.outcome) -> Some r | _ -> None)
            (fun ~budget ~solver_config ->
              Bmc.check ~max_depth:5 ?solver_config ~budget circuit property))
    in
    if verdict_flip reference outcome then
      Alcotest.failf "seed %d: fault flipped the verdict under retry" seed
  done

let test_fault_incr_site () =
  (* The incremental engine's between-depths fault point. Armed at rate
     1.0 on just "bmc.incr", every incremental run faults the moment it
     tries to extend the persistent solver past depth 0, and must
     downgrade to Unknown (Faulted "bmc.incr") with clean accounting up
     to depth 0; the scratch engine never passes the site and must be
     untouched by the same arming. *)
  let circuit, property =
    let open Signal in
    let cnt = reg "cnt" 4 in
    reg_set_next cnt (cnt +: one 4);
    ( Rtl.Circuit.create ~name:"counter" ~outputs:[ ("cnt", cnt) ] (),
      { Bmc.assumes = []; asserts = [ ("ne5", ~:(cnt ==: of_int ~width:4 5)) ] }
    )
  in
  Fault.arm ~sites:[ "bmc.incr" ] ~rate:1. ~seed:7 ();
  Fun.protect
    ~finally:(fun () -> Fault.disarm ())
    (fun () ->
      (match Bmc.check ~max_depth:8 ~incremental:true circuit property with
      | Bmc.Unknown (Bmc.Faulted site, stats) ->
          Alcotest.(check string) "site named" "bmc.incr" site;
          Alcotest.(check int) "clean up to depth 0" 0 stats.Bmc.depth_reached
      | Bmc.Unknown (r, _) ->
          Alcotest.failf "wrong unknown reason: %s" (unknown_to_string r)
      | Bmc.Cex _ | Bmc.Bounded_proof _ ->
          Alcotest.fail "a certain fault cannot leave the verdict conclusive");
      match Bmc.check ~max_depth:8 ~incremental:false circuit property with
      | Bmc.Cex (c, _) -> Alcotest.(check int) "scratch unaffected" 5 c.Bmc.cex_depth
      | o ->
          Alcotest.failf "the scratch engine has no bmc.incr site (got %s)"
            (match o with
            | Bmc.Bounded_proof _ -> "bounded proof"
            | Bmc.Unknown (r, _) -> unknown_to_string r
            | Bmc.Cex _ -> assert false))

let test_fault_incr_fuzz () =
  (* Seeded fuzz restricted to the "bmc.incr" site: random circuits on
     the incremental engine may downgrade to Unknown but must never
     contradict the fault-free scratch reference. *)
  let total_fired = ref 0 in
  for seed = 21 to 28 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
    let reference = Bmc.check ~max_depth:5 ~incremental:false circuit property in
    (match reference with
    | Bmc.Unknown (r, _) ->
        Alcotest.failf "seed %d: fault-free reference is unknown (%s)" seed
          (unknown_to_string r)
    | _ -> ());
    Fault.arm ~sites:[ "bmc.incr" ] ~rate:0.3 ~seed ();
    let outcome =
      Fun.protect
        ~finally:(fun () ->
          total_fired := !total_fired + Fault.fired ();
          Fault.disarm ())
        (fun () -> Bmc.check ~incremental:true ~max_depth:5 circuit property)
    in
    if verdict_flip reference outcome then
      Alcotest.failf "seed %d: bmc.incr fault flipped the verdict" seed;
    match outcome with
    | Bmc.Unknown (Bmc.Faulted site, _) ->
        Alcotest.(check string) "only the armed site fires" "bmc.incr" site
    | _ -> ()
  done;
  Alcotest.(check bool) "the corpus did pass the bmc.incr site" true
    (!total_fired > 0)

let test_fault_cache_store_fuzz () =
  (* The "cache.store" site models torn/corrupted persistence: a fired
     fault writes half a JSONL line and degrades the store to
     memory-only. The contract is the same as every other site — a
     faulted cache may lose entries but must never flip a verdict:
     neither in the faulted cold run itself, nor in a warm run that
     reloads the half-written store from disk. *)
  let total_fired = ref 0 and total_rejects = ref 0 in
  for seed = 31 to 38 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
    let reference = Bmc.check ~max_depth:5 circuit property in
    (match reference with
    | Bmc.Unknown (r, _) ->
        Alcotest.failf "seed %d: fault-free reference is unknown (%s)" seed
          (unknown_to_string r)
    | _ -> ());
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "autocc_test_cachefault_%d_%d" (Unix.getpid ()) seed)
    in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    (* Cold, with every store torn mid-write. *)
    Fault.arm ~sites:[ "cache.store" ] ~rate:1.0 ~seed ();
    let cold =
      Fun.protect
        ~finally:(fun () ->
          total_fired := !total_fired + Fault.fired ();
          Fault.disarm ())
        (fun () ->
          let cache = Cache.create ~dir () in
          Bmc.check ~max_depth:5 ~cache circuit property)
    in
    if verdict_flip reference cold then
      Alcotest.failf "seed %d: cache.store fault flipped the cold verdict" seed;
    (* Warm, fault-free, reloading whatever half-written garbage the
       faulted run left on disk: corrupt lines must be rejected at load,
       and the verdict recomputed, never flipped. *)
    let warm_cache = Cache.create ~dir () in
    let warm = Bmc.check ~max_depth:5 ~cache:warm_cache circuit property in
    total_rejects := !total_rejects + (Cache.stats warm_cache).Cache.rejects;
    if verdict_flip reference warm then
      Alcotest.failf
        "seed %d: a corrupted store flipped the warm verdict" seed;
    match warm with
    | Bmc.Unknown _ ->
        Alcotest.failf "seed %d: a fault-free warm run must be conclusive" seed
    | _ -> ()
  done;
  Alcotest.(check bool) "the corpus did pass the cache.store site" true
    (!total_fired > 0);
  Alcotest.(check bool) "torn writes were rejected at reload" true
    (!total_rejects > 0)

(* {1 Campaigns: crash isolation and resume} *)

let two_leak_dut () =
  let open Signal in
  let din = input "din" 4 in
  let cap1 = input "cap1" 1 in
  let cap2 = input "cap2" 1 in
  let query = input "query" 4 in
  let stash1 = reg "stash1" 4 in
  let stash2 = reg "stash2" 4 in
  reg_set_next stash1 (mux2 cap1 din stash1);
  reg_set_next stash2 (mux2 cap2 din stash2);
  Rtl.Circuit.create ~name:"twoleak"
    ~outputs:[ ("hit1", query ==: stash1); ("hit2", query ==: stash2) ]
    ()

let entry label dut ?(max_depth = 8) () =
  {
    Explain.Campaign.e_label = label;
    e_dut = label;
    e_ft = (fun () -> Autocc.Ft.generate ~threshold:2 (dut ()));
    e_max_depth = max_depth;
  }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let tmp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocc_test_%s_%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let channel_names result =
  List.sort compare
    (List.concat_map
       (fun r ->
         List.map
           (fun cr -> cr.Explain.Campaign.cr_name)
           r.Explain.Campaign.r_index)
       result.Explain.Campaign.c_results)

let test_campaign_crash_isolation () =
  (* A crashing entry is downgraded to a Failed record; the rest of the
     campaign still runs and persists. *)
  let dir = tmp_dir "crash" in
  let crashing =
    {
      Explain.Campaign.e_label = "crashing";
      e_dut = "crashing";
      e_ft = (fun () -> raise (Fault.Injected "test.site"));
      e_max_depth = 8;
    }
  in
  let result =
    Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir
      [ crashing; entry "leaky" leaky_dut () ]
  in
  (match result.Explain.Campaign.c_results with
  | [ bad; good ] ->
      (match bad.Explain.Campaign.r_status with
      | `Failed msg -> Alcotest.(check string) "fault site named" "fault:test.site" msg
      | `Done -> Alcotest.fail "the crashing entry cannot be Done");
      (match good.Explain.Campaign.r_status with
      | `Done -> ()
      | `Failed m -> Alcotest.failf "healthy entry dragged down: %s" m);
      Alcotest.(check bool) "healthy entry found its channel" true
        (good.Explain.Campaign.r_index <> [])
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs));
  (* The persisted index records both. *)
  let index =
    match Obs.Json.parse (read_file (Filename.concat dir "campaign.json")) with
    | Ok j -> j
    | Error e -> Alcotest.failf "campaign.json does not parse: %s" e
  in
  (match Obs.Json.member "entries" index with
  | Some (Obs.Json.List [ e1; e2 ]) ->
      let status e =
        match Obs.Json.member "status" e with
        | Some (Obs.Json.Str s) -> s
        | _ -> "?"
      in
      Alcotest.(check string) "failed persisted" "failed" (status e1);
      Alcotest.(check string) "done persisted" "done" (status e2)
  | _ -> Alcotest.fail "index must carry both entries");
  rm_rf dir

let test_campaign_resume_bytes () =
  (* Resuming an already-complete campaign re-solves nothing and
     rewrites campaign.json byte-identically. *)
  let dir = tmp_dir "resume_bytes" in
  let entries = [ entry "leaky" leaky_dut (); entry "twoleak" two_leak_dut () ] in
  let first = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir entries in
  let bytes_before = read_file (Filename.concat dir "campaign.json") in
  let second =
    Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir ~resume:true entries
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Explain.Campaign.r_label ^ " resumed")
        true r.Explain.Campaign.r_resumed)
    second.Explain.Campaign.c_results;
  let bytes_after = read_file (Filename.concat dir "campaign.json") in
  Alcotest.(check string) "campaign.json byte-identical" bytes_before bytes_after;
  Alcotest.(check (list string)) "same channel set"
    (channel_names first) (channel_names second);
  Alcotest.(check (list string)) "same artifact list"
    (List.sort compare first.Explain.Campaign.c_artifacts)
    (List.sort compare second.Explain.Campaign.c_artifacts);
  rm_rf dir

let test_campaign_interrupted_resume () =
  (* Simulate a campaign killed between entries: only the first entry's
     work is on disk. Resume completes the rest and the final channel
     set matches an uninterrupted run. *)
  let e1 = entry "leaky" leaky_dut () in
  let e2 = entry "twoleak" two_leak_dut () in
  let full_dir = tmp_dir "uninterrupted" in
  let full = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:full_dir [ e1; e2 ] in
  let dir = tmp_dir "interrupted" in
  let _partial = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir [ e1 ] in
  let resumed =
    Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir ~resume:true [ e1; e2 ]
  in
  (match resumed.Explain.Campaign.c_results with
  | [ r1; r2 ] ->
      Alcotest.(check bool) "completed entry reused" true
        r1.Explain.Campaign.r_resumed;
      Alcotest.(check bool) "missing entry recomputed" false
        r2.Explain.Campaign.r_resumed
  | rs -> Alcotest.failf "expected 2 results, got %d" (List.length rs));
  Alcotest.(check (list string)) "channel set matches the uninterrupted run"
    (channel_names full) (channel_names resumed);
  rm_rf full_dir;
  rm_rf dir

let test_campaign_resume_validates () =
  (* A persisted entry is only reused when it still matches: a changed
     max_depth forces recomputation. *)
  let dir = tmp_dir "revalidate" in
  let _ = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir [ entry "leaky" leaky_dut () ] in
  let deeper =
    Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir ~resume:true
      [ entry "leaky" leaky_dut ~max_depth:9 () ]
  in
  (match deeper.Explain.Campaign.c_results with
  | [ r ] ->
      Alcotest.(check bool) "depth change invalidates the record" false
        r.Explain.Campaign.r_resumed
  | _ -> Alcotest.fail "one result expected");
  (* And a corrupted channel artifact also invalidates it. *)
  let _ = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir [ entry "leaky" leaky_dut () ] in
  let oc = open_out (Filename.concat dir "channel_leaky_0.json") in
  output_string oc "not json";
  close_out oc;
  let resumed =
    Explain.Campaign.run ~opt:Opt.O2 ~out_dir:dir ~resume:true
      [ entry "leaky" leaky_dut () ]
  in
  (match resumed.Explain.Campaign.c_results with
  | [ r ] ->
      Alcotest.(check bool) "corrupt artifact invalidates the record" false
        r.Explain.Campaign.r_resumed
  | _ -> Alcotest.fail "one result expected");
  rm_rf dir

let test_campaign_live_writer_warning () =
  (* --resume warns when the directory's last event was written by
     another process that is still alive, and only then. *)
  let dir = tmp_dir "live_writer" in
  Obs.Files.mkdir_p dir;
  let live_writer ~last_pid =
    Obs.Files.write_atomic
      ~path:(Filename.concat dir "events.jsonl")
      (Obs.Json.to_string
         (Obs.Bus.json_of_stamped
            {
              Obs.Bus.seq = 1;
              ts = 0.;
              tid = 0;
              pid = last_pid;
              label = "leaky";
              ev = Obs.Bus.Job_start { goal_depth = 8 };
            })
      ^ "\n");
    Explain.Campaign.live_writer dir
  in
  let child =
    Unix.create_process "sleep" [| "sleep"; "60" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] child))
    (fun () ->
      Alcotest.(check (option int)) "a live other writer is flagged"
        (Some child) (live_writer ~last_pid:child));
  Alcotest.(check (option int)) "a gone writer is not" None
    (live_writer ~last_pid:child);
  Alcotest.(check (option int)) "nor is this process" None
    (live_writer ~last_pid:(Unix.getpid ()));
  rm_rf dir

let test_campaign_unwritable_out_dir () =
  (* A file where the output directory should be: diagnosed before any
     solving (works even as root, where permission bits don't bite). *)
  let path = Filename.temp_file "autocc_not_a_dir" "" in
  (match
     Explain.Campaign.run ~out_dir:path [ entry "leaky" leaky_dut () ]
   with
  | exception Failure msg ->
      Alcotest.(check bool) "diagnostic names the problem" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "an unusable out_dir must fail fast");
  Sys.remove path

let () =
  Alcotest.run "robustness"
    [
      ( "retry",
        [
          Alcotest.test_case "scale schedule" `Quick test_retry_scale;
          Alcotest.test_case "budget escalation" `Quick test_retry_budget_for;
          Alcotest.test_case "config rotation" `Quick test_retry_config_for;
          Alcotest.test_case "capped backoff" `Quick test_retry_backoff;
          Alcotest.test_case "transience" `Quick test_retry_should_retry;
          Alcotest.test_case "run re-runs until conclusive" `Quick test_run_schedule;
          Alcotest.test_case "run stops at max_attempts" `Quick test_run_gives_up;
          Alcotest.test_case "run keeps a final Unknown" `Quick test_run_no_retry;
        ] );
      ( "budget",
        [
          Alcotest.test_case "wall-clock exhaustion" `Quick test_wall_budget_unknown;
          Alcotest.test_case "conflict exhaustion" `Quick test_conflict_budget_unknown;
          Alcotest.test_case "escalation recovers" `Quick test_budget_escalation_recovers;
          Alcotest.test_case "a retry policy keeps the engine" `Quick
            test_retry_policy_keeps_engine;
        ] );
      ( "fault",
        [
          Alcotest.test_case "seeded determinism" `Quick test_fault_determinism;
          Alcotest.test_case "reseed is relative to the armed seed" `Quick
            test_fault_reseed;
          Alcotest.test_case "fuzz: no verdict flips" `Quick test_fault_fuzz;
          Alcotest.test_case "fuzz under retry" `Quick test_fault_fuzz_with_retry;
          Alcotest.test_case "bmc.incr site downgrades cleanly" `Quick
            test_fault_incr_site;
          Alcotest.test_case "fuzz: cache.store never flips" `Quick
            test_fault_cache_store_fuzz;
          Alcotest.test_case "fuzz: bmc.incr never flips" `Quick
            test_fault_incr_fuzz;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "crash isolation" `Quick test_campaign_crash_isolation;
          Alcotest.test_case "resume is byte-stable" `Quick test_campaign_resume_bytes;
          Alcotest.test_case "interrupted resume" `Quick test_campaign_interrupted_resume;
          Alcotest.test_case "resume validates records" `Quick test_campaign_resume_validates;
          Alcotest.test_case "resume warns about a live writer" `Quick
            test_campaign_live_writer_warning;
          Alcotest.test_case "unwritable out dir" `Quick test_campaign_unwritable_out_dir;
        ] );
    ]
