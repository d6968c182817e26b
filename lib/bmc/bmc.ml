module S = Sat.Solver
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

type property = {
  assumes : Rtl.Signal.t list;
  asserts : (string * Rtl.Signal.t) list;
}

type cex = {
  cex_depth : int;
  cex_inputs : (string * Bitvec.t) list array;
  cex_failed : string list;
  cex_circuit : Rtl.Circuit.t;
}

type stats = {
  depth_reached : int;
  solve_time : float;
  vars : int;
  clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  opt : Opt.stats option;
}

type budget = {
  bud_wall_s : float option;
  bud_conflicts : int option;
  bud_learnts : int option;
}

let no_budget = { bud_wall_s = None; bud_conflicts = None; bud_learnts = None }

let budget ?wall_s ?conflicts ?learnts () =
  let pos what = function
    | Some v when v <= 0 -> invalid_arg ("Bmc.budget: " ^ what ^ " must be positive")
    | o -> o
  in
  (match wall_s with
  | Some s when s <= 0. -> invalid_arg "Bmc.budget: wall_s must be positive"
  | _ -> ());
  {
    bud_wall_s = wall_s;
    bud_conflicts = pos "conflicts" conflicts;
    bud_learnts = pos "learnts" learnts;
  }

type case = Base | Step

type unknown_reason =
  | Bound_exhausted
  | Budget_exhausted of {
      ub_budget : S.budget_kind;
      ub_depth : int;
      ub_case : case;
    }
  | Faulted of string

let case_to_string = function Base -> "base" | Step -> "step"

let unknown_reason_to_string = function
  | Bound_exhausted -> "bound"
  | Budget_exhausted { ub_budget; ub_depth; ub_case } ->
      Printf.sprintf "budget:%s@%d:%s"
        (S.budget_kind_to_string ub_budget)
        ub_depth (case_to_string ub_case)
  | Faulted site -> "fault:" ^ site

let pp_unknown_reason fmt r =
  Format.pp_print_string fmt (unknown_reason_to_string r)

type outcome =
  | Cex of cex * stats
  | Bounded_proof of stats
  | Unknown of unknown_reason * stats

exception Replay_mismatch of string

(* Relative budget -> absolute solver budget: the deadline is pinned to
   the wall clock at engine entry, so retries get a fresh allowance. *)
let solver_budget b =
  match (b.bud_wall_s, b.bud_conflicts, b.bud_learnts) with
  | None, None, None -> S.no_budget
  | _ ->
      let clock = Unix.gettimeofday in
      {
        S.b_deadline = Option.map (fun s -> clock () +. s) b.bud_wall_s;
        b_conflicts = b.bud_conflicts;
        b_learnts = b.bud_learnts;
        b_clock = clock;
      }

(* The solver's stop hook carries only the [sat.stop] fault probe: an
   armed site raises {!Fault.Injected} from the solver's propagation
   loop (and from the between-depth polls), which the engine downgrades
   to [Unknown (Faulted _)]. Nothing else stops a search. *)
let fault_stop () =
  Fault.point "sat.stop";
  false

let check_width_1 what s =
  if Signal.width s <> 1 then
    invalid_arg (Printf.sprintf "Bmc: %s signal must be 1 bit wide" what)

let replay_values cex signals =
  let sim = Sim.create cex.cex_circuit in
  Sim.watch sim signals;
  Sim.run sim cex.cex_inputs;
  Sim.waveform sim

(* The one replay rule for a candidate CEX: from the cycle [sim] stands
   at, drive each remaining cycle of [inputs]; every assumption must hold
   on every replayed cycle and some assertion must be false at [depth]. *)
let validate_on sim property inputs depth =
  let failed = ref [] in
  for cycle = Sim.cycle sim to Array.length inputs - 1 do
    List.iter (fun (n, v) -> Sim.set_input sim n v) inputs.(cycle);
    List.iter
      (fun a ->
        if Bitvec.is_zero (Sim.peek sim a) then
          raise
            (Replay_mismatch
               (Printf.sprintf "assumption violated at cycle %d in replay" cycle)))
      property.assumes;
    if cycle = depth then
      failed :=
        List.filter_map
          (fun (name, a) ->
            if Bitvec.is_zero (Sim.peek sim a) then Some name else None)
          property.asserts;
    Sim.step sim
  done;
  if !failed = [] then
    raise (Replay_mismatch "no assertion failed at CEX depth in replay");
  !failed

let validate circuit property inputs depth =
  validate_on (Sim.create circuit) property inputs depth

let check_property what property =
  List.iter (check_width_1 "assume") property.assumes;
  List.iter (fun (_, s) -> check_width_1 "assert" s) property.asserts;
  if property.asserts = [] then invalid_arg (what ^ ": no assertions")

(* Property signals are usually fresh nodes over the circuit's graph;
   elaborate an extended circuit that carries them as outputs so that the
   blaster and the replay simulator both know them. Creates no new signal
   nodes. Idempotent: ports from an earlier instrumentation (a
   {!preoptimize}d circuit) are dropped before the current property's
   are appended. *)
let is_prop_port name =
  String.length name >= 6 && String.sub name 0 6 = "__bmc_"

let instrument circuit property =
  Rtl.Circuit.create
    ~name:(Rtl.Circuit.name circuit ^ "_prop")
    ~outputs:
      (List.filter_map
         (fun p ->
           if is_prop_port p.Circuit.port_name then None
           else Some (p.Circuit.port_name, p.Circuit.signal))
         (Circuit.outputs circuit)
      @ List.mapi (fun i a -> (Printf.sprintf "__bmc_assume_%d" i, a)) property.assumes
      @ List.map (fun (n, a) -> ("__bmc_assert_" ^ n, a)) property.asserts)
    ()

(* Output names the optimizer must keep: the property signals. *)
let prop_output_names property =
  List.mapi (fun i _ -> Printf.sprintf "__bmc_assume_%d" i) property.assumes
  @ List.map (fun (n, _) -> "__bmc_assert_" ^ n) property.asserts

(* Optimize the instrumented circuit around the property cone. Returns
   the circuit to blast, the property re-rooted into it, and a widening
   function taking a CEX input trace of the slim circuit back to a full
   assignment of the original instrumented circuit's inputs
   (cone-dropped inputs are provably irrelevant, so zeros do) — the CEX
   is then validated against the unoptimized circuit, which catches any
   optimizer unsoundness as a {!Replay_mismatch}. Symmetric-universe
   pairs are re-rooted alongside the property; pairs whose cone the
   optimizer dropped, or that it merged into one node, disappear (the
   blaster re-verifies the survivors structurally anyway). *)
let map_sym o sym =
  List.filter_map
    (fun (a, b) ->
      match (o.Opt.opt_map a, o.Opt.opt_map b) with
      | a', b' when a' != b' -> Some (a', b')
      | _ -> None
      | exception Not_found -> None)
    sym

let optimize_instrumented ~opt ?(sym = []) full property =
  match opt with
  | Opt.O0 -> (full, property, (fun inputs -> inputs), None, sym)
  | Opt.O2 ->
      let o =
        Opt.optimize ~level:opt ~keep_outputs:(prop_output_names property) full
      in
      let property' =
        {
          assumes = List.map o.Opt.opt_map property.assumes;
          asserts = List.map (fun (n, a) -> (n, o.Opt.opt_map a)) property.asserts;
        }
      in
      let widen inputs =
        Array.map
          (fun assignments ->
            List.map
              (fun p ->
                let name = p.Circuit.port_name in
                match List.assoc_opt name assignments with
                | Some v -> (name, v)
                | None -> (name, Bitvec.zero (Signal.width p.Circuit.signal)))
              (Circuit.inputs full))
          inputs
      in
      (o.Opt.opt_circuit, property', widen, Some o.Opt.opt_stats, map_sym o sym)

(* Instrument + optimize once, outside any engine: callers that run the
   same circuit/property through several engines (benchmarks comparing
   them) can pay the optimizer once and hand each engine the slim
   circuit with [~opt:O0]. *)
let preoptimize ?(opt = Opt.O2) ?(sym = []) circuit property =
  check_property "Bmc.preoptimize" property;
  let full = instrument circuit property in
  let circuit', property', _, stats, sym' =
    optimize_instrumented ~opt ~sym full property
  in
  (circuit', property', sym', stats)

(* {1 Telemetry}

   The solver stays dependency-free; this is where its sampling hook and
   final counters get wired into {!Obs}. *)

let m_sat_conflicts = lazy (Obs.Metrics.counter "sat.conflicts")
let m_sat_decisions = lazy (Obs.Metrics.counter "sat.decisions")
let m_sat_propagations = lazy (Obs.Metrics.counter "sat.propagations")
let m_sat_restarts = lazy (Obs.Metrics.counter "sat.restarts")
let m_sat_reduces = lazy (Obs.Metrics.counter "sat.reduces")
let m_sat_learned = lazy (Obs.Metrics.counter "sat.learned_clauses")
let m_depth_seconds = lazy (Obs.Metrics.series "bmc.depth_seconds")

(* Emit solver-progress counter tracks while tracing, feed the solver
   health watchdog, and publish progress/stall events on the bus. The
   hook runs inside the solve. A stalled query with
   [p_rebudget] set trips the solver budget: the query surfaces as
   [Out_of_budget Wall_clock] -> [Unknown (Budget_exhausted ...)], which
   the retry schedule already treats as transient — the "rebudget early"
   hint without [lib/sat] ever depending on [lib/obs]. Because rebudget
   can change the verdict, the hook is installed whenever it is set, not
   only when telemetry is on: turning telemetry on must not change a
   verdict. *)
let attach_sampling label solver =
  let policy = Obs.Watchdog.policy () in
  if Obs.enabled () || policy.Obs.Watchdog.p_rebudget then begin
    let dog =
      Obs.Watchdog.create ~policy
        ~on_stall:(fun ~cps:_ ~lps:_ ->
          if policy.Obs.Watchdog.p_rebudget then
            S.trip_budget solver S.Wall_clock)
        ()
    in
    S.on_sample solver ~every:policy.Obs.Watchdog.p_every (fun st ->
        Obs.counter_event ("sat." ^ label)
          [
            ("conflicts", float_of_int st.S.s_conflicts);
            ("propagations", float_of_int st.S.s_propagations);
            ("learnts", float_of_int st.S.s_learnts);
          ];
        Obs.Watchdog.feed dog ~conflicts:st.S.s_conflicts
          ~learnts:st.S.s_learned_total ~now:(Unix.gettimeofday ());
        if Obs.Bus.enabled () then begin
          let cps = Obs.Watchdog.conflicts_per_s dog in
          if not (Float.is_nan cps) then
            Obs.Bus.publish
              (Obs.Bus.Solver_progress
                 {
                   conflicts = st.S.s_conflicts;
                   learnts = st.S.s_learnts;
                   conflicts_per_s = cps;
                 })
        end)
  end

(* Fold a run's final solver counters into the metric registry; each
   engine entry point calls this exactly once, on any exit path. *)
let flush_solver_metrics solvers =
  if Obs.Metrics.enabled () then
    List.iter
      (fun solver ->
        let st = S.stats solver in
        Obs.Metrics.add (Lazy.force m_sat_conflicts) st.S.s_conflicts;
        Obs.Metrics.add (Lazy.force m_sat_decisions) st.S.s_decisions;
        Obs.Metrics.add (Lazy.force m_sat_propagations) st.S.s_propagations;
        Obs.Metrics.add (Lazy.force m_sat_restarts) st.S.s_restarts;
        Obs.Metrics.add (Lazy.force m_sat_reduces) st.S.s_reduces;
        Obs.Metrics.add (Lazy.force m_sat_learned) st.S.s_learned_total)
      solvers

(* How one depth ended, published once: [Cex_found], or [Depth_solved]
   with the wall seconds since [t0]. With [series] (the default) the
   seconds also join [bmc.depth_seconds]. *)
let depth_closed ?(series = true) ~t0 depth ~cex =
  let seconds = Unix.gettimeofday () -. t0 in
  if series && Obs.Metrics.enabled () then
    Obs.Metrics.record (Lazy.force m_depth_seconds) seconds;
  Obs.Bus.publish
    (if cex then Obs.Bus.Cex_found { depth }
     else Obs.Bus.Depth_solved { depth; seconds })

(* The incremental engine: ONE solver instance lives for the whole run.
   Each depth adds only the new transition frame (a [Template]
   instantiation) and selects the per-depth property via an activation
   literal: clauses [¬act_k ∨ …] are inert until
   [solve ~assumptions:[act_k]], and a depth moving on retires [act_k]
   with a unit clause. Learnt clauses and variable activity therefore
   survive across depths — the amortization the whole refactor is
   for. *)
let check_incremental ~max_depth ~progress ?solver_config ~opt ~budget
    ~sym circuit property =
  check_property "Bmc.check" property;
  let full = instrument circuit property in
  let solve_time = ref 0. in
  let cur_depth = ref 0 in
  (* Filled in as the run sets up, so that abort paths (budget, fault)
     can report honest statistics even when the failure precedes solver
     creation (e.g. a fault inside an opt pass). *)
  let solver_ref = ref None in
  let opt_ref = ref None in
  let stats depth =
    match !solver_ref with
    | None ->
        {
          depth_reached = depth;
          solve_time = !solve_time;
          vars = 0;
          clauses = 0;
          conflicts = 0;
          decisions = 0;
          propagations = 0;
          restarts = 0;
          opt = !opt_ref;
        }
    | Some solver ->
        flush_solver_metrics [ solver ];
        let st = S.stats solver in
        {
          depth_reached = depth;
          solve_time = !solve_time;
          vars = st.S.s_vars;
          clauses = st.S.s_clauses;
          conflicts = st.S.s_conflicts;
          decisions = st.S.s_decisions;
          propagations = st.S.s_propagations;
          restarts = st.S.s_restarts;
          opt = !opt_ref;
        }
  in
  let run () =
  let solver = S.create ?config:solver_config ~stop:fault_stop () in
  S.set_budget solver (solver_budget budget);
  solver_ref := Some solver;
  attach_sampling "check" solver;
  let circuit, sprop, widen, opt_stats, sym =
    optimize_instrumented ~opt ~sym full property
  in
  opt_ref := opt_stats;
  let blaster =
    Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym solver circuit
  in
  let timed_solve ~depth ~assumptions () =
    Obs.span "sat.solve" ~attrs:[ ("depth", Obs.Json.Int depth) ] @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let r = S.solve ~assumptions solver in
    solve_time := !solve_time +. (Unix.gettimeofday () -. t0);
    r
  in
  let rec go depth =
    if depth > max_depth then Bounded_proof (stats max_depth)
    else begin
      cur_depth := depth;
      Fault.point "sat.stop";
      progress depth;
      let t_depth = Unix.gettimeofday () in
      let found =
        Obs.span "bmc.depth" ~attrs:[ ("depth", Obs.Json.Int depth) ]
        @@ fun () ->
        (* Fault probe for the incremental path: fires between depth
           [k-1]'s clean verdict and depth [k]'s clause addition, so the
           robustness fuzz can hit the solver-reuse window specifically. *)
        if depth > 0 then Fault.point "bmc.incr";
        Fault.point "bmc.alloc";
        Cnf.Blast.unroll_cycle blaster;
        (* Assumptions hold unconditionally on every cycle. *)
        List.iter
          (fun a ->
            S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle:depth a ])
          sprop.assumes;
        (* Activation literal: act -> (some assertion is false at [depth]). *)
        let act = Cnf.Blast.fresh_var blaster in
        S.add_clause solver
          (S.neg act
          :: List.map
               (fun (_, a) -> S.neg (Cnf.Blast.lit1 blaster ~cycle:depth a))
               sprop.asserts);
        match timed_solve ~depth ~assumptions:[ act ] () with
        | S.Sat ->
            let inputs =
              Array.init (depth + 1) (fun cycle ->
                  List.map
                    (fun p ->
                      ( p.Circuit.port_name,
                        Cnf.Blast.input_value blaster ~cycle p.Circuit.port_name
                      ))
                    (Circuit.inputs circuit))
            in
            (* Replay on the unoptimized instrumented circuit with the
               original property roots. *)
            let inputs = widen inputs in
            let failed = validate full property inputs depth in
            Some
              (Cex
                 ( {
                     cex_depth = depth;
                     cex_inputs = inputs;
                     cex_failed = failed;
                     cex_circuit = full;
                   },
                   stats depth ))
        | S.Unsat ->
            (* No failure at this depth: deactivate and assert the properties
               as facts for deeper searches. *)
            S.add_clause solver [ S.neg act ];
            List.iter
              (fun (_, a) ->
                S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle:depth a ])
              sprop.asserts;
            None
      in
      depth_closed ~t0:t_depth depth ~cex:(Option.is_some found);
      match found with Some outcome -> outcome | None -> go (depth + 1)
    end
  in
  go 0
  in
  try run () with
  | S.Out_of_budget kind ->
      Unknown
        ( Budget_exhausted
            { ub_budget = kind; ub_depth = !cur_depth; ub_case = Base },
          stats (!cur_depth - 1) )
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      Unknown (Faulted site, stats (!cur_depth - 1))

(* The scratch oracle (`--no-incremental`): every depth gets a fresh
   solver and a fresh [Direct] re-blast of cycles 0..k, so nothing —
   learnt clauses, activity, watch lists — survives between depths. Its
   value is not speed (it is quadratic in depth) but independence: a
   different CNF shape and a different search trajectory that must still
   agree with the incremental engine on verdict and CEX depth, which is
   what the differential harness checks.

   Semantics mirror the incremental engine: facts proven at earlier
   depths (no assertion fails before k) are re-asserted, so both report
   the shallowest failing depth. The wall deadline is pinned once at
   entry and shared by every per-depth solver; the conflict cap is
   cumulative — depth k's solver receives the cap minus what earlier
   depths spent — so [Out_of_budget] fires when the run as a whole
   exceeds the grant and the report stays clean up to depth k-1. *)
let check_scratch ~max_depth ~progress ?solver_config ~opt ~budget
    circuit property =
  check_property "Bmc.check" property;
  let full = instrument circuit property in
  let solve_time = ref 0. in
  let cur_depth = ref 0 in
  let opt_ref = ref None in
  let sbud = solver_budget budget in
  (* Counters fold in as each per-depth solver retires; the size fields
     track the deepest (= largest) instance. *)
  let acc_conflicts = ref 0 and acc_decisions = ref 0 in
  let acc_propagations = ref 0 and acc_restarts = ref 0 in
  let last_vars = ref 0 and last_clauses = ref 0 in
  let live = ref None in
  let retire_solver () =
    match !live with
    | None -> ()
    | Some solver ->
        flush_solver_metrics [ solver ];
        let st = S.stats solver in
        acc_conflicts := !acc_conflicts + st.S.s_conflicts;
        acc_decisions := !acc_decisions + st.S.s_decisions;
        acc_propagations := !acc_propagations + st.S.s_propagations;
        acc_restarts := !acc_restarts + st.S.s_restarts;
        last_vars := st.S.s_vars;
        last_clauses := st.S.s_clauses;
        live := None
  in
  let stats depth =
    retire_solver ();
    {
      depth_reached = depth;
      solve_time = !solve_time;
      vars = !last_vars;
      clauses = !last_clauses;
      conflicts = !acc_conflicts;
      decisions = !acc_decisions;
      propagations = !acc_propagations;
      restarts = !acc_restarts;
      opt = !opt_ref;
    }
  in
  let run () =
    let circuit, sprop, widen, opt_stats, _ =
      optimize_instrumented ~opt full property
    in
    opt_ref := opt_stats;
    let rec go depth =
      if depth > max_depth then Bounded_proof (stats max_depth)
      else begin
        cur_depth := depth;
        Fault.point "sat.stop";
        progress depth;
        let t_depth = Unix.gettimeofday () in
        let found =
          Obs.span "bmc.depth" ~attrs:[ ("depth", Obs.Json.Int depth) ]
          @@ fun () ->
          Fault.point "bmc.alloc";
          let solver = S.create ?config:solver_config ~stop:fault_stop () in
          S.set_budget solver
            {
              sbud with
              S.b_conflicts =
                Option.map
                  (fun cap -> cap - !acc_conflicts)
                  budget.bud_conflicts;
            };
          attach_sampling "check" solver;
          live := Some solver;
          let blaster = Cnf.Blast.create solver circuit in
          for cycle = 0 to depth do
            Cnf.Blast.unroll_cycle blaster;
            List.iter
              (fun a -> S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle a ])
              sprop.assumes;
            if cycle < depth then
              List.iter
                (fun (_, a) ->
                  S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle a ])
                sprop.asserts
          done;
          let act = Cnf.Blast.fresh_var blaster in
          S.add_clause solver
            (S.neg act
            :: List.map
                 (fun (_, a) -> S.neg (Cnf.Blast.lit1 blaster ~cycle:depth a))
                 sprop.asserts);
          let r =
            Obs.span "sat.solve" ~attrs:[ ("depth", Obs.Json.Int depth) ]
            @@ fun () ->
            let t0 = Unix.gettimeofday () in
            let r = S.solve ~assumptions:[ act ] solver in
            solve_time := !solve_time +. (Unix.gettimeofday () -. t0);
            r
          in
          match r with
          | S.Sat ->
              let inputs =
                Array.init (depth + 1) (fun cycle ->
                    List.map
                      (fun p ->
                        ( p.Circuit.port_name,
                          Cnf.Blast.input_value blaster ~cycle
                            p.Circuit.port_name ))
                      (Circuit.inputs circuit))
              in
              let inputs = widen inputs in
              let failed = validate full property inputs depth in
              Some
                (Cex
                   ( {
                       cex_depth = depth;
                       cex_inputs = inputs;
                       cex_failed = failed;
                       cex_circuit = full;
                     },
                     stats depth ))
          | S.Unsat ->
              retire_solver ();
              None
        in
        depth_closed ~t0:t_depth depth ~cex:(Option.is_some found);
        match found with Some outcome -> outcome | None -> go (depth + 1)
      end
    in
    go 0
  in
  try run () with
  | S.Out_of_budget kind ->
      Unknown
        ( Budget_exhausted
            { ub_budget = kind; ub_depth = !cur_depth; ub_case = Base },
          stats (!cur_depth - 1) )
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      Unknown (Faulted site, stats (!cur_depth - 1))

(* {1 Verdict cache}

   The cache fronts the engines: the key is {!Cache.canon} over the
   property cone (structure only — isomorphic, alpha-renamed circuits
   share entries) combined with a fingerprint of everything else that
   could influence the verdict: engine, depth bound, opt level, engine
   variant, solver configuration and budget. Only conclusive verdicts
   are stored, and a cached counterexample is never trusted as-is: it is
   re-materialized onto the fresh circuit (by canonical input ordinal,
   so names are immaterial) and replayed on the simulator; a failed
   replay evicts the entry and falls through to a fresh run. A cache hit
   can therefore never flip a verdict a fresh run would have produced:
   Bounded/Proved entries assert exactly what the identical query
   proved, and Cex entries carry their own machine-checkable witness. *)

let cache_config ~engine ~max_depth ~opt ~incremental ~solver_config ~budget =
  let cfg =
    match solver_config with
    | None -> "default"
    | Some c ->
        Printf.sprintf "%s;%g;%d;%b" c.S.cfg_name c.S.var_decay
          c.S.restart_first c.S.default_polarity
  in
  let fl = function None -> "-" | Some f -> Printf.sprintf "%g" f in
  let it = function None -> "-" | Some i -> string_of_int i in
  Printf.sprintf "%s|d=%d|o=%d|i=%b|s=%s|b=%s,%s,%s" engine max_depth
    (Opt.level_to_int opt) incremental cfg (fl budget.bud_wall_s)
    (it budget.bud_conflicts) (it budget.bud_learnts)

(* The exact (structural digest, cache key, config fingerprint) triple
   {!check}/{!prove} would use for [property] — what `autocc why`
   recomputes to address the store, and what the run ledger records. *)
let cache_fingerprint ~engine ?(max_depth = 30) ?(opt = Opt.O0)
    ?(incremental = true) ?solver_config ?(budget = no_budget) property =
  let canon =
    Cache.canon ~assumes:property.assumes
      ~asserts:(List.map snd property.asserts)
  in
  let config =
    cache_config ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
  in
  (canon.Cache.c_digest, Cache.key canon ~config, config)

(* Provenance stamped onto every store: this process's ledger run id
   plus the full fingerprint, so a later warm hit is auditable back to
   the run that carried the solve. *)
let prov_now ~engine ~config ~key =
  {
    Cache.p_run = Obs.Ledger.run_id ();
    p_engine = engine;
    p_config = config;
    p_key = key;
    p_ts = Unix.gettimeofday ();
  }

(* Statistics for a run the cache answered: no solver existed. *)
let hit_stats depth =
  {
    depth_reached = depth;
    solve_time = 0.;
    vars = 0;
    clauses = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    opt = None;
  }

let cache_entry_of_cex canon property cex =
  let ord_of_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      match Signal.op s with
      | Signal.Input n -> Hashtbl.replace ord_of_name n i
      | _ -> ())
    canon.Cache.c_inputs;
  let inputs =
    Array.map
      (fun assignments ->
        List.filter_map
          (fun (n, v) ->
            match Hashtbl.find_opt ord_of_name n with
            | Some i when not (Bitvec.is_zero v) -> Some (i, v)
            | _ -> None)
          assignments)
      cex.cex_inputs
  in
  let failed =
    List.filter_map
      (fun n ->
        let rec pos i = function
          | [] -> None
          | (n', _) :: _ when n' = n -> Some i
          | _ :: rest -> pos (i + 1) rest
        in
        pos 0 property.asserts)
      cex.cex_failed
  in
  { Cache.v_depth = cex.cex_depth; v_inputs = inputs; v_failed = failed }

(* Re-materialize a cached witness onto the current circuit: canonical
   input ordinal -> this circuit's input of the same structural
   position; inputs outside the hashed cone are not part of the entry
   and zeros do (they cannot influence the property). *)
let cex_inputs_of_entry canon full cc =
  let name_of_ord i =
    if i < 0 || i >= Array.length canon.Cache.c_inputs then None
    else
      match Signal.op canon.Cache.c_inputs.(i) with
      | Signal.Input n -> Some n
      | _ -> None
  in
  Array.map
    (fun cycle ->
      let assigned = Hashtbl.create 16 in
      List.iter
        (fun (ord, v) ->
          match name_of_ord ord with
          | Some n -> Hashtbl.replace assigned n v
          | None -> ())
        cycle;
      List.map
        (fun p ->
          let n = p.Circuit.port_name in
          match Hashtbl.find_opt assigned n with
          | Some v when Bitvec.width v = Signal.width p.Circuit.signal ->
              (n, v)
          | _ -> (n, Bitvec.zero (Signal.width p.Circuit.signal)))
        (Circuit.inputs full))
    cc.Cache.v_inputs

(* The soundness backstop: a cached counterexample is only surfaced if
   it replays as a genuine violation on the fresh circuit. Anything
   else — wrong depth, wrong shape, stale structure that slipped
   through a hash collision — evicts the entry and reports a miss. *)
let revalidate_cached_cex cache key canon full property max_depth cc =
  if
    cc.Cache.v_depth < 0
    || cc.Cache.v_depth > max_depth
    || Array.length cc.Cache.v_inputs <> cc.Cache.v_depth + 1
  then begin
    Cache.remove cache key;
    None
  end
  else
    let inputs = cex_inputs_of_entry canon full cc in
    match validate full property inputs cc.Cache.v_depth with
    | failed ->
        Some
          {
            cex_depth = cc.Cache.v_depth;
            cex_inputs = inputs;
            cex_failed = failed;
            cex_circuit = full;
          }
    | exception Replay_mismatch _ ->
        Cache.remove cache key;
        None

let cached_check cache key canon full property max_depth =
  match Cache.find cache key with
  | None -> None
  | Some (Cache.Bounded d) when d = max_depth ->
      Some (Bounded_proof (hit_stats d))
  | Some (Cache.Bounded _) | Some (Cache.Proved _) ->
      (* Malformed under this key (the depth bound and engine are part
         of it): evict and recompute. *)
      Cache.remove cache key;
      None
  | Some (Cache.Cex cc) ->
      Option.map
        (fun cex -> Cex (cex, hit_stats cex.cex_depth))
        (revalidate_cached_cex cache key canon full property max_depth cc)

let store_check cache key canon property ~config = function
  | Bounded_proof st ->
      Cache.add cache key (Cache.Bounded st.depth_reached)
        ~prov:(prov_now ~engine:"check" ~config ~key)
  | Cex (cex, _) ->
      Cache.add cache key
        (Cache.Cex (cache_entry_of_cex canon property cex))
        ~prov:(prov_now ~engine:"check" ~config ~key)
  | Unknown _ -> ()

let check ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(opt = Opt.O0) ?(budget = no_budget) ?(incremental = true) ?(sym = [])
    ?cache circuit property =
  let engine () =
    if incremental then
      check_incremental ~max_depth ~progress ?solver_config ~opt ~budget
        ~sym circuit property
    else
      check_scratch ~max_depth ~progress ?solver_config ~opt ~budget
        circuit property
  in
  match cache with
  | None -> engine ()
  | Some c -> (
      check_property "Bmc.check" property;
      let canon =
        Cache.canon ~assumes:property.assumes
          ~asserts:(List.map snd property.asserts)
      in
      let config =
        cache_config ~engine:"check" ~max_depth ~opt ~incremental
          ~solver_config ~budget
      in
      let key = Cache.key canon ~config in
      let full = instrument circuit property in
      match cached_check c key canon full property max_depth with
      | Some o -> o
      | None ->
          let o = engine () in
          store_check c key canon property ~config o;
          o)

(* One bounded check per assertion, every assumption kept. Where [check]
   stops at the first (shallowest) failure of {e any} assertion, this
   sweep reports a witness per failing output — the raw CEX pool a
   campaign dedups into distinct channels.

   Incremental mode shares ONE solver session across the whole sweep:
   the circuit is optimized once over the union of the assertion cones
   (a trade-off against the per-assertion cone restriction of the
   scratch path: one bigger instance, paid for once), the unrolling is
   shared, and each per-assertion Unsat verdict is recorded as a unit
   fact — sound to share because "assertion A holds at cycle c" is an
   unconditional theorem under the assumptions, independent of which
   assertion's search proved it. The [budget] is still granted afresh
   per assertion (fresh deadline; conflict/learnt caps re-based on the
   session's current counters), so one diverging assertion degrades to
   Unknown without starving the rest; a budget abort or injected fault
   leaves the solver's search state undefined, so the poisoned session
   is dropped and the next assertion rebuilds it.

   Scratch mode keeps the historical semantics exactly: one fresh
   [check ~incremental:false] per assertion, each optimized down to its
   own cone. *)
let check_each ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(opt = Opt.O0) ?(budget = no_budget) ?(incremental = true) ?(sym = [])
    ?cache circuit property =
  if property.asserts = [] then []
  else if not incremental then
    List.map
      (fun (name, a) ->
        let sub = { assumes = property.assumes; asserts = [ (name, a) ] } in
        ( name,
          Obs.span "bmc.check_each" ~attrs:[ ("assert", Obs.Json.Str name) ]
            (fun () ->
              check ~max_depth ~progress ?solver_config ~opt ~budget
                ~incremental:false ?cache circuit sub) ))
      property.asserts
  else begin
    check_property "Bmc.check_each" property;
    let full = instrument circuit property in
    let opt_memo = ref None in
    let session = ref None in
    let all_solvers = ref [] in
    let get_session () =
      match !session with
      | Some s -> s
      | None ->
          let solver = S.create ?config:solver_config ~stop:fault_stop () in
          attach_sampling "check_each" solver;
          all_solvers := solver :: !all_solvers;
          let opt_result =
            match !opt_memo with
            | Some r -> r
            | None ->
                let r = optimize_instrumented ~opt ~sym full property in
                opt_memo := Some r;
                r
          in
          let circuit', _, _, _, sym' = opt_result in
          let blaster =
            Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym:sym' solver circuit'
          in
          let s = (solver, blaster, opt_result) in
          session := Some s;
          s
    in
    (* Unroll (and constrain with the assumptions) up to [depth]; cycles
       unrolled during an earlier assertion's search are reused as-is. *)
    let ensure_cycle solver blaster sprop depth =
      while Cnf.Blast.cycles blaster <= depth do
        let cycle = Cnf.Blast.cycles blaster in
        Fault.point "bmc.alloc";
        Cnf.Blast.unroll_cycle blaster;
        List.iter
          (fun a -> S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle a ])
          sprop.assumes
      done
    in
    let opt_stats_of () =
      match !opt_memo with Some (_, _, _, o, _) -> o | None -> None
    in
    let run_one idx (name, orig_a) =
      Obs.span "bmc.check_each" ~attrs:[ ("assert", Obs.Json.Str name) ]
      @@ fun () ->
      let solve_time = ref 0. in
      let cur_depth = ref 0 in
      let baseline = ref None in
      (* Per-assertion view of the shared instance: counters are deltas
         against the session snapshot taken when this assertion started;
         sizes stay absolute (the instance the query actually ran on). *)
      let stats depth =
        match !baseline with
        | None ->
            {
              depth_reached = depth;
              solve_time = !solve_time;
              vars = 0;
              clauses = 0;
              conflicts = 0;
              decisions = 0;
              propagations = 0;
              restarts = 0;
              opt = opt_stats_of ();
            }
        | Some (solver, st0) ->
            let st = S.stats solver in
            {
              depth_reached = depth;
              solve_time = !solve_time;
              vars = st.S.s_vars;
              clauses = st.S.s_clauses;
              conflicts = st.S.s_conflicts - st0.S.s_conflicts;
              decisions = st.S.s_decisions - st0.S.s_decisions;
              propagations = st.S.s_propagations - st0.S.s_propagations;
              restarts = st.S.s_restarts - st0.S.s_restarts;
              opt = opt_stats_of ();
            }
      in
      let run () =
        let solver, blaster, (_, sprop, widen, _, _) = get_session () in
        let st0 = S.stats solver in
        baseline := Some (solver, st0);
        (* Fresh grant on the shared instance: new deadline, caps re-based
           on what the session has already spent. *)
        let sbud = solver_budget budget in
        S.set_budget solver
          {
            sbud with
            S.b_conflicts =
              Option.map
                (fun cap -> st0.S.s_conflicts + cap)
                budget.bud_conflicts;
            b_learnts =
              Option.map (fun cap -> st0.S.s_learnts + cap) budget.bud_learnts;
          };
        let asig = snd (List.nth sprop.asserts idx) in
        let sub = { assumes = property.assumes; asserts = [ (name, orig_a) ] } in
        let rec go depth =
          if depth > max_depth then Bounded_proof (stats max_depth)
          else begin
            cur_depth := depth;
            Fault.point "sat.stop";
            progress depth;
            let t_depth = Unix.gettimeofday () in
            let found =
              Obs.span "bmc.depth" ~attrs:[ ("depth", Obs.Json.Int depth) ]
              @@ fun () ->
              if depth > 0 then Fault.point "bmc.incr";
              ensure_cycle solver blaster sprop depth;
              let alit = Cnf.Blast.lit1 blaster ~cycle:depth asig in
              let act = Cnf.Blast.fresh_var blaster in
              S.add_clause solver [ S.neg act; S.neg alit ];
              let r =
                Obs.span "sat.solve" ~attrs:[ ("depth", Obs.Json.Int depth) ]
                @@ fun () ->
                let t0 = Unix.gettimeofday () in
                let r = S.solve ~assumptions:[ act ] solver in
                solve_time := !solve_time +. (Unix.gettimeofday () -. t0);
                r
              in
              match r with
              | S.Sat ->
                  S.add_clause solver [ S.neg act ];
                  let inputs =
                    Array.init (depth + 1) (fun cycle ->
                        List.map
                          (fun p ->
                            ( p.Circuit.port_name,
                              Cnf.Blast.input_value blaster ~cycle
                                p.Circuit.port_name ))
                          (Circuit.inputs (Cnf.Blast.circuit blaster)))
                  in
                  let inputs = widen inputs in
                  let failed = validate full sub inputs depth in
                  Some
                    (Cex
                       ( {
                           cex_depth = depth;
                           cex_inputs = inputs;
                           cex_failed = failed;
                           cex_circuit = full;
                         },
                         stats depth ))
              | S.Unsat ->
                  (* Retire the query and record the theorem: this
                     assertion holds at [depth], for every later search. *)
                  S.add_clause solver [ S.neg act ];
                  S.add_clause solver [ alit ];
                  None
            in
            depth_closed ~t0:t_depth depth ~cex:(Option.is_some found);
            match found with Some outcome -> outcome | None -> go (depth + 1)
          end
        in
        go 0
      in
      try run () with
      | S.Out_of_budget kind ->
          session := None;
          Unknown
            ( Budget_exhausted
                { ub_budget = kind; ub_depth = !cur_depth; ub_case = Base },
              stats (!cur_depth - 1) )
      | Fault.Injected site ->
          session := None;
          Obs.Bus.publish (Obs.Bus.Fault_injected { site });
          Unknown (Faulted site, stats (!cur_depth - 1))
    in
    (* Per-assertion cache entries use the same key shape as a
       single-assertion [check] at the same configuration — the verdict
       for one assertion is a theorem about its own cone, independent of
       which engine variant established it. A hit skips the session
       entirely for that assertion. *)
    let run_cached idx (name, orig_a) =
      (* Per-assertion bus scope: events from this query (depths, CEX,
         solver progress) carry "parent/assertion" so the cockpit shows
         one row per assertion of a multi-assert sweep. *)
      Obs.Bus.with_label (Obs.Bus.sub_label name) @@ fun () ->
      let t_job = Unix.gettimeofday () in
      Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = max_depth });
      let o =
        match cache with
        | None -> run_one idx (name, orig_a)
        | Some c -> (
            let canon =
              Cache.canon ~assumes:property.assumes ~asserts:[ orig_a ]
            in
            let config =
              cache_config ~engine:"check" ~max_depth ~opt ~incremental:true
                ~solver_config ~budget
            in
            let key = Cache.key canon ~config in
            let sub =
              { assumes = property.assumes; asserts = [ (name, orig_a) ] }
            in
            match cached_check c key canon full sub max_depth with
            | Some o -> o
            | None ->
                let o = run_one idx (name, orig_a) in
                store_check c key canon sub ~config o;
                o)
      in
      if Obs.Bus.enabled () then begin
        (match o with
        | Unknown (reason, _) ->
            Obs.Bus.publish
              (Obs.Bus.Unknown { reason = unknown_reason_to_string reason })
        | Cex _ | Bounded_proof _ -> ());
        let verdict =
          match o with
          | Cex _ -> "cex"
          | Bounded_proof _ -> "proof"
          | Unknown _ -> "unknown"
        in
        Obs.Bus.publish
          (Obs.Bus.Job_done
             { verdict; wall_s = Unix.gettimeofday () -. t_job })
      end;
      o
    in
    let flush () = flush_solver_metrics !all_solvers in
    match List.mapi (fun i (name, a) -> (name, run_cached i (name, a))) property.asserts with
    | results ->
        flush ();
        results
    | exception e ->
        flush ();
        raise e
  end

let pp_cex fmt cex =
  Format.fprintf fmt "CEX at depth %d, failing: %s@."
    cex.cex_depth
    (String.concat ", " cex.cex_failed);
  Array.iteri
    (fun cycle assignments ->
      Format.fprintf fmt "  cycle %2d:" cycle;
      List.iter
        (fun (n, v) ->
          if not (Bitvec.is_zero v) then
            Format.fprintf fmt " %s=%s" n (Bitvec.to_hex_string v))
        assignments;
      Format.fprintf fmt "@.")
    cex.cex_inputs

type induction_outcome =
  | Proved of int * stats
  | Refuted of cex * stats
  | Unknown of unknown_reason * stats

(* Incremental k-induction: the base and step solvers are each created
   once and live across every round — round k adds one [Template] frame,
   the round's activation literal, and (step side) the uniqueness
   constraints pairing cycle k against earlier cycles; the previously
   installed pairs persist, so after round k the step instance carries
   the full loop-free condition over cycles 0..k. *)
let prove_incremental ~max_depth ~progress ?solver_config ~opt ~budget
    ~sym circuit property =
  check_property "Bmc.prove" property;
  let full = instrument circuit property in
  let solve_time = ref 0. in
  let cur_depth = ref 0 in
  let cur_case = ref Base in
  let solvers_ref = ref [] in
  let opt_ref = ref None in
  let stats depth =
    flush_solver_metrics !solvers_ref;
    let sum f =
      List.fold_left (fun acc s -> acc + f (S.stats s)) 0 !solvers_ref
    in
    {
      depth_reached = depth;
      solve_time = !solve_time;
      vars = sum (fun st -> st.S.s_vars);
      clauses = sum (fun st -> st.S.s_clauses);
      conflicts = sum (fun st -> st.S.s_conflicts);
      decisions = sum (fun st -> st.S.s_decisions);
      propagations = sum (fun st -> st.S.s_propagations);
      restarts = sum (fun st -> st.S.s_restarts);
      opt = !opt_ref;
    }
  in
  let run () =
  (* One absolute deadline shared by both solvers. *)
  let sbud = solver_budget budget in
  let base_solver = S.create ?config:solver_config ~stop:fault_stop () in
  S.set_budget base_solver sbud;
  attach_sampling "base" base_solver;
  solvers_ref := [ base_solver ];
  let circuit, sprop, widen, opt_stats, sym =
    optimize_instrumented ~opt ~sym full property
  in
  opt_ref := opt_stats;
  let base =
    Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym base_solver circuit
  in
  let step_solver = S.create ?config:solver_config ~stop:fault_stop () in
  S.set_budget step_solver sbud;
  attach_sampling "step" step_solver;
  let step =
    Cnf.Blast.create ~free_init:true ~mode:Cnf.Blast.Template ~sym step_solver
      circuit
  in
  solvers_ref := [ base_solver; step_solver ];
  let timed ~case ~depth solver assumptions =
    cur_case := (match case with "base" -> Base | _ -> Step);
    Obs.span ("bmc." ^ case) ~attrs:[ ("depth", Obs.Json.Int depth) ]
    @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let r =
      Obs.span "sat.solve"
        ~attrs:[ ("case", Obs.Json.Str case); ("depth", Obs.Json.Int depth) ]
        (fun () -> S.solve ~assumptions solver)
    in
    solve_time := !solve_time +. (Unix.gettimeofday () -. t0);
    r
  in
  (* Shared per-cycle constraint installation for either blaster. *)
  let install blaster depth =
    Fault.point "bmc.alloc";
    Cnf.Blast.unroll_cycle blaster;
    let solver = Cnf.Blast.solver blaster in
    List.iter
      (fun a -> S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle:depth a ])
      sprop.assumes;
    let act = Cnf.Blast.fresh_var blaster in
    S.add_clause solver
      (S.neg act
      :: List.map
           (fun (_, a) -> S.neg (Cnf.Blast.lit1 blaster ~cycle:depth a))
           sprop.asserts);
    act
  in
  let retire blaster depth act =
    let solver = Cnf.Blast.solver blaster in
    S.add_clause solver [ S.neg act ];
    List.iter
      (fun (_, a) -> S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle:depth a ])
      sprop.asserts
  in
  let rec go k =
    if k > max_depth then Unknown (Bound_exhausted, stats max_depth)
    else begin
      cur_depth := k;
      Fault.point "sat.stop";
      progress k;
      let t_depth = Unix.gettimeofday () in
      if k > 0 then Fault.point "bmc.incr";
      (* Base case: bad at cycle k, from reset. *)
      let base_act = install base k in
      match timed ~case:"base" ~depth:k base_solver [ base_act ] with
      | S.Sat ->
          let inputs =
            Array.init (k + 1) (fun cycle ->
                List.map
                  (fun p ->
                    ( p.Circuit.port_name,
                      Cnf.Blast.input_value base ~cycle p.Circuit.port_name ))
                  (Circuit.inputs circuit))
          in
          let inputs = widen inputs in
          let failed = validate full property inputs k in
          depth_closed ~series:false ~t0:t_depth k ~cex:true;
          Refuted
            ( { cex_depth = k; cex_inputs = inputs; cex_failed = failed; cex_circuit = full },
              stats k )
      | S.Unsat ->
          retire base k base_act;
          (* Inductive step: a loop-free path of k good states reaching a
             bad one at cycle k, from an arbitrary start. *)
          let step_act = install step k in
          for i = 0 to k - 1 do
            S.add_clause step_solver [ Cnf.Blast.state_distinct step i k ]
          done;
          (match timed ~case:"step" ~depth:k step_solver [ step_act ] with
          | S.Unsat ->
              depth_closed ~series:false ~t0:t_depth k ~cex:false;
              Proved (k, stats k)
          | S.Sat ->
              retire step k step_act;
              depth_closed ~t0:t_depth k ~cex:false;
              go (k + 1))
    end
  in
  go 0
  in
  try run () with
  | S.Out_of_budget kind ->
      Unknown
        ( Budget_exhausted
            { ub_budget = kind; ub_depth = !cur_depth; ub_case = !cur_case },
          stats (!cur_depth - 1) )
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      Unknown (Faulted site, stats (!cur_depth - 1))

(* Scratch k-induction oracle: each round builds a fresh base and a
   fresh step solver with [Direct] unrollings of cycles 0..k, assertion
   facts below k, and — step side — the full loop-free condition (every
   pair of cycles i < j <= k distinct, since nothing persists from
   earlier rounds). The wall deadline is shared by every solver ever
   created; the conflict cap is cumulative across them (each new solver
   gets the cap minus what its predecessors spent). *)
let prove_scratch ~max_depth ~progress ?solver_config ~opt ~budget
    circuit property =
  check_property "Bmc.prove" property;
  let full = instrument circuit property in
  let solve_time = ref 0. in
  let cur_depth = ref 0 in
  let cur_case = ref Base in
  let opt_ref = ref None in
  let sbud = solver_budget budget in
  let acc_conflicts = ref 0 and acc_decisions = ref 0 in
  let acc_propagations = ref 0 and acc_restarts = ref 0 in
  let last_vars = ref 0 and last_clauses = ref 0 in
  let live = ref [] in
  let retire_solvers () =
    match !live with
    | [] -> ()
    | solvers ->
        flush_solver_metrics solvers;
        last_vars := 0;
        last_clauses := 0;
        List.iter
          (fun solver ->
            let st = S.stats solver in
            acc_conflicts := !acc_conflicts + st.S.s_conflicts;
            acc_decisions := !acc_decisions + st.S.s_decisions;
            acc_propagations := !acc_propagations + st.S.s_propagations;
            acc_restarts := !acc_restarts + st.S.s_restarts;
            last_vars := !last_vars + st.S.s_vars;
            last_clauses := !last_clauses + st.S.s_clauses)
          solvers;
        live := []
  in
  let stats depth =
    retire_solvers ();
    {
      depth_reached = depth;
      solve_time = !solve_time;
      vars = !last_vars;
      clauses = !last_clauses;
      conflicts = !acc_conflicts;
      decisions = !acc_decisions;
      propagations = !acc_propagations;
      restarts = !acc_restarts;
      opt = !opt_ref;
    }
  in
  let run () =
    let circuit, sprop, widen, opt_stats, _ =
      optimize_instrumented ~opt full property
    in
    opt_ref := opt_stats;
    let new_solver label =
      let solver = S.create ?config:solver_config ~stop:fault_stop () in
      S.set_budget solver
        {
          sbud with
          S.b_conflicts =
            Option.map (fun cap -> cap - !acc_conflicts) budget.bud_conflicts;
        };
      attach_sampling label solver;
      live := solver :: !live;
      solver
    in
    let timed ~case ~depth solver assumptions =
      cur_case := (match case with "base" -> Base | _ -> Step);
      Obs.span ("bmc." ^ case) ~attrs:[ ("depth", Obs.Json.Int depth) ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let r =
        Obs.span "sat.solve"
          ~attrs:[ ("case", Obs.Json.Str case); ("depth", Obs.Json.Int depth) ]
          (fun () -> S.solve ~assumptions solver)
      in
      solve_time := !solve_time +. (Unix.gettimeofday () -. t0);
      r
    in
    (* Unroll cycles 0..k into a fresh blaster: assumptions everywhere,
       assertion facts strictly below k, activation clause at k. *)
    let build blaster k =
      let solver = Cnf.Blast.solver blaster in
      for cycle = 0 to k do
        Cnf.Blast.unroll_cycle blaster;
        List.iter
          (fun a -> S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle a ])
          sprop.assumes;
        if cycle < k then
          List.iter
            (fun (_, a) ->
              S.add_clause solver [ Cnf.Blast.lit1 blaster ~cycle a ])
            sprop.asserts
      done;
      let act = Cnf.Blast.fresh_var blaster in
      S.add_clause solver
        (S.neg act
        :: List.map
             (fun (_, a) -> S.neg (Cnf.Blast.lit1 blaster ~cycle:k a))
             sprop.asserts);
      act
    in
    let rec go k =
      if k > max_depth then Unknown (Bound_exhausted, stats max_depth)
      else begin
        cur_depth := k;
        Fault.point "sat.stop";
        progress k;
        let t_depth = Unix.gettimeofday () in
        Fault.point "bmc.alloc";
        let base_solver = new_solver "base" in
        let base = Cnf.Blast.create base_solver circuit in
        let base_act = build base k in
        match timed ~case:"base" ~depth:k base_solver [ base_act ] with
        | S.Sat ->
            let inputs =
              Array.init (k + 1) (fun cycle ->
                  List.map
                    (fun p ->
                      ( p.Circuit.port_name,
                        Cnf.Blast.input_value base ~cycle p.Circuit.port_name ))
                    (Circuit.inputs circuit))
            in
            let inputs = widen inputs in
            let failed = validate full property inputs k in
            depth_closed ~series:false ~t0:t_depth k ~cex:true;
            Refuted
              ( {
                  cex_depth = k;
                  cex_inputs = inputs;
                  cex_failed = failed;
                  cex_circuit = full;
                },
                stats k )
        | S.Unsat ->
            (* Fold the base instance in before granting the step solver
               its share of the conflict cap. *)
            retire_solvers ();
            Fault.point "bmc.alloc";
            let step_solver = new_solver "step" in
            let step = Cnf.Blast.create ~free_init:true step_solver circuit in
            let step_act = build step k in
            for i = 0 to k - 1 do
              for j = i + 1 to k do
                S.add_clause step_solver [ Cnf.Blast.state_distinct step i j ]
              done
            done;
            (match timed ~case:"step" ~depth:k step_solver [ step_act ] with
            | S.Unsat ->
                depth_closed ~series:false ~t0:t_depth k ~cex:false;
                Proved (k, stats k)
            | S.Sat ->
                retire_solvers ();
                depth_closed ~t0:t_depth k ~cex:false;
                go (k + 1))
      end
    in
    go 0
  in
  try run () with
  | S.Out_of_budget kind ->
      Unknown
        ( Budget_exhausted
            { ub_budget = kind; ub_depth = !cur_depth; ub_case = !cur_case },
          stats (!cur_depth - 1) )
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      Unknown (Faulted site, stats (!cur_depth - 1))

let prove ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(opt = Opt.O0) ?(budget = no_budget) ?(incremental = true) ?(sym = [])
    ?cache circuit property =
  let engine () =
    if incremental then
      prove_incremental ~max_depth ~progress ?solver_config ~opt ~budget
        ~sym circuit property
    else
      prove_scratch ~max_depth ~progress ?solver_config ~opt ~budget
        circuit property
  in
  match cache with
  | None -> engine ()
  | Some c -> (
      check_property "Bmc.prove" property;
      let canon =
        Cache.canon ~assumes:property.assumes
          ~asserts:(List.map snd property.asserts)
      in
      let config =
        cache_config ~engine:"prove" ~max_depth ~opt ~incremental
          ~solver_config ~budget
      in
      let key = Cache.key canon ~config in
      let full = instrument circuit property in
      let miss () =
        let o = engine () in
        let prov = prov_now ~engine:"prove" ~config ~key in
        (match o with
        | Proved (k, _) -> Cache.add ~prov c key (Cache.Proved k)
        | Refuted (cex, _) ->
            Cache.add ~prov c key
              (Cache.Cex (cache_entry_of_cex canon property cex))
        | Unknown _ -> ());
        o
      in
      match Cache.find c key with
      | Some (Cache.Proved k) when k >= 0 && k <= max_depth ->
          Proved (k, hit_stats k)
      | Some (Cache.Cex cc) -> (
          match
            revalidate_cached_cex c key canon full property max_depth cc
          with
          | Some cex -> Refuted (cex, hit_stats cex.cex_depth)
          | None -> miss ())
      | Some (Cache.Proved _) | Some (Cache.Bounded _) ->
          Cache.remove c key;
          miss ()
      | None -> miss ())

let miter c1 c2 =
  let module T = Rtl.Transform in
  let port_names c =
    List.sort compare (List.map (fun p -> p.Circuit.port_name) (Circuit.inputs c)),
    List.sort compare (List.map (fun p -> p.Circuit.port_name) (Circuit.outputs c))
  in
  if port_names c1 <> port_names c2 then
    invalid_arg "Bmc.equiv: circuits have different interfaces";
  (* Clone both circuits into one graph, sharing the primary inputs. *)
  let shared = Hashtbl.create 16 in
  let map_input ~name ~width =
    match Hashtbl.find_opt shared name with
    | Some s ->
        if Signal.width s <> width then
          invalid_arg ("Bmc.equiv: width mismatch on input " ^ name);
        s
    | None ->
        let s = Signal.input name width in
        Hashtbl.replace shared name s;
        s
  in
  let outs1, _ = T.clone_outputs ~map_input ~map_reg_name:(fun n -> "a." ^ n) c1 in
  let outs2, _ = T.clone_outputs ~map_input ~map_reg_name:(fun n -> "b." ^ n) c2 in
  let asserts =
    List.map
      (fun (n, s1) ->
        let s2 = List.assoc n outs2 in
        ("eq_" ^ n, Signal.( ==: ) s1 s2))
      outs1
  in
  let miter =
    Circuit.create ~name:(Circuit.name c1 ^ "_miter")
      ~outputs:(List.map (fun (n, s) -> ("a_" ^ n, s)) outs1)
      ()
  in
  (miter, { assumes = []; asserts })

let equiv ?max_depth ?opt ?incremental c1 c2 =
  let m, p = miter c1 c2 in
  check ?max_depth ?opt ?incremental m p
