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

type outcome =
  | Cex of cex * stats
  | Bounded_proof of stats
  | Unknown of unknown_reason * stats

exception Replay_mismatch of string

(* Relative budget -> absolute solver budget: the deadline is pinned to
   the wall clock when this is called, so retries get a fresh
   allowance. *)
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
   armed site raises from the solver's propagation loop (and from the
   between-depth polls), which the engine downgrades to
   [Unknown (Faulted _)]. Nothing else stops a search. *)
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

(* The optimized front end of an engine call. *)
type front = {
  f_circuit : Circuit.t;  (** what is blasted *)
  f_prop : property;  (** the property re-rooted into [f_circuit] *)
  f_widen : (string * Bitvec.t) list array -> (string * Bitvec.t) list array;
  f_stats : Opt.stats option;
  f_sym : (Signal.t * Signal.t) list;
}

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

let optimize_instrumented ~opt ~sym full property =
  match opt with
  | Opt.O0 ->
      { f_circuit = full; f_prop = property; f_widen = Fun.id; f_stats = None; f_sym = sym }
  | Opt.O2 ->
      let o =
        Opt.optimize ~level:opt ~keep_outputs:(prop_output_names property) full
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
      {
        f_circuit = o.Opt.opt_circuit;
        f_prop =
          {
            assumes = List.map o.Opt.opt_map property.assumes;
            asserts = List.map (fun (n, a) -> (n, o.Opt.opt_map a)) property.asserts;
          };
        f_widen = widen;
        f_stats = Some o.Opt.opt_stats;
        f_sym = map_sym o sym;
      }

(* Instrument + optimize once, outside any engine: callers that run the
   same circuit/property through several engines (benchmarks comparing
   them) can pay the optimizer once and hand each engine the slim
   circuit with [~opt:O0]. *)
let preoptimize ?(opt = Opt.O2) ?(sym = []) circuit property =
  check_property "Bmc.preoptimize" property;
  let f = optimize_instrumented ~opt ~sym (instrument circuit property) property in
  (f.f_circuit, f.f_prop, f.f_sym, f.f_stats)

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
   hook runs inside the solve. A stalled query with [p_rebudget] set
   trips the solver budget: the query aborts on its wall-clock budget
   and ends [Unknown (Budget_exhausted ...)], which the retry schedule
   already treats as transient — the "rebudget early" hint without
   [lib/sat] ever depending on [lib/obs]. Because rebudget can change
   the verdict, the hook is installed whenever it is set, not only when
   telemetry is on: turning telemetry on must not change a verdict. *)
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

(* Fold solver counters into the metric registry. *)
let flush_solver_metrics st =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add (Lazy.force m_sat_conflicts) st.S.s_conflicts;
    Obs.Metrics.add (Lazy.force m_sat_decisions) st.S.s_decisions;
    Obs.Metrics.add (Lazy.force m_sat_propagations) st.S.s_propagations;
    Obs.Metrics.add (Lazy.force m_sat_restarts) st.S.s_restarts;
    Obs.Metrics.add (Lazy.force m_sat_reduces) st.S.s_reduces;
    Obs.Metrics.add (Lazy.force m_sat_learned) st.S.s_learned_total
  end

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

(* {1 The session}

   Every engine asks its questions through one protocol. A session is
   one solver and one blaster over the optimized instrumented circuit;
   a query asks whether some assertion of a list fails, one depth at a
   time, in five steps:
   - frame: unroll to the depth, the assumptions holding on every new
     cycle;
   - guard: a fresh activation literal [act] and the one guarded clause
     [¬act ∨ ¬a_1 ∨ … ∨ ¬a_n] over the queried assertions at the depth;
   - solve: the one timed solver call, assuming [act] alone;
   - retire: the unit [¬act], and once the search moves past the
     depth, the queried assertions as unit facts there, for every later
     query (proved by the Unsat answer in a reset-rooted session, the
     induction hypothesis in [prove]'s step session);
   - cex: the model of a Sat answer, widened to the unoptimized circuit
     and replayed on the simulator.
   [check] asks one query over every assertion, [check_each] one query
   per assertion on a shared session, and [prove] asks at each depth on
   a reset-rooted base session and a [free_init] step session. Learnt
   clauses and variable activity survive across depths and queries. The
   scratch oracles open a fresh [Direct] session at every depth and
   unroll it from cycle 0, then guard, solve and read back through the
   same steps. *)

type session = {
  solver : S.t;
  blaster : Cnf.Blast.t;
  sprop : property;  (** the property re-rooted into the blasted circuit *)
  widen : (string * Bitvec.t) list array -> (string * Bitvec.t) list array;
}

(* One engine call: its configuration, its front end (optimized on
   first use), and what it is charged. [live] are the solvers still
   answering; [spent] the counters of the solvers retired so far, with
   the sizes of the last batch retired; [mark] the counters charged
   before the current query began. [depth] and [case] are where the
   call stands when a budget or a fault ends it. *)
type run = {
  solver_config : S.config option;
  full : Circuit.t;  (** the instrumented circuit CEXs replay on *)
  prop : property;
  level : Opt.level;
  sym : (Signal.t * Signal.t) list;
  mutable front : front option;
  mutable live : S.t list;
  mutable spent : S.stats;
  mutable mark : S.stats;
  mutable solve_time : float;
  mutable depth : int;
  mutable case : case;
}

let zero =
  {
    S.s_vars = 0;
    s_clauses = 0;
    s_learnts = 0;
    s_conflicts = 0;
    s_decisions = 0;
    s_propagations = 0;
    s_restarts = 0;
    s_reduces = 0;
    s_learned_total = 0;
    s_interrupt = None;
  }

let combine f a b =
  {
    S.s_vars = f a.S.s_vars b.S.s_vars;
    s_clauses = f a.S.s_clauses b.S.s_clauses;
    s_learnts = f a.S.s_learnts b.S.s_learnts;
    s_conflicts = f a.S.s_conflicts b.S.s_conflicts;
    s_decisions = f a.S.s_decisions b.S.s_decisions;
    s_propagations = f a.S.s_propagations b.S.s_propagations;
    s_restarts = f a.S.s_restarts b.S.s_restarts;
    s_reduces = f a.S.s_reduces b.S.s_reduces;
    s_learned_total = f a.S.s_learned_total b.S.s_learned_total;
    s_interrupt = None;
  }

let live_stats r =
  List.fold_left (fun acc s -> combine ( + ) acc (S.stats s)) zero r.live

(* Retire the live solvers: their counters join [spent] and the metric
   registry, and their sizes are the ones reported until another solver
   goes live. *)
let retire_live r =
  if r.live <> [] then begin
    let l = live_stats r in
    flush_solver_metrics l;
    r.spent <-
      { (combine ( + ) r.spent l) with S.s_vars = l.S.s_vars; s_clauses = l.S.s_clauses };
    r.live <- []
  end

(* The current query's statistics: sizes of the instance it runs on,
   counters charged since its [mark]. *)
let stats r depth =
  let l = live_stats r in
  let size = if r.live = [] then r.spent else l in
  let c = combine ( - ) (combine ( + ) r.spent l) r.mark in
  {
    depth_reached = depth;
    solve_time = r.solve_time;
    vars = size.S.s_vars;
    clauses = size.S.s_clauses;
    conflicts = c.S.s_conflicts;
    decisions = c.S.s_decisions;
    propagations = c.S.s_propagations;
    restarts = c.S.s_restarts;
    opt = Option.bind r.front (fun f -> f.f_stats);
  }

(* Run [f] as one engine call. The solvers it leaves live are retired
   on every exit, so each solver's counters reach the metric registry
   exactly once. *)
let with_run ?solver_config ~opt ~sym full prop f =
  let r =
    {
      solver_config;
      full;
      prop;
      level = opt;
      sym;
      front = None;
      live = [];
      spent = zero;
      mark = zero;
      solve_time = 0.;
      depth = 0;
      case = Base;
    }
  in
  Fun.protect ~finally:(fun () -> retire_live r) (fun () -> f r)

(* A fault inside the optimizer leaves nothing behind: the next use runs
   it again. *)
let front r =
  match r.front with
  | Some f -> f
  | None ->
      let f = optimize_instrumented ~opt:r.level ~sym:r.sym r.full r.prop in
      r.front <- Some f;
      f

(* A session on a fresh solver. The solver is charged to [r] before the
   front end is optimized, so that a fault in the optimizer still
   reports it. The caller installs the budget. *)
let open_session r ?(mode = Cnf.Blast.Template) ?free_init label =
  let solver = S.create ?config:r.solver_config ~stop:fault_stop () in
  attach_sampling label solver;
  r.live <- solver :: r.live;
  let f = front r in
  {
    solver;
    blaster = Cnf.Blast.create ?free_init ~mode ~sym:f.f_sym solver f.f_circuit;
    sprop = f.f_prop;
    widen = f.f_widen;
  }

let hold s cycle signals =
  List.iter
    (fun a -> S.add_clause s.solver [ Cnf.Blast.lit1 s.blaster ~cycle a ])
    signals

let unroll s =
  let cycle = Cnf.Blast.cycles s.blaster in
  Cnf.Blast.unroll_cycle s.blaster;
  hold s cycle s.sprop.assumes

(* Frame: cycles an earlier query unrolled are reused as they are. *)
let frame s depth =
  while Cnf.Blast.cycles s.blaster <= depth do
    Fault.point "bmc.alloc";
    unroll s
  done

(* Guard: assumed, [act] asks for some queried assertion to fail at
   [depth]. *)
let guard s depth query =
  let act = S.new_act s.solver in
  S.add_clause_act s.solver ~act
    (List.map (fun (_, a) -> S.neg (Cnf.Blast.lit1 s.blaster ~cycle:depth a)) query);
  act

(* Solve: under [prove] the call runs inside its case's span, and the
   case is what a budget abort reports. *)
let solve r s ?case depth act =
  let d = ("depth", Obs.Json.Int depth) in
  let call attrs () =
    Obs.span "sat.solve" ~attrs @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let res = S.solve ~assumptions:[ act ] s.solver in
    r.solve_time <- r.solve_time +. (Unix.gettimeofday () -. t0);
    res
  in
  match case with
  | None -> call [ d ] ()
  | Some c ->
      r.case <- c;
      let name = case_to_string c in
      Obs.span ("bmc." ^ name) ~attrs:[ d ] (call [ ("case", Obs.Json.Str name); d ])

(* Retire: [facts] are the queried assertions that hold at [depth] for
   every later query. *)
let retire s depth act facts =
  S.retire s.solver act;
  hold s depth (List.map snd facts)

(* Cex: replayed against [prop], the queried assertions as the caller
   wrote them. *)
let cex r s depth prop =
  let inputs =
    s.widen
      (Array.init (depth + 1) (fun cycle ->
           List.map
             (fun p ->
               let n = p.Circuit.port_name in
               (n, Cnf.Blast.input_value s.blaster ~cycle n))
             (Circuit.inputs (Cnf.Blast.circuit s.blaster))))
  in
  {
    cex_depth = depth;
    cex_inputs = inputs;
    cex_failed = validate r.full prop inputs depth;
    cex_circuit = r.full;
  }

(* The one downgrade: a budget abort or an injected fault ends [f] as
   [unknown reason stats], clean up to the depth before the one being
   explored. The live solvers are retired first: an abort leaves their
   search state undefined. *)
let governed r ~unknown f =
  let abort reason =
    retire_live r;
    unknown reason (stats r (r.depth - 1))
  in
  try f () with
  | S.Out_of_budget kind ->
      abort (Budget_exhausted { ub_budget = kind; ub_depth = r.depth; ub_case = r.case })
  | Fault.Injected site ->
      Obs.Bus.publish (Obs.Bus.Fault_injected { site });
      abort (Faulted site)

(* The scratch oracles' frame: retire the last depth's solver, open a
   fresh [Direct] session and unroll cycles [0..depth] into it, the
   assumptions on every cycle and the assertions as facts below [depth].
   The deadline is the call's; the conflict cap is what the retired
   solvers left of it. *)
let scratch r ~free_init ~label ~budget ~sbud depth =
  retire_live r;
  Fault.point "bmc.alloc";
  let s = open_session r ~mode:Cnf.Blast.Direct ~free_init label in
  S.set_budget s.solver
    {
      sbud with
      S.b_conflicts =
        Option.map (fun cap -> cap - r.spent.S.s_conflicts) budget.bud_conflicts;
    };
  for cycle = 0 to depth do
    unroll s;
    if cycle < depth then hold s cycle (List.map snd s.sprop.asserts)
  done;
  s

(* The BMC depth loop: ask [query] at depths 0, 1, ... on the session
   [prepare] frames for each depth, until a queried assertion fails
   ([Cex], replayed against [prop]) or [max_depth] is done. *)
let deepen r ~max_depth ~progress ~prepare prop query =
  let rec go depth =
    if depth > max_depth then Bounded_proof (stats r max_depth)
    else begin
      r.depth <- depth;
      Fault.point "sat.stop";
      progress depth;
      let t_depth = Unix.gettimeofday () in
      let found =
        Obs.span "bmc.depth" ~attrs:[ ("depth", Obs.Json.Int depth) ]
        @@ fun () ->
        let s = prepare depth in
        let act = guard s depth query in
        match solve r s depth act with
        | S.Sat ->
            retire s depth act [];
            Some (Cex (cex r s depth prop, stats r depth))
        | S.Unsat ->
            retire s depth act query;
            None
      in
      depth_closed ~t0:t_depth depth ~cex:(Option.is_some found);
      match found with Some outcome -> outcome | None -> go (depth + 1)
    end
  in
  go 0

(* One incremental query: [prop]'s assertions, the ones [pick] selects
   by position, asked on the session in [session] — opened on first use
   and dropped after an abort. The budget is granted afresh on the
   shared instance: [sbud]'s deadline (pinned now when not given), and
   conflict and learnt caps counted from what the session has spent. *)
let ask r ~max_depth ~progress ~budget ?sbud ~label ~session prop pick =
  r.solve_time <- 0.;
  r.depth <- 0;
  r.mark <- combine ( + ) r.spent (live_stats r);
  governed r ~unknown:(fun reason st ->
      session := None;
      Unknown (reason, st))
  @@ fun () ->
  let s =
    match !session with
    | Some s -> s
    | None ->
        let s = open_session r label in
        session := Some s;
        s
  in
  let sbud = match sbud with Some b -> b | None -> solver_budget budget in
  let st0 = S.stats s.solver in
  S.set_budget s.solver
    {
      sbud with
      S.b_conflicts = Option.map (( + ) st0.S.s_conflicts) budget.bud_conflicts;
      b_learnts = Option.map (( + ) st0.S.s_learnts) budget.bud_learnts;
    };
  deepen r ~max_depth ~progress
    ~prepare:(fun depth ->
      (* Fires between depth [k-1]'s clean verdict and depth [k]'s clause
         addition: the solver-reuse window. *)
      if depth > 0 then Fault.point "bmc.incr";
      frame s depth;
      s)
    prop
    (List.filteri (fun j _ -> pick j) s.sprop.asserts)

let check_engine ~max_depth ~progress ?solver_config ~opt ~budget
    ~incremental ~sym circuit property =
  check_property "Bmc.check" property;
  let full = instrument circuit property in
  (* One deadline for the whole call, pinned before the optimizer runs. *)
  let sbud = solver_budget budget in
  with_run ?solver_config ~opt ~sym full property @@ fun r ->
  if incremental then
    ask r ~max_depth ~progress ~budget ~sbud ~label:"check" ~session:(ref None)
      property (fun _ -> true)
  else
    governed r ~unknown:(fun reason st -> Unknown (reason, st)) @@ fun () ->
    let query = (front r).f_prop.asserts in
    deepen r ~max_depth ~progress
      ~prepare:(scratch r ~free_init:false ~label:"check" ~budget ~sbud)
      property query

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

(* Where [property]'s verdict lives in the cache: its canonical form,
   the configuration fingerprint and the key they make. *)
let cache_address ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
    property =
  let canon =
    Cache.canon ~assumes:property.assumes
      ~asserts:(List.map snd property.asserts)
  in
  let config =
    cache_config ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
  in
  (canon, config, Cache.key canon ~config)

(* The exact (structural digest, cache key, config fingerprint) triple
   {!check}/{!prove} would use for [property] — what `autocc why`
   recomputes to address the store, and what the run ledger records. *)
let cache_fingerprint ~engine ?(max_depth = 30) ?(opt = Opt.O0)
    ?(incremental = true) ?solver_config ?(budget = no_budget) property =
  let canon, config, key =
    cache_address ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
      property
  in
  (canon.Cache.c_digest, key, config)

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

(* The cache front of both engines. [hit] answers from a stored
   verdict, or [None] for an entry malformed under this key (the depth
   bound and the engine are part of it), which is evicted; a stored
   counterexample answers through [refuted] once it replays on [full].
   On a miss [run] computes the verdict, and [entry] says what to store
   for it: nothing for an [Unknown]. *)
let cached c ~engine ~max_depth ~opt ~incremental ~solver_config ~budget full
    property ~hit ~refuted ~entry run =
  let canon, config, key =
    cache_address ~engine ~max_depth ~opt ~incremental ~solver_config ~budget
      property
  in
  let miss () =
    let o = run () in
    Option.iter
      (fun v -> Cache.add c key v ~prov:(prov_now ~engine ~config ~key))
      (entry (fun cex -> Cache.Cex (cache_entry_of_cex canon property cex)) o);
    o
  in
  match Cache.find c key with
  | None -> miss ()
  | Some (Cache.Cex cc) -> (
      match revalidate_cached_cex c key canon full property max_depth cc with
      | Some cex -> refuted cex
      | None -> miss ())
  | Some v -> (
      match hit v with
      | Some o -> o
      | None ->
          Cache.remove c key;
          miss ())

let check_cached c ~max_depth ~opt ~incremental ~solver_config ~budget full
    property run =
  cached c ~engine:"check" ~max_depth ~opt ~incremental ~solver_config ~budget
    full property run
    ~hit:(function
      | Cache.Bounded d when d = max_depth -> Some (Bounded_proof (hit_stats d))
      | _ -> None)
    ~refuted:(fun cex -> Cex (cex, hit_stats cex.cex_depth))
    ~entry:(fun of_cex -> function
      | Bounded_proof st -> Some (Cache.Bounded st.depth_reached)
      | Cex (cex, _) -> Some (of_cex cex)
      | Unknown _ -> None)

let check ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(opt = Opt.O0) ?(budget = no_budget) ?(incremental = true) ?(sym = [])
    ?cache circuit property =
  let engine () =
    check_engine ~max_depth ~progress ?solver_config ~opt ~budget ~incremental
      ~sym circuit property
  in
  match cache with
  | None -> engine ()
  | Some c ->
      check_property "Bmc.check" property;
      check_cached c ~max_depth ~opt ~incremental ~solver_config ~budget
        (instrument circuit property) property engine

(* One bounded check per assertion, every assumption kept. Where [check]
   stops at the first (shallowest) failure of {e any} assertion, this
   sweep reports a witness per failing output — the raw CEX pool a
   campaign dedups into distinct channels.

   Incremental mode asks one query per assertion on ONE session: the
   circuit is optimized once over the union of the assertion cones (a
   trade-off against the per-assertion cone restriction of the scratch
   path: one bigger instance, paid for once), the unrolling is shared,
   and each per-assertion Unsat verdict is recorded as a unit fact —
   sound to share because "assertion A holds at cycle c" is an
   unconditional theorem under the assumptions, independent of which
   assertion's search proved it. The [budget] is granted afresh per
   assertion, so one diverging assertion degrades to Unknown without
   starving the rest; the session an abort poisons is dropped and the
   next assertion rebuilds it.

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
    with_run ?solver_config ~opt ~sym full property @@ fun r ->
    let session = ref None in
    List.mapi
      (fun i (name, a) ->
        let sub = { assumes = property.assumes; asserts = [ (name, a) ] } in
        let run () =
          Obs.span "bmc.check_each" ~attrs:[ ("assert", Obs.Json.Str name) ]
          @@ fun () ->
          ask r ~max_depth ~progress ~budget ~label:"check_each" ~session sub
            (( = ) i)
        in
        (* Per-assertion bus scope: events from this query (depths, CEX,
           solver progress) carry "parent/assertion" so the cockpit shows
           one row per assertion of a multi-assert sweep. Cache entries
           use the same key shape as a single-assertion [check] at the
           same configuration; a hit skips the session for this
           assertion. *)
        ( name,
          Obs.Bus.with_label (Obs.Bus.sub_label name) @@ fun () ->
          let t_job = Unix.gettimeofday () in
          Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = max_depth });
          let o =
            match cache with
            | None -> run ()
            | Some c ->
                check_cached c ~max_depth ~opt ~incremental:true
                  ~solver_config ~budget full sub run
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
          o ))
      property.asserts
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

(* k-induction on two sessions. Incrementally, the base and step
   sessions each live across every round: round k adds one [Template]
   frame and a guard to each, and the step session the uniqueness
   constraints pairing cycle k with earlier cycles; the pairs of earlier
   rounds persist, so after round k the step instance carries the full
   loop-free condition over cycles 0..k. The scratch oracle opens fresh
   [Direct] sessions each round, with every pair i < j <= k distinct. *)
let prove_engine ~max_depth ~progress ?solver_config ~opt ~budget
    ~incremental ~sym circuit property =
  check_property "Bmc.prove" property;
  let full = instrument circuit property in
  (* One deadline, shared by every solver of the call. *)
  let sbud = solver_budget budget in
  with_run ?solver_config ~opt ~sym full property @@ fun r ->
  governed r ~unknown:(fun reason st -> Unknown (reason, st)) @@ fun () ->
  let distinct s i j =
    S.add_clause s.solver [ Cnf.Blast.state_distinct s.blaster i j ]
  in
  let base, step, loop_free =
    if incremental then begin
      let session ?free_init label =
        let s = open_session r ?free_init label in
        S.set_budget s.solver sbud;
        s
      in
      let b = session "base" in
      let s = session ~free_init:true "step" in
      ( (fun k ->
          if k > 0 then Fault.point "bmc.incr";
          frame b k;
          b),
        (fun k ->
          frame s k;
          s),
        fun s k ->
          for i = 0 to k - 1 do
            distinct s i k
          done )
    end
    else
      ( scratch r ~free_init:false ~label:"base" ~budget ~sbud,
        scratch r ~free_init:true ~label:"step" ~budget ~sbud,
        fun s k ->
          for i = 0 to k - 1 do
            for j = i + 1 to k do
              distinct s i j
            done
          done )
  in
  (* The scratch oracle optimizes here, before its first solver. *)
  let query = (front r).f_prop.asserts in
  let rec go k =
    if k > max_depth then Unknown (Bound_exhausted, stats r max_depth)
    else begin
      r.depth <- k;
      Fault.point "sat.stop";
      progress k;
      let t_depth = Unix.gettimeofday () in
      (* Base case: bad at cycle k, from reset. *)
      let b = base k in
      let act = guard b k query in
      match solve r b ~case:Base k act with
      | S.Sat ->
          let c = cex r b k property in
          depth_closed ~series:false ~t0:t_depth k ~cex:true;
          Refuted (c, stats r k)
      | S.Unsat -> (
          retire b k act query;
          (* Inductive step: a loop-free path of k good states reaching a
             bad one at cycle k, from an arbitrary start. *)
          let s = step k in
          let act = guard s k query in
          loop_free s k;
          match solve r s ~case:Step k act with
          | S.Unsat ->
              depth_closed ~series:false ~t0:t_depth k ~cex:false;
              Proved (k, stats r k)
          | S.Sat ->
              retire s k act query;
              depth_closed ~t0:t_depth k ~cex:false;
              go (k + 1))
    end
  in
  go 0

let prove ?(max_depth = 30) ?(progress = fun _ -> ()) ?solver_config
    ?(opt = Opt.O0) ?(budget = no_budget) ?(incremental = true) ?(sym = [])
    ?cache circuit property =
  let engine () =
    prove_engine ~max_depth ~progress ?solver_config ~opt ~budget
      ~incremental ~sym circuit property
  in
  match cache with
  | None -> engine ()
  | Some c ->
      check_property "Bmc.prove" property;
      cached c ~engine:"prove" ~max_depth ~opt ~incremental ~solver_config
        ~budget (instrument circuit property) property engine
        ~hit:(function
          | Cache.Proved k when k >= 0 && k <= max_depth ->
              Some (Proved (k, hit_stats k))
          | _ -> None)
        ~refuted:(fun cex -> Refuted (cex, hit_stats cex.cex_depth))
        ~entry:(fun of_cex -> function
          | Proved (k, _) -> Some (Cache.Proved k)
          | Refuted (cex, _) -> Some (of_cex cex)
          | Unknown _ -> None)

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
