let diff_at ft cex =
  match Ft.spy_start_cycle ft cex with
  | None -> (None, [])
  | Some cycle -> (Some cycle, Ft.state_diff ft cex ~cycle)

let first_divergence ft cex =
  let module Signal = Rtl.Signal in
  let module Circuit = Rtl.Circuit in
  let pairs =
    List.map
      (fun r -> ((Signal.reg_of r).Signal.reg_name, ft.Ft.map_a r, ft.Ft.map_b r))
      (Circuit.regs ft.Ft.dut)
  in
  let watched = List.concat_map (fun (_, a, b) -> [ a; b ]) pairs in
  let values = Bmc.replay_values cex watched in
  let arr s = List.assq s values in
  List.filter_map
    (fun (name, a, b) ->
      let va = arr a and vb = arr b in
      let n = Array.length va in
      let rec find i =
        if i >= n then None
        else if not (Bitvec.equal va.(i) vb.(i)) then Some (name, i)
        else find (i + 1)
      in
      find 0)
    pairs
  |> List.stable_sort (fun (_, c1) (_, c2) -> compare c1 c2)

let pp_first_divergence fmt ft cex =
  match first_divergence ft cex with
  | [] -> Format.fprintf fmt "first divergence: none (no register differs)"
  | l ->
      Format.fprintf fmt "first divergence: %s"
        (String.concat ", "
           (List.map (fun (n, c) -> Printf.sprintf "%s@%d" n c) l))

let explain fmt ft cex =
  Format.fprintf fmt "=== AutoCC counterexample ===@.";
  Format.fprintf fmt "DUT: %s@." (Rtl.Circuit.name ft.Ft.dut);
  Format.fprintf fmt "Failing assertion(s): %s@."
    (String.concat ", " cex.Bmc.cex_failed);
  Format.fprintf fmt "Depth: %d cycles@." (cex.Bmc.cex_depth + 1);
  (match diff_at ft cex with
  | None, _ -> Format.fprintf fmt "Spy mode never set along the trace (unexpected).@."
  | Some cycle, diffs ->
      Format.fprintf fmt "Spy process begins at cycle %d.@." cycle;
      if diffs = [] then
        Format.fprintf fmt
          "No register differs at spy start: divergence is in-flight (pipeline contents).@."
      else begin
        Format.fprintf fmt
          "Microarchitectural state differing at spy start (alpha vs beta):@.";
        List.iter
          (fun (name, va, vb) ->
            Format.fprintf fmt "  %-32s %s vs %s@." name
              (Bitvec.to_hex_string va) (Bitvec.to_hex_string vb))
          diffs
      end);
  (match first_divergence ft cex with
  | [] -> ()
  | (root, cycle) :: _ as all ->
      Format.fprintf fmt "Earliest state divergence: %s at cycle %d%s@." root cycle
        (match all with
        | _ :: (next, c2) :: _ -> Printf.sprintf " (then %s at cycle %d)" next c2
        | _ -> ""));
  Format.fprintf fmt "Input trace:@.";
  Bmc.pp_cex fmt cex

let summary ft cex =
  let _, diffs = diff_at ft cex in
  let culprits =
    match diffs with
    | [] -> "in-flight state"
    | l -> String.concat "," (List.map (fun (n, _, _) -> n) l)
  in
  Printf.sprintf "%s @ depth %d via %s"
    (String.concat "," cex.Bmc.cex_failed)
    (cex.Bmc.cex_depth + 1) culprits

type merged_stats = {
  m_strategy : string;
  m_jobs : int;
  m_workers : int;
  m_cancelled : int;
  m_unknown : int;
  m_timeout : int;
  m_retries : int;
  m_solve_time : float;
  m_critical_path : float;
  m_wall : float;
  m_busy : float;
  m_cpu : float;
  m_vars : int;
  m_clauses : int;
  m_conflicts : int;
  m_decisions : int;
  m_propagations : int;
  m_restarts : int;
  m_opt : Opt.stats option;
}

let merge_stats (d : Parallel.detail) =
  List.fold_left
    (fun acc (r : Parallel.job_result) ->
      {
        acc with
        m_cancelled =
          (acc.m_cancelled
          + match r.Parallel.job_verdict with Parallel.Job_cancelled -> 1 | _ -> 0);
        m_unknown =
          (acc.m_unknown
          + match r.Parallel.job_verdict with Parallel.Job_unknown _ -> 1 | _ -> 0);
        m_timeout =
          (acc.m_timeout
          +
          match r.Parallel.job_verdict with
          | Parallel.Job_unknown
              (Bmc.Budget_exhausted { ub_budget = Sat.Solver.Wall_clock; _ }) ->
              1
          | _ -> 0);
        m_retries = acc.m_retries + r.Parallel.job_retries;
        m_solve_time = acc.m_solve_time +. r.Parallel.job_stats.Bmc.solve_time;
        m_critical_path = Float.max acc.m_critical_path r.Parallel.job_wall;
        m_busy = acc.m_busy +. r.Parallel.job_wall;
        m_cpu = acc.m_cpu +. r.Parallel.job_cpu;
        m_vars = acc.m_vars + r.Parallel.job_stats.Bmc.vars;
        m_clauses = acc.m_clauses + r.Parallel.job_stats.Bmc.clauses;
        m_conflicts = acc.m_conflicts + r.Parallel.job_stats.Bmc.conflicts;
        m_decisions = acc.m_decisions + r.Parallel.job_stats.Bmc.decisions;
        m_propagations =
          acc.m_propagations + r.Parallel.job_stats.Bmc.propagations;
        m_restarts = acc.m_restarts + r.Parallel.job_stats.Bmc.restarts;
        m_opt =
          (match (acc.m_opt, r.Parallel.job_stats.Bmc.opt) with
          | None, o | o, None -> o
          | Some x, Some y -> Some (Opt.add_stats x y));
      })
    {
      m_strategy = d.Parallel.par_strategy;
      m_jobs = List.length d.Parallel.par_results;
      m_workers = d.Parallel.par_workers;
      m_cancelled = 0;
      m_unknown = 0;
      m_timeout = 0;
      m_retries = 0;
      m_solve_time = 0.;
      m_critical_path = 0.;
      m_wall = d.Parallel.par_wall;
      m_busy = 0.;
      m_cpu = 0.;
      m_vars = 0;
      m_clauses = 0;
      m_conflicts = 0;
      m_decisions = 0;
      m_propagations = 0;
      m_restarts = 0;
      m_opt = None;
    }
    d.Parallel.par_results

let pp_merged fmt m =
  Format.fprintf fmt
    "%s: %d jobs on %d workers (%d cancelled%s), solver %.3fs total / %.3fs critical path, %d vars %d clauses %d conflicts"
    m.m_strategy m.m_jobs m.m_workers m.m_cancelled
    ((if m.m_unknown > 0 then Printf.sprintf ", %d unknown" m.m_unknown else "")
    ^
    if m.m_retries > 0 then Printf.sprintf ", %d retries" m.m_retries else "")
    m.m_solve_time m.m_critical_path m.m_vars m.m_clauses m.m_conflicts;
  Format.fprintf fmt
    "@.pool: %.3fs wall, %.3fs busy, %.3fs cpu (utilization %.0f%%)" m.m_wall
    m.m_busy m.m_cpu
    (if m.m_wall > 0. && m.m_workers > 0 then
       100. *. m.m_busy /. (float_of_int m.m_workers *. m.m_wall)
     else 0.);
  match m.m_opt with
  | None -> ()
  | Some o -> Format.fprintf fmt "@.opt: %a" Opt.pp_stats o

(* {1 JSON schema}

   The one place the shapes of machine-readable stats are defined; the
   [bench] executable and the CLI both emit through these, so
   [BENCH_*.json] and [--log-json] reports never drift apart. *)

module Json = Obs.Json

let json_of_opt_stats = function
  | None -> Json.Null
  | Some (o : Opt.stats) ->
      Json.Obj
        [
          ("nodes_before", Json.Int o.Opt.o_nodes_before);
          ("nodes_after", Json.Int o.Opt.o_nodes_after);
          ("coi_dropped", Json.Int o.Opt.o_coi_dropped);
          ("cse_merged", Json.Int o.Opt.o_cse_merged);
          ("rewrites", Json.Int o.Opt.o_rewrites);
          ("opt_time_s", Json.Float o.Opt.o_time);
        ]

let json_of_bmc_stats (st : Bmc.stats) =
  Json.Obj
    [
      ("depth_reached", Json.Int st.Bmc.depth_reached);
      ("solve_s", Json.Float st.Bmc.solve_time);
      ("vars", Json.Int st.Bmc.vars);
      ("clauses", Json.Int st.Bmc.clauses);
      ("conflicts", Json.Int st.Bmc.conflicts);
      ("decisions", Json.Int st.Bmc.decisions);
      ("propagations", Json.Int st.Bmc.propagations);
      ("restarts", Json.Int st.Bmc.restarts);
      ("opt", json_of_opt_stats st.Bmc.opt);
    ]

let json_of_merged m =
  Json.Obj
    [
      ("strategy", Json.Str m.m_strategy);
      ("jobs", Json.Int m.m_jobs);
      ("workers", Json.Int m.m_workers);
      ("cancelled", Json.Int m.m_cancelled);
      ("unknown", Json.Int m.m_unknown);
      ("timeout", Json.Int m.m_timeout);
      ("retries", Json.Int m.m_retries);
      ("solve_s", Json.Float m.m_solve_time);
      ("critical_path_s", Json.Float m.m_critical_path);
      ("wall_s", Json.Float m.m_wall);
      ("busy_s", Json.Float m.m_busy);
      ("cpu_s", Json.Float m.m_cpu);
      ("vars", Json.Int m.m_vars);
      ("clauses", Json.Int m.m_clauses);
      ("conflicts", Json.Int m.m_conflicts);
      ("decisions", Json.Int m.m_decisions);
      ("propagations", Json.Int m.m_propagations);
      ("restarts", Json.Int m.m_restarts);
      ("opt", json_of_opt_stats m.m_opt);
    ]

let dump_vcd ~path ft cex =
  let module Signal = Rtl.Signal in
  let module Circuit = Rtl.Circuit in
  let dut = ft.Ft.dut in
  let monitor =
    [
      ("spy_mode", ft.Ft.spy_mode);
      ("transfer_cond", ft.Ft.transfer_cond);
      ("eq_cnt", ft.Ft.eq_cnt);
      ("flush_done", ft.Ft.flush_done);
    ]
  in
  let per_universe prefix m =
    List.map
      (fun p -> (prefix ^ p.Circuit.port_name, m p.Circuit.signal))
      (Circuit.outputs dut)
    @ List.map
        (fun r -> (prefix ^ (Signal.reg_of r).Signal.reg_name, m r))
        (Circuit.regs dut)
  in
  let labelled =
    monitor @ per_universe "ua." ft.Ft.map_a @ per_universe "ub." ft.Ft.map_b
  in
  let values = Bmc.replay_values cex (List.map snd labelled) in
  let traces =
    List.map2 (fun (label, _) (_, vs) -> (label, vs)) labelled values
  in
  Rtl.Vcd.write ~path ~module_name:(Circuit.name dut ^ "_ft") traces
