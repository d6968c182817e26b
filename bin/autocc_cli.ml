(* Command-line front-end mirroring the paper's artifact flow (Appendix
   A.5): pick a DUT, generate the FPV testbench, run the exhaustive
   search, and inspect counterexamples — plus the system-level exploit and
   the flush-synthesis algorithms.

     autocc analyze --dut vscale --stage 2
     autocc analyze --dut maple --fix-m2 --trace maple.json
     autocc prove --dut aes
     autocc exploit --secret 0xdeadbeef
     autocc synthesize --algorithm incremental
     autocc stats *)

open Cmdliner

(* {1 Telemetry}

   Every verification subcommand accepts --trace/--log-json/--log-level;
   any of the outputs being requested also turns the metric registry on,
   so the run's counters land in the [stats]-style summary and the
   structured logs. *)

let setup_telemetry ?metrics_file trace log_json log_level =
  (match Obs.level_of_string log_level with
  | Ok l -> Obs.set_level l
  | Error msg -> failwith msg);
  Option.iter Obs.trace_to_file trace;
  Option.iter Obs.log_to_file log_json;
  if trace <> None || log_json <> None || metrics_file <> None then
    Obs.Metrics.enable ();
  (* --metrics-file: a Prometheus text snapshot of the whole registry,
     atomically rewritten on a ticker for the lifetime of the command
     (and once more at shutdown). *)
  Option.iter (fun p -> Obs.Exposition.start p) metrics_file

(* {2 Run ledger}

   Verifying subcommands deposit a run record here (sans timings); the
   telemetry wrapper patches in the whole-command wall/CPU and appends
   it to <dir>/runs.jsonl on the way out, so the row covers everything
   from argument parsing to the last artifact write.  The ledger
   directory defaults to the verdict-cache directory: the cache's
   provenance records cite run ids, so the two stores belong together. *)

let pending_run : Obs.Ledger.run option ref = ref None

let cache_counts cache =
  match cache with
  | None -> (0, 0, 0)
  | Some c ->
      let st = Cache.stats c in
      (st.Cache.hits, st.Cache.misses, st.Cache.stores)

let record_run ?(asserts = []) ?(artifacts = []) ?(config = "")
    ?(dut_hash = "") ~tool ~subject cache =
  let hits, misses, stores = cache_counts cache in
  pending_run :=
    Some
      {
        Obs.Ledger.r_id = Obs.Ledger.run_id ();
        r_tool = tool;
        r_subject = subject;
        r_config = config;
        r_dut_hash = dut_hash;
        r_ts = Unix.gettimeofday ();
        (* patched by [with_telemetry] at append time *)
        r_wall_s = 0.;
        r_cpu_s = 0.;
        r_cache_hits = hits;
        r_cache_misses = misses;
        r_cache_stores = stores;
        r_asserts = asserts;
        r_artifacts = List.filter Sys.file_exists artifacts;
      }

let with_telemetry ?metrics_file ?ledger_dir ~cmd trace log_json log_level f =
  setup_telemetry ?metrics_file trace log_json log_level;
  pending_run := None;
  let t0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let r =
    Fun.protect ~finally:Obs.shutdown @@ fun () ->
    (* The root span covers the whole command, so [autocc profile]'s
       attributed total matches the ledger row's wall to within the
       setup/teardown epsilon. *)
    let r = Obs.span ("cli." ^ cmd) f in
    (match !pending_run with
    | None -> ()
    | Some run -> (
        match Obs.Ledger.resolve_dir ?explicit:ledger_dir () with
        | None -> ()
        | Some dir -> (
            let run =
              {
                run with
                Obs.Ledger.r_wall_s = Unix.gettimeofday () -. t0;
                r_cpu_s = Sys.time () -. cpu0;
              }
            in
            try
              Obs.Ledger.append ~dir run;
              Format.printf "Run %s recorded in %s@." run.Obs.Ledger.r_id
                (Obs.Ledger.path dir)
            with Sys_error msg ->
              (* Best-effort, like the verdict cache's disk half: an
                 unwritable ledger never fails the verification run. *)
              Format.eprintf "autocc: run ledger skipped: %s@." msg)));
    r
  in
  Option.iter (fun p -> Format.printf "Trace written to %s (load at ui.perfetto.dev)@." p) trace;
  Option.iter (fun p -> Format.printf "Structured log written to %s@." p) log_json;
  Option.iter (fun p -> Format.printf "Metrics snapshot written to %s@." p) metrics_file;
  r

let print_metrics_summary () =
  let render = function
    | Obs.Metrics.Counter n -> string_of_int n
    | Obs.Metrics.Gauge g -> Printf.sprintf "%.6g" g
    | Obs.Metrics.Histogram h ->
        Printf.sprintf "count=%d sum=%.4fs%s" h.count h.sum
          (if h.count = 0 then ""
           else Printf.sprintf " mean=%.4fs" (h.sum /. float_of_int h.count))
    | Obs.Metrics.Series a ->
        String.concat " "
          (Array.to_list
             (Array.mapi (fun i x -> Printf.sprintf "[%d]=%.3fs" i x) a))
  in
  Format.printf "@.%-26s value@." "metric";
  Format.printf "%s@." (String.make 60 '-');
  List.iter
    (fun (name, v) -> Format.printf "%-26s %s@." name (render v))
    (Obs.Metrics.snapshot ())

(* DUT-name -> circuit/property construction lives in [Duts.Bundled] so
   the service worker processes build exactly what the CLI builds; these
   wrappers only adapt the CLI's flat flag spelling. *)
let known_duts = Duts.Bundled.known

let build_dut name ~stage ~fix_m2 ~fix_m3 ~fix_c1 ~fix_c2 ~fix_c3 ~full_flush =
  ignore stage;
  Duts.Bundled.build
    ~fixes:{ Duts.Bundled.fix_m2; fix_m3; fix_c1; fix_c2; fix_c3; full_flush }
    name

let ft_for name dut ~stage ~threshold = Duts.Bundled.ft_for ~stage ~threshold name dut

(* {1 analyze} *)

(* [--timeout]/[--conflict-budget] become a per-solver-run [Bmc.budget];
   [--retries n] becomes a [Retry] policy with n retries over escalated
   budgets and the portfolio's alternate configurations. *)
let budget_of timeout conflicts =
  match (timeout, conflicts) with
  | None, None -> Bmc.no_budget
  | _ -> Bmc.budget ?wall_s:timeout ?conflicts ()

let retry_of retries =
  if retries = 0 then None else Some (Retry.policy ~max_attempts:(retries + 1) ())

(* The verdict cache is on only when a directory is given (--cache-dir
   or AUTOCC_CACHE_DIR): a single CLI invocation has nothing to gain
   from a purely in-memory cache, the payoff is cross-run. *)
let cache_of cache_dir no_cache =
  if no_cache then None
  else Option.map (fun d -> Cache.create ~dir:d ()) cache_dir

let print_cache_summary cache =
  match cache with
  | None -> ()
  | Some c ->
      let st = Cache.stats c in
      Format.printf
        "Cache: %d hits, %d misses, %d stores, %d rejects, %d evictions, %d \
         live entries (%s)@."
        st.Cache.hits st.Cache.misses st.Cache.stores st.Cache.rejects
        st.Cache.evictions st.Cache.size
        (match Cache.dir c with Some d -> d | None -> "memory")

let analyze dut_name verilog top blackbox stage threshold max_depth jobs portfolio
    timeout conflict_budget retries
    opt_level no_incremental no_symmetric cache_dir no_cache
    fix_m2 fix_m3 fix_c1 fix_c2 fix_c3 full_flush
    verbose vcd trace log_json log_level metrics_file =
  let incremental = not no_incremental in
  let symmetric = not no_symmetric in
  let cache = cache_of cache_dir no_cache in
  with_telemetry ?metrics_file ?ledger_dir:cache_dir ~cmd:"analyze" trace
    log_json log_level
  @@ fun () ->
  let dut =
    match verilog with
    | Some path ->
        (* The paper's primary flow: the path to an RTL module is all the
           tool needs. *)
        Frontend.Elaborate.circuit_of_file ?top path
    | None -> (
        match dut_name with
        | Some name ->
            build_dut name ~stage ~fix_m2 ~fix_m3 ~fix_c1 ~fix_c2 ~fix_c3 ~full_flush
        | None -> failwith "provide --dut or --verilog")
  in
  Format.printf "DUT: %a@." Rtl.Circuit.pp_stats dut;
  let blackbox =
    if blackbox = "" then [] else String.split_on_char ',' blackbox
  in
  let ft =
    match (verilog, dut_name) with
    | None, Some name when blackbox = [] -> ft_for name dut ~stage ~threshold
    | _ -> Autocc.Ft.generate ~threshold ~blackbox dut
  in
  Format.printf "FT : %a@." Rtl.Circuit.pp_stats ft.Autocc.Ft.wrapper;
  let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
  let opt = Opt.level_of_int opt_level in
  let progress d = if verbose then Format.printf "  depth %d@." d in
  Format.printf "Running BMC to depth %d at -O%d%s...@." max_depth
    (Opt.level_to_int opt)
    (if portfolio > 1 then Printf.sprintf " (portfolio of %d on %d domains)" portfolio jobs
     else if jobs > 1 then Printf.sprintf " (%d worker domains)" jobs
     else "");
  let t0 = Unix.gettimeofday () in
  let budget = budget_of timeout conflict_budget in
  let retry = retry_of retries in
  let outcome =
    if jobs > 1 || portfolio > 1 then begin
      let portfolio = if portfolio > 1 then Some portfolio else None in
      let outcome, detail =
        Autocc.Ft.check_detailed ~max_depth ~progress ~jobs ?portfolio ~budget
          ?retry ~opt ~incremental ~symmetric ?cache ft
      in
      Format.printf "Parallel run: %a@." Autocc.Report.pp_merged
        (Autocc.Report.merge_stats detail);
      outcome
    end
    else
      Autocc.Ft.check ~max_depth ~progress ~budget ?retry ~opt ~incremental
        ~symmetric ?cache ft
  in
  let report_opt (stats : Bmc.stats) =
    match stats.Bmc.opt with
    | Some o when jobs <= 1 && portfolio <= 1 ->
        Format.printf "Optimizer: %a@." Opt.pp_stats o
    | _ -> ()
  in
  (match outcome with
  | Bmc.Cex (cex, stats) ->
      report_opt stats;
      Format.printf "@.Counterexample found (%.2fs in the solver, %d conflicts):@.@."
        stats.Bmc.solve_time stats.Bmc.conflicts;
      Autocc.Report.explain Format.std_formatter ft cex;
      Autocc.Report.pp_first_divergence Format.std_formatter ft cex;
      Format.printf "@.@.Provenance:@.";
      Explain.pp_slice Format.std_formatter (Explain.slice ft cex);
      (match vcd with
      | Some path ->
          Autocc.Report.dump_vcd ~path ft cex;
          Format.printf "@.Waveform written to %s@." path
      | None -> ())
  | Bmc.Bounded_proof stats ->
      report_opt stats;
      Format.printf "@.Bounded proof: no CEX up to depth %d (%.2fs in the solver).@."
        stats.Bmc.depth_reached stats.Bmc.solve_time
  | Bmc.Unknown (reason, stats) ->
      report_opt stats;
      Format.printf
        "@.Unknown (%s): %s, inconclusive beyond (%.2fs in the solver). Raise \
         --timeout/--conflict-budget or --retries to go further.@."
        (Bmc.unknown_reason_to_string reason)
        (if stats.Bmc.depth_reached < 0 then "no depth completed"
         else Printf.sprintf "clean up to depth %d" stats.Bmc.depth_reached)
        stats.Bmc.solve_time);
  print_cache_summary cache;
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "@.Total wall-clock: %.2fs@." wall;
  (let subject =
     match (dut_name, verilog) with
     | Some n, _ -> n
     | None, Some p -> Filename.basename p
     | None, None -> "?"
   in
   let dut_hash, _key, config =
     Bmc.cache_fingerprint ~engine:"check" ~max_depth ~opt ~incremental ~budget
       ft.Autocc.Ft.property
   in
   let a_verdict, a_depth =
     match outcome with
     | Bmc.Cex (cex, _) -> ("cex", cex.Bmc.cex_depth)
     | Bmc.Bounded_proof st -> ("proof", st.Bmc.depth_reached)
     | Bmc.Unknown (reason, st) ->
         ("unknown:" ^ Bmc.unknown_reason_to_string reason, st.Bmc.depth_reached)
   in
   let hits, _, _ = cache_counts cache in
   record_run ~tool:"analyze" ~subject ~config ~dut_hash cache
     ~asserts:
       [
         {
           Obs.Ledger.a_name = "property";
           a_verdict;
           a_depth;
           a_wall_s = wall;
           a_cached = hits > 0;
         };
       ]
     ~artifacts:(List.filter_map Fun.id [ vcd; trace; log_json; metrics_file ]));
  if Obs.Metrics.enabled () then print_metrics_summary ();
  0

(* {1 prove} *)

let prove dut_name verilog top stage threshold max_depth jobs timeout
    conflict_budget retries opt_level no_incremental no_symmetric cache_dir
    no_cache verbose vcd trace log_json log_level metrics_file =
  let incremental = not no_incremental in
  let symmetric = not no_symmetric in
  let cache = cache_of cache_dir no_cache in
  with_telemetry ?metrics_file ?ledger_dir:cache_dir ~cmd:"prove" trace
    log_json log_level
  @@ fun () ->
  let dut =
    match verilog with
    | Some path -> Frontend.Elaborate.circuit_of_file ?top path
    | None -> (
        match dut_name with
        | Some name ->
            build_dut name ~stage ~fix_m2:false ~fix_m3:false ~fix_c1:false
              ~fix_c2:false ~fix_c3:false ~full_flush:false
        | None -> failwith "provide --dut or --verilog")
  in
  Format.printf "DUT: %a@." Rtl.Circuit.pp_stats dut;
  let ft =
    match (verilog, dut_name) with
    | None, Some name -> ft_for name dut ~stage ~threshold
    | _ -> Autocc.Ft.generate ~threshold dut
  in
  Format.printf "FT : %a@." Rtl.Circuit.pp_stats ft.Autocc.Ft.wrapper;
  let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
  let opt = Opt.level_of_int opt_level in
  let progress k = if verbose then Format.printf "  k=%d@." k in
  Format.printf "Running k-induction to depth %d at -O%d%s...@." max_depth
    (Opt.level_to_int opt)
    (if jobs > 1 then Printf.sprintf " (%d worker domains)" jobs else "");
  let t0 = Unix.gettimeofday () in
  let budget = budget_of timeout conflict_budget in
  let outcome =
    Autocc.Ft.prove ~max_depth ~progress ~jobs ~budget
      ?retry:(retry_of retries) ~opt ~incremental ~symmetric ?cache ft
  in
  (match outcome with
  | Bmc.Proved (k, stats) ->
      Format.printf
        "@.Proved by %d-induction (%.2fs in the solver, %d conflicts, %d propagations).@."
        k stats.Bmc.solve_time stats.Bmc.conflicts stats.Bmc.propagations
  | Bmc.Refuted (cex, stats) ->
      Format.printf
        "@.Counterexample found (%.2fs in the solver, %d conflicts):@.@."
        stats.Bmc.solve_time stats.Bmc.conflicts;
      Autocc.Report.explain Format.std_formatter ft cex;
      Autocc.Report.pp_first_divergence Format.std_formatter ft cex;
      Format.printf "@.@.Provenance:@.";
      Explain.pp_slice Format.std_formatter (Explain.slice ft cex);
      (match vcd with
      | Some path ->
          Autocc.Report.dump_vcd ~path ft cex;
          Format.printf "@.Waveform written to %s@." path
      | None -> ())
  | Bmc.Unknown (reason, stats) ->
      Format.printf
        "@.Unknown (%s): neither proved nor refuted within depth %d (%.2fs in \
         the solver).@."
        (Bmc.unknown_reason_to_string reason)
        stats.Bmc.depth_reached stats.Bmc.solve_time);
  print_cache_summary cache;
  let wall = Unix.gettimeofday () -. t0 in
  Format.printf "@.Total wall-clock: %.2fs@." wall;
  (let subject =
     match (dut_name, verilog) with
     | Some n, _ -> n
     | None, Some p -> Filename.basename p
     | None, None -> "?"
   in
   let dut_hash, _key, config =
     Bmc.cache_fingerprint ~engine:"prove" ~max_depth ~opt ~incremental ~budget
       ft.Autocc.Ft.property
   in
   let a_verdict, a_depth =
     match outcome with
     | Bmc.Proved (k, _) -> ("proved", k)
     | Bmc.Refuted (cex, _) -> ("refuted", cex.Bmc.cex_depth)
     | Bmc.Unknown (reason, st) ->
         ("unknown:" ^ Bmc.unknown_reason_to_string reason, st.Bmc.depth_reached)
   in
   let hits, _, _ = cache_counts cache in
   record_run ~tool:"prove" ~subject ~config ~dut_hash cache
     ~asserts:
       [
         {
           Obs.Ledger.a_name = "property";
           a_verdict;
           a_depth;
           a_wall_s = wall;
           a_cached = hits > 0;
         };
       ]
     ~artifacts:(List.filter_map Fun.id [ vcd; trace; log_json; metrics_file ]));
  if Obs.Metrics.enabled () then print_metrics_summary ();
  0

(* {1 exploit} *)

let exploit secret fixed =
  let config =
    if fixed then Duts.Maple.fixed else { Duts.Maple.fix_m2 = true; fix_m3 = false }
  in
  let r = Soc.Exploit.run ~config ~secret ~iterations:8 () in
  Format.printf "secret    : 0x%08x@." secret;
  Format.printf "recovered : 0x%08x in %d cycles (%s RTL)@." r.Soc.Exploit.recovered
    r.Soc.Exploit.cycles
    (if fixed then "fixed" else "vulnerable");
  0

(* {1 synthesize} *)

let synthesize algorithm max_depth =
  let open Rtl.Signal in
  let engine () =
    let din = input "din" 8 in
    let cap = input "cap" 1 in
    let set_mode = input "set_mode" 1 in
    let query = input "query" 8 in
    let stash = reg "stash" 8 in
    let mode = reg "mode" 1 in
    let heartbeat = reg "heartbeat" 4 in
    reg_set_next stash (mux2 cap din stash);
    reg_set_next mode (mux2 set_mode (bit din 0) mode);
    reg_set_next heartbeat (heartbeat +: one 4);
    let hit = query ==: stash in
    Rtl.Circuit.create ~name:"engine"
      ~outputs:[ ("hit", mux2 mode hit gnd); ("beat", bit heartbeat 3) ]
      ()
  in
  let candidates = [ "stash"; "mode"; "heartbeat" ] in
  let r =
    match algorithm with
    | "incremental" ->
        Autocc.Synthesis.incremental ~max_depth ~threshold:2 ~candidates (engine ())
    | "decremental" ->
        Autocc.Synthesis.decremental ~max_depth ~threshold:2 ~candidates (engine ())
    | other -> failwith ("unknown algorithm " ^ other)
  in
  List.iter
    (fun step ->
      match step.Autocc.Synthesis.step_result with
      | `Cex (culprit, depth) ->
          Format.printf "flush {%s}: CEX depth %d -> %s@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            (depth + 1) culprit
      | `Proof depth ->
          Format.printf "flush {%s}: proof to depth %d@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            (depth + 1)
      | `Unknown reason ->
          Format.printf "flush {%s}: inconclusive (%s)@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            reason)
    r.Autocc.Synthesis.steps;
  Format.printf "flush set: {%s} proved=%b@."
    (String.concat ", " r.Autocc.Synthesis.flush_set)
    r.Autocc.Synthesis.proved;
  0

(* {1 export} *)

let export dut_name dir threshold depth arch_regs =
  let dut =
    build_dut dut_name ~stage:0 ~fix_m2:false ~fix_m3:false ~fix_c1:false
      ~fix_c2:false ~fix_c3:false ~full_flush:false
  in
  let arch_regs = if arch_regs = "" then [] else String.split_on_char ',' arch_regs in
  Autocc.Sva.write_flow ~dir ~threshold ~arch_regs ~depth dut;
  let name = Rtl.Verilog.sanitize (Rtl.Circuit.name dut) in
  Format.printf "wrote %s/%s.sv, %s/ft_%s.sv, %s/%s.sby@." dir name dir name dir name;
  Format.printf "run with: sby -f %s/%s.sby@." dir name;
  0

(* {1 stats} *)

let stats dut_name max_depth jobs opt_level trace log_json log_level
    metrics_file =
  with_telemetry ?metrics_file ~cmd:"stats" trace log_json log_level @@ fun () ->
  List.iter
    (fun name ->
      let dut =
        build_dut name ~stage:0 ~fix_m2:false ~fix_m3:false ~fix_c1:false
          ~fix_c2:false ~fix_c3:false ~full_flush:false
      in
      Format.printf "%a@." Rtl.Circuit.pp_stats dut)
    known_duts;
  (* Instrumented run: enable the metric registry, check one DUT, and
     print the whole-pipeline telemetry summary (solver counters, CNF
     sizes, per-depth timings, opt reductions). *)
  Obs.Metrics.enable ();
  let dut =
    build_dut dut_name ~stage:0 ~fix_m2:false ~fix_m3:false ~fix_c1:false
      ~fix_c2:false ~fix_c3:false ~full_flush:false
  in
  let ft = ft_for dut_name dut ~stage:0 ~threshold:2 in
  let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
  let opt = Opt.level_of_int opt_level in
  Format.printf "@.Instrumented BMC on %s to depth %d at -O%d...@." dut_name
    max_depth (Opt.level_to_int opt);
  let t0 = Unix.gettimeofday () in
  (* An in-memory cache so the cache.* counters (hits/misses/stores and
     the live-size gauge) show up in the metric table alongside the
     solver counters — the sweep re-queries shared cones, so even a
     single run exercises them. *)
  let cache = Cache.create () in
  let outcome = Autocc.Ft.check ~max_depth ~jobs ~opt ~cache ft in
  (match outcome with
  | Bmc.Cex (cex, _) ->
      Format.printf "verdict: CEX at depth %d@." cex.Bmc.cex_depth;
      Autocc.Report.pp_first_divergence Format.std_formatter ft cex;
      Format.printf "@."
  | Bmc.Bounded_proof st ->
      Format.printf "verdict: bounded proof to depth %d@." st.Bmc.depth_reached
  | Bmc.Unknown (reason, st) ->
      Format.printf "verdict: unknown (%s), clean to depth %d@."
        (Bmc.unknown_reason_to_string reason)
        st.Bmc.depth_reached);
  Format.printf "wall: %.2fs@." (Unix.gettimeofday () -. t0);
  print_cache_summary (Some cache);
  print_metrics_summary ();
  0

(* {1 campaign} *)

let campaign duts threshold max_depth timeout conflict_budget retries resume
    opt_level no_incremental no_symmetric cache_dir no_cache out_dir trace
    log_json log_level metrics_file =
  let incremental = not no_incremental in
  let symmetric = not no_symmetric in
  let cache = cache_of cache_dir no_cache in
  with_telemetry ?metrics_file ?ledger_dir:cache_dir ~cmd:"campaign" trace
    log_json log_level
  @@ fun () ->
  (* The artifacts embed a telemetry snapshot, so the registry is always
     on for a campaign. *)
  Obs.Metrics.enable ();
  let entries =
    List.map
      (fun name ->
        {
          Explain.Campaign.e_label = name;
          e_dut = name;
          e_ft =
            (fun () ->
              let dut =
                build_dut name ~stage:0 ~fix_m2:false ~fix_m3:false
                  ~fix_c1:false ~fix_c2:false ~fix_c3:false ~full_flush:false
              in
              ft_for name dut ~stage:0 ~threshold);
          e_max_depth = max_depth;
        })
      duts
  in
  let opt = Opt.level_of_int opt_level in
  Format.printf
    "Campaign over %s: per-assertion CEX sweep to depth %d at -O%d, then \
     slice, minimize and cluster.@.@."
    (String.concat ", " duts) max_depth (Opt.level_to_int opt);
  let t0 = Unix.gettimeofday () in
  (* SIGTERM/SIGINT finish the entry in flight, skip the rest and exit
     through the normal checkpoint path, so the campaign directory is
     always resumable — `--resume` after a signal picks up exactly
     where the persisted index stops, byte-stably. *)
  let stop = Atomic.make false in
  let stop_handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let prev_term = Sys.signal Sys.sigterm stop_handler in
  let prev_int = Sys.signal Sys.sigint stop_handler in
  let result =
    Fun.protect ~finally:(fun () ->
        Sys.set_signal Sys.sigterm prev_term;
        Sys.set_signal Sys.sigint prev_int)
    @@ fun () ->
    Explain.Campaign.run ~opt ~incremental ~symmetric ?cache
      ~budget:(budget_of timeout conflict_budget)
      ?retry:(retry_of retries) ~resume ~out_dir
      ~should_stop:(fun () -> Atomic.get stop)
      entries
  in
  if Atomic.get stop then
    Format.printf
      "Interrupted: checkpoint persisted after %d/%d entries; finish with \
       --resume.@.@."
      (List.length result.Explain.Campaign.c_results)
      (List.length entries);
  Explain.Campaign.pp Format.std_formatter result;
  print_cache_summary cache;
  Format.printf "@.Total wall-clock: %.2fs@." (Unix.gettimeofday () -. t0);
  List.iter
    (fun p -> Format.printf "artifact: %s@." p)
    result.Explain.Campaign.c_artifacts;
  (let config =
     Bmc.cache_config ~engine:"check" ~max_depth ~opt ~incremental
       ~solver_config:None
       ~budget:(budget_of timeout conflict_budget)
   in
   let asserts =
     List.map
       (fun (r : Explain.Campaign.entry_result) ->
         let a_verdict =
           match r.Explain.Campaign.r_status with
           | `Failed msg -> "failed:" ^ msg
           | `Done ->
               Printf.sprintf "done:%d-channels%s"
                 (List.length r.Explain.Campaign.r_index)
                 (if r.Explain.Campaign.r_unknowns > 0 then
                    Printf.sprintf ",%d-unknown" r.Explain.Campaign.r_unknowns
                  else "")
         in
         {
           Obs.Ledger.a_name = r.Explain.Campaign.r_label;
           a_verdict;
           a_depth = r.Explain.Campaign.r_depth;
           a_wall_s = float_of_int r.Explain.Campaign.r_wall_ms /. 1000.;
           a_cached = r.Explain.Campaign.r_resumed;
         })
       result.Explain.Campaign.c_results
   in
   record_run ~tool:"campaign" ~subject:(String.concat "," duts) ~config cache
     ~asserts ~artifacts:result.Explain.Campaign.c_artifacts);
  if Obs.Metrics.enabled () then print_metrics_summary ();
  (* 130 = interrupted, the conventional SIGINT exit; the checkpoint
     above already made the interruption recoverable. *)
  if Atomic.get stop then 130 else 0

(* {1 top} *)

(* Heartbeat sidecar of a campaign directory (written atomically by
   Explain.Campaign): owner pid plus per-entry start/beat timestamps.
   Parsed here rather than through Explain so [top] depends only on the
   artifact schema, exactly like an external dashboard would. *)
type heartbeats = {
  hb_pid : int;
  hb_entries : (string * (float * bool)) list;  (* label -> beat_s, done *)
}

let read_heartbeats dir =
  let path = Filename.concat dir "heartbeats.json" in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Obs.Json.parse s with
      | Error _ -> None
      | Ok j
        when Obs.Json.member "schema" j
             <> Some (Obs.Json.Str "autocc.heartbeat/1") ->
          None
      | Ok j ->
        let pid =
          match Obs.Json.member "pid" j with Some (Obs.Json.Int p) -> p | _ -> 0
        in
        let entries =
          match Obs.Json.member "entries" j with
          | Some (Obs.Json.Obj kvs) ->
              List.filter_map
                (fun (label, e) ->
                  match
                    (Obs.Json.member "beat_s" e, Obs.Json.member "done" e)
                  with
                  | Some (Obs.Json.Float b), Some (Obs.Json.Bool d) ->
                      Some (label, (b, d))
                  | _ -> None)
                kvs
          | _ -> []
        in
        Some { hb_pid = pid; hb_entries = entries }
    with Sys_error _ | Failure _ -> None

let pid_alive pid =
  pid > 0
  && (try
        Unix.kill pid 0;
        true
      with Unix.Unix_error _ -> false)

(* The cockpit row labels are "entry" or "entry/assertion"; heartbeats
   are keyed by entry. *)
let entry_of_label label =
  match String.index_opt label '/' with
  | Some i -> String.sub label 0 i
  | None -> label

let heartbeat_note hb ~stale ~now label =
  match hb with
  | None -> None
  | Some hb -> (
      match List.assoc_opt (entry_of_label label) hb.hb_entries with
      | Some (beat, false) when now -. beat > stale ->
          if pid_alive hb.hb_pid then
            Some (Printf.sprintf "SLOW (beat %.0fs ago)" (now -. beat))
          else Some "CRASHED (pid gone)"
      | _ -> None)

let top out_dir once json interval duration stale =
  let once = once || json in
  let events_path = Filename.concat out_dir "events.jsonl" in
  let cockpit = Obs.Cockpit.create () in
  (* Cross-process tailing (truncation-aware, torn trailing line carried
     to the next tick) is Obs.Tail — the same machinery the tests drive
     against a writer mid-append. *)
  let tail = Obs.Tail.create events_path in
  let drain () =
    List.iter (Obs.Cockpit.feed_line cockpit) (Obs.Tail.poll tail)
  in
  let t_start = Unix.gettimeofday () in
  let rec frame () =
    drain ();
    let now = Unix.gettimeofday () in
    let hb = read_heartbeats out_dir in
    let note = heartbeat_note hb ~stale ~now in
    if json then
      print_string
        (Obs.Json.to_string (Obs.Cockpit.render_json ~now ~note cockpit) ^ "\n")
    else begin
      if not once then print_string "\027[2J\027[H";
      print_string (Obs.Cockpit.render ~now ~note cockpit)
    end;
    flush stdout;
    let settled () =
      List.for_all
        (fun r -> r.Obs.Cockpit.ro_verdict <> "running")
        (Obs.Cockpit.rows cockpit)
    in
    let finished =
      (* The campaign is over when its heartbeat file marks every entry
         done, or when the owning process is gone and nothing is
         running any more. *)
      match hb with
      | Some { hb_entries = _ :: _ as entries; hb_pid } ->
          List.for_all (fun (_, (_, d)) -> d) entries
          || ((not (pid_alive hb_pid)) && settled ())
      | _ ->
          (* A cleanly completed campaign deletes its heartbeat sidecar
             on exit, so "events but no heartbeat file, and every row is
             settled" also means over.  A campaign that has not produced
             events yet has no rows and keeps us polling. *)
          Obs.Cockpit.rows cockpit <> []
          && (not (Sys.file_exists (Filename.concat out_dir "heartbeats.json")))
          && settled ()
    in
    let timed_out =
      match duration with Some d -> now -. t_start >= d | None -> false
    in
    if once || finished || timed_out then 0
    else begin
      Unix.sleepf interval;
      frame ()
    end
  in
  if (not (Sys.file_exists events_path)) && not (Sys.file_exists out_dir) then
    failwith (Printf.sprintf "no campaign directory at %s" out_dir);
  frame ()

(* {1 history / diff-runs / why / profile}

   Post-mortem archaeology over the run ledger and the verdict cache.
   These are strictly read-only: they record no ledger row of their own
   and never touch the cache's hit/miss counters. *)

let ledger_dir_of ledger_dir =
  match Obs.Ledger.resolve_dir ?explicit:ledger_dir () with
  | Some dir -> dir
  | None ->
      failwith
        "no ledger directory: give --ledger-dir, or set AUTOCC_LEDGER_DIR or \
         AUTOCC_CACHE_DIR"

let fmt_ts ts =
  let tm = Unix.localtime ts in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let clip n s = if String.length s <= n then s else String.sub s 0 (n - 2) ^ ".."

(* "3 cex, 1 unknown"-style roll-up of a run's assertion records, keyed
   by the verdict kind (the part before any ':' detail). *)
let verdict_summary = function
  | [] -> "-"
  | asserts ->
      let tally = Hashtbl.create 4 in
      let order = ref [] in
      List.iter
        (fun (a : Obs.Ledger.assert_record) ->
          let k =
            match String.index_opt a.Obs.Ledger.a_verdict ':' with
            | Some i -> String.sub a.Obs.Ledger.a_verdict 0 i
            | None -> a.Obs.Ledger.a_verdict
          in
          if not (Hashtbl.mem tally k) then order := k :: !order;
          Hashtbl.replace tally k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
        asserts;
      String.concat ", "
        (List.rev_map
           (fun k -> Printf.sprintf "%d %s" (Hashtbl.find tally k) k)
           !order)

let rec list_drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> list_drop (n - 1) t

let history ledger_dir tool subject last =
  let dir = ledger_dir_of ledger_dir in
  let runs, bad = Obs.Ledger.load dir in
  let keep (r : Obs.Ledger.run) =
    (match tool with None -> true | Some t -> r.Obs.Ledger.r_tool = t)
    && match subject with None -> true | Some s -> r.Obs.Ledger.r_subject = s
  in
  let runs = List.filter keep runs in
  let runs =
    if last > 0 then list_drop (List.length runs - last) runs else runs
  in
  if runs = [] then
    Format.printf "no matching runs in %s@." (Obs.Ledger.path dir)
  else begin
    Format.printf "%-18s %-8s %-18s %-19s %9s %11s  %s@." "RUN" "TOOL"
      "SUBJECT" "WHEN" "WALL" "CACHE H/Q" "VERDICTS";
    List.iter
      (fun (r : Obs.Ledger.run) ->
        Format.printf "%-18s %-8s %-18s %-19s %8.2fs %5d/%-5d  %s@."
          r.Obs.Ledger.r_id r.r_tool (clip 18 r.r_subject) (fmt_ts r.r_ts)
          r.r_wall_s r.r_cache_hits
          (r.r_cache_hits + r.r_cache_misses)
          (verdict_summary r.r_asserts))
      runs
  end;
  if bad > 0 then
    Format.printf "(%d unparseable ledger line%s skipped)@." bad
      (if bad = 1 then "" else "s");
  0

let diff_runs ledger_dir ref_base ref_fresh =
  let dir = ledger_dir_of ledger_dir in
  let resolve r =
    match Obs.Ledger.find dir ~ref:r with
    | Some run -> run
    | None ->
        failwith
          (Printf.sprintf "no run matching %S in %s" r (Obs.Ledger.path dir))
  in
  let base = resolve ref_base in
  let fresh = resolve ref_fresh in
  Format.printf "base : %s  %s %s  (%s)@." base.Obs.Ledger.r_id
    base.Obs.Ledger.r_tool base.Obs.Ledger.r_subject
    (fmt_ts base.Obs.Ledger.r_ts);
  Format.printf "fresh: %s  %s %s  (%s)@." fresh.Obs.Ledger.r_id
    fresh.Obs.Ledger.r_tool fresh.Obs.Ledger.r_subject
    (fmt_ts fresh.Obs.Ledger.r_ts);
  if base.Obs.Ledger.r_config <> fresh.Obs.Ledger.r_config then
    Format.printf
      "note : configurations differ — flips below may be config-induced@.  \
       base : %s@.  fresh: %s@."
      base.Obs.Ledger.r_config fresh.Obs.Ledger.r_config;
  (* Verdict flips: every base assertion record must persist with the
     same verdict; disappearing or changing is a flip. *)
  let flips = ref 0 in
  List.iter
    (fun (a : Obs.Ledger.assert_record) ->
      match
        List.find_opt
          (fun (b : Obs.Ledger.assert_record) ->
            b.Obs.Ledger.a_name = a.Obs.Ledger.a_name)
          fresh.Obs.Ledger.r_asserts
      with
      | None ->
          incr flips;
          Format.printf "FLIP %-24s %s -> (missing)@." a.Obs.Ledger.a_name
            a.Obs.Ledger.a_verdict
      | Some b when b.Obs.Ledger.a_verdict <> a.Obs.Ledger.a_verdict ->
          incr flips;
          Format.printf "FLIP %-24s %s -> %s@." a.Obs.Ledger.a_name
            a.Obs.Ledger.a_verdict b.Obs.Ledger.a_verdict
      | Some _ -> ())
    base.Obs.Ledger.r_asserts;
  (* Timing: the same dotted-leaf ratio+floor gate as [bench diff],
     applied to the two ledger rows. *)
  let ratio, floor = Obs.Numdiff.thresholds () in
  let fresh_leaves = Obs.Numdiff.leaves (Obs.Ledger.json_of_run fresh) in
  let regressions = ref 0 in
  Format.printf "@.%-32s %12s %12s %9s@." "leaf" "base" "fresh" "ratio";
  List.iter
    (fun (path, bv) ->
      match Obs.Numdiff.gate path with
      | None -> ()
      | Some d -> (
          match List.assoc_opt path fresh_leaves with
          | None -> ()
          | Some fv ->
              let reg =
                Obs.Numdiff.regressed d ~ratio ~floor ~base:bv ~fresh:fv
              in
              if reg then incr regressions;
              Format.printf "%-32s %12.4f %12.4f %9s%s@." path bv fv
                (if bv = 0. then "-"
                 else Printf.sprintf "%.2fx" (fv /. bv))
                (if reg then "  REGRESSED" else "")))
    (Obs.Numdiff.leaves (Obs.Ledger.json_of_run base));
  if !flips = 0 && !regressions = 0 then begin
    Format.printf
      "@.OK: no verdict flips, no timing regressions (ratio %g, floor %gs)@."
      ratio floor;
    0
  end
  else begin
    Format.printf "@.%d verdict flip(s), %d timing regression(s)@." !flips
      !regressions;
    1
  end

let why dut_name assertion stage threshold max_depth timeout conflict_budget
    opt_level no_incremental cache_dir no_cache ledger_dir =
  let incremental = not no_incremental in
  let opt = Opt.level_of_int opt_level in
  let budget = budget_of timeout conflict_budget in
  let cache =
    match cache_of cache_dir no_cache with
    | Some c -> c
    | None ->
        failwith
          "why needs the verdict cache: give --cache-dir or set \
           AUTOCC_CACHE_DIR"
  in
  let dut =
    build_dut dut_name ~stage ~fix_m2:false ~fix_m3:false ~fix_c1:false
      ~fix_c2:false ~fix_c3:false ~full_flush:false
  in
  let ft = ft_for dut_name dut ~stage ~threshold in
  let property = ft.Autocc.Ft.property in
  let runs =
    match Obs.Ledger.resolve_dir ?explicit:ledger_dir () with
    | Some dir -> fst (Obs.Ledger.load dir)
    | None -> []
  in
  let print_run_row p_run =
    match
      List.find_opt
        (fun (r : Obs.Ledger.run) -> r.Obs.Ledger.r_id = p_run)
        runs
    with
    | Some r ->
        Format.printf "  producing run  : %s (%s %s, %s, wall %.2fs, cache %d/%d)@."
          r.Obs.Ledger.r_id r.r_tool r.r_subject (fmt_ts r.r_ts) r.r_wall_s
          r.r_cache_hits
          (r.r_cache_hits + r.r_cache_misses)
    | None ->
        Format.printf "  producing run  : %s (%s)@." p_run
          (if runs = [] then "no ledger loaded" else "not in the ledger")
  in
  (* Recompute exactly the (structural hash, key, config) triple the
     engine addressed the cache with, then peek — no counters touched. *)
  let audit title prop ~engine ~incremental =
    let dut_hash, key, config =
      Bmc.cache_fingerprint ~engine ~max_depth ~opt ~incremental ~budget prop
    in
    Format.printf "@.%s@." title;
    Format.printf "  structural hash: %s@." dut_hash;
    Format.printf "  config         : %s@." config;
    Format.printf "  cache key      : %s@." key;
    match Cache.peek cache key with
    | None ->
        Format.printf "  verdict        : (not cached)@.";
        false
    | Some (v, prov) ->
        Format.printf "  verdict        : %s@."
          (match v with
          | Cache.Bounded d -> Printf.sprintf "bounded proof to depth %d" d
          | Cache.Proved k -> Printf.sprintf "proved by %d-induction" k
          | Cache.Cex c ->
              Printf.sprintf "counterexample at depth %d" c.Cache.v_depth);
        (match prov with
        | None ->
            Format.printf
              "  provenance     : none recorded (pre-provenance store)@."
        | Some p ->
            Format.printf "  stored         : %s by run %s (engine %s)@."
              (fmt_ts p.Cache.p_ts) p.Cache.p_run p.Cache.p_engine;
            print_run_row p.Cache.p_run);
        true
  in
  let found =
    match assertion with
    | None ->
        (* The property-level entries analyze (engine "check") and prove
           (engine "prove") store; audit both unconditionally so the
           output says which one exists. *)
        let a =
          audit "property-level entry (engine check)" property ~engine:"check"
            ~incremental
        in
        let b =
          audit "property-level entry (engine prove)" property ~engine:"prove"
            ~incremental
        in
        a || b
    | Some name -> (
        match
          List.find_opt (fun (n, _) -> n = name) property.Bmc.asserts
        with
        | None ->
            failwith
              (Printf.sprintf "no assertion %S in the %s FT (have: %s)" name
                 dut_name
                 (String.concat ", " (List.map fst property.Bmc.asserts)))
        | Some (n, s) ->
            (* Per-assertion entries (campaign sweeps / the sharded
               engine) key the single-assertion sub-property, always on
               a persistent solver. *)
            let sub = { property with Bmc.asserts = [ (n, s) ] } in
            audit
              (Printf.sprintf "per-assertion entry %S" n)
              sub ~engine:"check" ~incremental:true)
  in
  if found then 0
  else begin
    Format.printf
      "@.No cached verdict under this configuration — run analyze, prove or \
       campaign with the same flags and this cache directory first.@.";
    1
  end

let profile trace_path svg =
  match Obs.Profile.of_file trace_path with
  | Result.Error msg -> failwith msg
  | Result.Ok p ->
      print_string (Obs.Profile.table p);
      (match svg with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Obs.Profile.flamegraph_svg p));
          Format.printf "Flamegraph written to %s@." path);
      0

(* {1 Terms} *)

let dut_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun d -> (d, d)) known_duts))) None
    & info [ "dut" ] ~doc:"Bundled DUT to analyze: vscale, maple, aes, cva6, divider or leaky.")

let dut_arg_required =
  Arg.(
    required
    & opt (some (enum (List.map (fun d -> (d, d)) known_duts))) None
    & info [ "dut" ] ~doc:"DUT: vscale, maple, aes, cva6, divider or leaky.")

let verilog_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "verilog" ]
        ~doc:"Path to a SystemVerilog module to analyze instead of a bundled DUT.")

let stage_arg =
  Arg.(value & opt int 0 & info [ "stage" ] ~doc:"Vscale refinement stage (0-5).")

let threshold_arg =
  Arg.(value & opt int 2 & info [ "threshold" ] ~doc:"Transfer-period length in cycles.")

let max_depth_arg =
  Arg.(value & opt int 12 & info [ "max-depth" ] ~doc:"BMC unrolling bound in cycles.")

(* A non-negative int converter: --jobs/-portfolio semantics give 0 a
   meaning ("auto" / "off"), but negative values used to fall through to
   the domain-pool layer — reject them here with a proper cmdliner
   error. *)
let nonneg_int what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 0 -> Ok n
    | Ok n ->
        Error (`Msg (Printf.sprintf "%s must be >= 0 (got %d)" what n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* Strictly-positive converters for the resource budgets: a zero or
   negative budget would make every run Unknown at depth 0, which is
   never what the user meant — reject it at parse time like --jobs
   does. *)
let pos_float what =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when x > 0. -> Ok x
    | Ok x -> Error (`Msg (Printf.sprintf "%s must be > 0 (got %g)" what x))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let pos_int what =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > 0 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "%s must be > 0 (got %d)" what n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let timeout_arg =
  Arg.(
    value
    & opt (some (pos_float "--timeout")) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per solver run. Exhaustion yields an Unknown \
           verdict (with the deepest fully-checked depth), never a wrong \
           one.")

let conflict_budget_arg =
  Arg.(
    value
    & opt (some (pos_int "--conflict-budget")) None
    & info [ "conflict-budget" ] ~docv:"N"
        ~doc:
          "Conflict budget per solver run; exhaustion yields an Unknown \
           verdict.")

let retries_arg =
  Arg.(
    value
    & opt (nonneg_int "--retries") 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry inconclusive (budget/fault) verdicts up to $(docv) times \
           with escalated budgets, alternate solver configurations and \
           capped exponential backoff. 0 (the default) disables retries.")

let jobs_arg =
  Arg.(
    value
    & opt (nonneg_int "--jobs") 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for parallel verification: assertions are sharded \
           across this many domains. 1 (the default) runs the sequential \
           engine; 0 uses one domain per core.")

let portfolio_arg =
  Arg.(
    value
    & opt (nonneg_int "--portfolio") 0
    & info [ "portfolio" ]
        ~doc:
          "Race this many solver configurations on the whole property instead \
           of sharding assertions; the first answer wins. Implies the parallel \
           engine.")

let opt_arg =
  let level =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 0 && n <= 2 -> Ok n
      | Ok n -> Error (`Msg (Printf.sprintf "-O expects 0, 1 or 2 (got %d)" n))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value & opt level 2
    & info [ "O"; "opt" ]
        ~doc:
          "Netlist-optimization level applied to the miter before \
           bit-blasting: 0 disables it; 1 and 2 (the default) both run \
           strash, algebraic rewrites and cone-of-influence. Verdicts and \
           counterexample depths are unaffected.")

let no_incremental_arg =
  Arg.(
    value & flag
    & info [ "no-incremental" ]
        ~doc:
          "Disable incremental (persistent-solver) BMC and re-blast every \
           depth on a fresh solver instead. Slower, but an independent \
           search trajectory — the differential oracle the incremental \
           engine is validated against. Verdicts and counterexample depths \
           are identical either way.")

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let no_symmetric_arg =
  Arg.(
    value & flag
    & info [ "no-symmetric" ]
        ~doc:
          "Disable the symmetric-universe template encoding and blast both \
           universes of the miter independently. Slower template \
           construction, identical verdicts and counterexample depths — the \
           differential oracle the symmetric encoder is validated against.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "AUTOCC_CACHE_DIR")
        ~doc:
          "Persist conclusive verdicts to $(docv)/verdicts.jsonl, keyed by a \
           canonical structural hash of each property cone plus the engine \
           configuration. A later run (of this or any command) re-verifies \
           only cones that actually changed; cached counterexamples are \
           replayed on the simulator before being trusted. Corrupted \
           entries are rejected and recomputed.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Ignore --cache-dir / AUTOCC_CACHE_DIR and solve everything fresh.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome/Perfetto trace-event JSON profile of the run to \
           $(docv); load it at ui.perfetto.dev or chrome://tracing.")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:"Write structured logs to $(docv), one JSON object per line.")

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Structured-log verbosity: error, warn, info or debug.")

let metrics_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-file" ] ~docv:"FILE"
        ~doc:
          "Expose the metric registry as a Prometheus text-format snapshot at \
           $(docv), atomically rewritten every couple of seconds while the \
           command runs (point a node_exporter textfile collector or a watch \
           at it). Implies metrics collection.")

let analyze_cmd =
  let term =
    Term.(
      const analyze $ dut_arg $ verilog_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "top" ] ~doc:"Top module of a multi-module Verilog source.")
      $ Arg.(
          value
          & opt string ""
          & info [ "blackbox" ]
              ~doc:"Comma-separated submodule boundaries/instances to blackbox.")
      $ stage_arg $ threshold_arg $ max_depth_arg $ jobs_arg $ portfolio_arg
      $ timeout_arg $ conflict_budget_arg $ retries_arg $ opt_arg
      $ no_incremental_arg $ no_symmetric_arg $ cache_dir_arg $ no_cache_arg
      $ flag "fix-m2" "Apply the MAPLE M2 fix."
      $ flag "fix-m3" "Apply the MAPLE M3 fix."
      $ flag "fix-c1" "Apply the CVA6 C1 fix."
      $ flag "fix-c2" "Apply the CVA6 C2 fix."
      $ flag "fix-c3" "Apply the CVA6 C3 fix."
      $ flag "full-flush" "Use the CVA6 full-flush fence.t instead of microreset."
      $ flag "verbose" "Print per-depth progress."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "vcd" ] ~doc:"Write the counterexample waveform to this VCD file.")
      $ trace_arg $ log_json_arg $ log_level_arg $ metrics_file_arg)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Generate the AutoCC FT for a DUT and search for covert channels.") term

let prove_cmd =
  let term =
    Term.(
      const prove $ dut_arg $ verilog_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "top" ] ~doc:"Top module of a multi-module Verilog source.")
      $ stage_arg $ threshold_arg $ max_depth_arg $ jobs_arg $ timeout_arg
      $ conflict_budget_arg $ retries_arg $ opt_arg $ no_incremental_arg
      $ no_symmetric_arg $ cache_dir_arg $ no_cache_arg
      $ flag "verbose" "Print per-depth progress."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "vcd" ]
              ~doc:"Write the refutation waveform to this VCD file.")
      $ trace_arg $ log_json_arg $ log_level_arg $ metrics_file_arg)
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Attempt an unbounded proof of non-interference by k-induction (the \
          paper's full proof on the AES accelerator).")
    term

let exploit_cmd =
  let secret =
    Arg.(value & opt int 0xdeadbeef & info [ "secret" ] ~doc:"32-bit secret to leak.")
  in
  let term = Term.(const exploit $ secret $ flag "fixed" "Run against the fixed RTL.") in
  Cmd.v (Cmd.info "exploit" ~doc:"Run the Listing 2 covert-channel exploit at system level.") term

let synthesize_cmd =
  let algorithm =
    Arg.(
      value
      & opt (enum [ ("incremental", "incremental"); ("decremental", "decremental") ]) "incremental"
      & info [ "algorithm" ] ~doc:"Flush-construction algorithm (incremental or decremental).")
  in
  let term = Term.(const synthesize $ algorithm $ max_depth_arg) in
  Cmd.v (Cmd.info "synthesize" ~doc:"Construct a minimal flush set (Sec. 3.5 algorithms).") term

let stats_cmd =
  let dut =
    Arg.(
      value
      & opt (enum (List.map (fun d -> (d, d)) known_duts)) "vscale"
      & info [ "dut" ]
          ~doc:"DUT for the instrumented run (default vscale).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print size statistics of the bundled DUTs, then run an \
          instrumented BMC search and print the pipeline telemetry summary \
          (solver conflict/propagation counts, CNF sizes, per-depth \
          timings).")
    Term.(
      const stats $ dut $ max_depth_arg $ jobs_arg $ opt_arg $ trace_arg
      $ log_json_arg $ log_level_arg $ metrics_file_arg)

let campaign_cmd =
  let duts =
    Arg.(
      value
      & opt (list (enum (List.map (fun d -> (d, d)) known_duts))) [ "leaky" ]
      & info [ "duts"; "dut" ] ~docv:"DUT,..."
          ~doc:
            "Comma-separated DUTs to sweep (vscale, maple, aes, cva6, divider, \
             leaky).")
  in
  let out_dir =
    Arg.(
      value & opt string "autocc_campaign"
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Directory for the campaign artifacts: campaign.json, one \
             channel_*.json per deduplicated channel, and a self-contained \
             report.html.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reuse conclusive entries from an existing campaign directory: an \
             entry whose persisted record is done with zero unknowns and \
             whose channel artifacts still validate is not re-solved. \
             Entries that were failed, inconclusive, or interrupted are \
             recomputed.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Sweep DUT configurations with a per-assertion CEX search, then \
          slice, minimize and cluster every counterexample into named covert \
          channels (Table-1 style), writing one JSON artifact per channel \
          and an HTML report. The index and report are checkpointed after \
          every entry, so an interrupted campaign can be finished with \
          --resume.")
    Term.(
      const campaign $ duts $ threshold_arg $ max_depth_arg $ timeout_arg
      $ conflict_budget_arg $ retries_arg $ resume $ opt_arg
      $ no_incremental_arg $ no_symmetric_arg $ cache_dir_arg $ no_cache_arg
      $ out_dir $ trace_arg $ log_json_arg $ log_level_arg $ metrics_file_arg)

let top_cmd =
  let out_dir =
    Arg.(
      value & opt string "autocc_campaign"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Campaign directory to attach to (same as campaign --out).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single frame (no screen clearing) and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print one machine-readable autocc.top/1 JSON snapshot instead of \
             the table and exit (implies --once).")
  in
  let interval =
    Arg.(
      value
      & opt (pos_float "--interval") 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let duration =
    Arg.(
      value
      & opt (some (pos_float "--duration")) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Exit after $(docv) even if the campaign is still running.")
  in
  let stale =
    Arg.(
      value
      & opt (pos_float "--stale") 10.0
      & info [ "stale" ] ~docv:"SECONDS"
          ~doc:
            "Flag an unfinished entry whose last heartbeat is older than \
             $(docv) as SLOW (owner process alive) or CRASHED (owner gone).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live cockpit for a running (or finished) campaign: tails \
          DIR/events.jsonl — no IPC with the campaign process — and renders \
          per-entry depth, verdict, cache hit ratio, solver conflict rate \
          and an ETA, annotating stalled workers from DIR/heartbeats.json. \
          Exits when the campaign completes.")
    Term.(const top $ out_dir $ once $ json $ interval $ duration $ stale)

let export_cmd =
  let dir =
    Arg.(value & opt string "autocc_flow" & info [ "dir" ] ~doc:"Output directory.")
  in
  let depth =
    Arg.(value & opt int 25 & info [ "depth" ] ~doc:"BMC depth in the SBY config.")
  in
  let arch_regs =
    Arg.(
      value & opt string ""
      & info [ "arch-regs" ] ~doc:"Comma-separated registers for architectural_state_eq.")
  in
  let term = Term.(const export $ dut_arg_required $ dir $ threshold_arg $ depth $ arch_regs) in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit the DUT and its AutoCC testbench as SystemVerilog + SBY project.")
    term

let ledger_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "AUTOCC_LEDGER_DIR")
        ~doc:
          "Directory holding the runs.jsonl run ledger. Defaults to \
           AUTOCC_LEDGER_DIR, then AUTOCC_CACHE_DIR — the ledger lives \
           beside the verdict cache whose provenance records cite it.")

let history_cmd =
  let tool =
    Arg.(
      value
      & opt (some string) None
      & info [ "tool" ] ~docv:"TOOL"
          ~doc:"Only runs recorded by $(docv): analyze, prove, campaign or bench.")
  in
  let subject =
    Arg.(
      value
      & opt (some string) None
      & info [ "subject" ] ~docv:"NAME"
          ~doc:"Only runs whose subject (DUT, DUT list or bench subcommand) is $(docv).")
  in
  let last =
    Arg.(
      value
      & opt (nonneg_int "--last") 0
      & info [ "last" ] ~docv:"N"
          ~doc:"Only the newest $(docv) matching runs (0, the default, lists all).")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "List the run ledger (runs.jsonl): one row per recorded \
          analyze/prove/campaign/bench invocation with its config \
          fingerprint, wall/CPU time, cache hit ratio and verdict \
          roll-up. Rows are addressable by id prefix or ~N (Nth newest) \
          in diff-runs.")
    Term.(const history $ ledger_dir_arg $ tool $ subject $ last)

let diff_runs_cmd =
  let base =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASE"
          ~doc:"Base run: ~N (Nth newest, ~1 = latest) or a run-id prefix.")
  in
  let fresh =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FRESH" ~doc:"Run to compare against BASE.")
  in
  Cmd.v
    (Cmd.info "diff-runs"
       ~doc:
         "Compare two ledger rows: report per-assertion verdict flips and \
          gate duration leaves with the same ratio+floor machinery as \
          bench diff (AUTOCC_DIFF_RATIO / AUTOCC_DIFF_FLOOR_S). Exits 1 \
          on any flip or timing regression.")
    Term.(const diff_runs $ ledger_dir_arg $ base $ fresh)

let why_cmd =
  let assertion =
    Arg.(
      value
      & opt (some string) None
      & info [ "assert" ] ~docv:"NAME"
          ~doc:
            "Audit the per-assertion cache entry for $(docv) (the shape \
             campaign sweeps store) instead of the property-level entry.")
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Audit a cached verdict: recompute the structural hash, config \
          fingerprint and cache key the engine would use for this DUT under \
          these flags, peek the verdict cache without touching its \
          counters, and resolve the stored provenance back to the ledger \
          row of the run that earned it. Exits 1 when nothing is cached \
          under that key.")
    Term.(
      const why $ dut_arg_required $ assertion $ stage_arg $ threshold_arg
      $ max_depth_arg $ timeout_arg $ conflict_budget_arg $ opt_arg
      $ no_incremental_arg $ cache_dir_arg $ no_cache_arg $ ledger_dir_arg)

let profile_cmd =
  let trace =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:"Chrome trace-event JSON written by --trace.")
  in
  let svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Also write a self-contained flamegraph SVG to $(docv).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Fold a recorded --trace profile into a merged span tree: total/self \
          time and call counts per span, self time per category (sat, cnf, \
          opt, bmc, cache, explain, ...), an attributed-vs-wall coverage \
          headline, and optionally a flamegraph SVG.")
    Term.(const profile $ trace $ svg)

(* {1 serve / submit / status / worker} *)

let serve_dir_arg =
  Arg.(
    value & opt string "autocc_serve"
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Service directory: serve.sock, the persistent job queue \
           (queue.json), per-job specs/heartbeats/results, worker logs, \
           events.jsonl and runs.jsonl all live here.")

let serve dir workers lease_s max_crashes shed retries cache_dir no_cache
    metrics_file quiet =
  let cfg =
    {
      (Serve.Daemon.default ~dir ~exe:Sys.executable_name) with
      Serve.Daemon.d_workers = workers;
      d_lease_s = lease_s;
      d_max_crashes = max_crashes;
      d_shed = shed;
      d_retry =
        (match retry_of retries with Some r -> r | None -> Retry.default);
      d_cache_dir = (if no_cache then None else cache_dir);
      d_metrics_file = metrics_file;
      d_quiet = quiet;
    }
  in
  Serve.Daemon.run cfg

let worker dir job attempt = Serve.Worker.run ~dir ~job_id:job ~attempt

let submit dir duts engine max_depth threshold wait =
  let submitted =
    List.map
      (fun d ->
        let spec =
          {
            Serve.Machine.sp_dut = d;
            sp_engine = engine;
            sp_depth = max_depth;
            sp_threshold = threshold;
          }
        in
        match Serve.Client.submit ~dir spec with
        | Ok id ->
            Format.printf "submitted %s (%s)@." id d;
            Ok id
        | Error msg ->
            Format.eprintf "autocc submit: %s: %s@." d msg;
            Error ())
      duts
  in
  let rc = if List.exists Result.is_error submitted then 1 else 0 in
  if not wait then rc
  else
    List.fold_left
      (fun rc r ->
        match r with
        | Error () -> rc
        | Ok id -> (
            match Serve.Client.wait ~dir id with
            | Error msg ->
                Format.eprintf "autocc submit: wait %s: %s@." id msg;
                1
            | Ok resp ->
                let job =
                  Option.value ~default:(Obs.Json.Obj [])
                    (Obs.Json.member "job" resp)
                in
                let str k = Option.value ~default:"" (Obs.Json.str k job)
                and int k = Option.value ~default:0 (Obs.Json.int k job) in
                Format.printf "%s %s: %s (depth %d, %.2fs)@." id (str "dut")
                  (str "verdict") (int "depth")
                  (float_of_int (int "wall_ms") /. 1000.);
                rc))
      rc submitted

let status dir as_json drain =
  if drain then (
    match Serve.Client.request ~dir (Serve.Proto.json_of_request Serve.Proto.Drain) with
    | Ok _ ->
        Format.printf "drain requested@.";
        0
    | Error msg ->
        Format.eprintf "autocc status: %s@." msg;
        1)
  else
    match Serve.Client.status ~dir with
    | Error msg ->
        Format.eprintf "autocc status: %s@." msg;
        1
    | Ok resp ->
        if as_json then (
          print_endline (Obs.Json.to_string resp);
          0)
        else begin
          let jobs =
            match Obs.Json.member "jobs" resp with
            | Some (Obs.Json.List l) -> l
            | _ -> []
          in
          Format.printf "%-6s %-10s %-7s %-12s %-8s %s@." "JOB" "DUT" "ENGINE"
            "STATE" "CRASHES" "VERDICT";
          List.iter
            (fun j ->
              let str k = Option.value ~default:"" (Obs.Json.str k j) in
              Format.printf "%-6s %-10s %-7s %-12s %-8d %s@." (str "id")
                (str "dut") (str "engine") (str "state")
                (Option.value ~default:0 (Obs.Json.int "crashes" j))
                (str "verdict"))
            jobs;
          (match Obs.Json.member "draining" resp with
          | Some (Obs.Json.Bool true) -> Format.printf "(draining)@."
          | _ -> ());
          0
        end

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt (nonneg_int "--workers") 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker pool size. 0 accepts and persists submissions but never \
             dispatches — queue-only mode.")
  in
  let lease =
    Arg.(
      value
      & opt (pos_float "--lease") 10.0
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Heartbeat staleness horizon: a leased worker whose last renewal \
             is older than $(docv) is presumed hung, SIGKILLed, and its job \
             redelivered.")
  in
  let max_crashes =
    Arg.(
      value
      & opt (pos_int "--max-crashes") 3
      & info [ "max-crashes" ] ~docv:"N"
          ~doc:
            "Crashes before a job is quarantined as poison with the terminal \
             verdict unknown:worker_crashed (which can never flip a \
             conclusive verdict).")
  in
  let shed =
    Arg.(
      value
      & opt (pos_int "--shed") 64
      & info [ "shed" ] ~docv:"N"
          ~doc:
            "Live-job watermark past which submissions are refused with \
             \"overloaded\" instead of growing the queue without bound.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-isolated verification service: accept submissions on \
          DIR/serve.sock, dispatch each job to a disposable worker process \
          under a heartbeat lease, redeliver crashed jobs with exponential \
          backoff, quarantine poison jobs, and drain gracefully on \
          SIGTERM/SIGINT (the persisted queue survives a restart).")
    Term.(
      const serve $ serve_dir_arg $ workers $ lease $ max_crashes $ shed
      $ retries_arg $ cache_dir_arg $ no_cache_arg $ metrics_file_arg
      $ flag "quiet" "Suppress per-event lifecycle lines.")

let submit_cmd =
  let duts =
    Arg.(
      non_empty
      & pos_all (enum (List.map (fun d -> (d, d)) known_duts)) []
      & info [] ~docv:"DUT"
          ~doc:"DUTs to submit, one job each (vscale, maple, aes, cva6, \
                divider, leaky).")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("check", "check"); ("prove", "prove") ]) "check"
      & info [ "engine" ]
          ~doc:"Verification engine: check (BMC) or prove (k-induction).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit verification jobs to a running autocc serve daemon; with \
          --wait, block until each is terminal and print its verdict.")
    Term.(
      const submit $ serve_dir_arg $ duts $ engine $ max_depth_arg
      $ threshold_arg
      $ flag "wait" "Block until each submitted job is terminal.")

let status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show the job table of a running autocc serve daemon (state, crash \
          count and verdict per job).")
    Term.(
      const status $ serve_dir_arg
      $ flag "json" "Print the raw autocc.serve/1 status response."
      $ flag "drain"
          "Ask the daemon to drain (same effect as SIGTERM) instead of \
           printing status.")

let worker_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Service directory.")
  in
  let job =
    Arg.(
      required
      & opt (some string) None
      & info [ "job" ] ~docv:"ID" ~doc:"Job id to execute.")
  in
  let attempt =
    Arg.(
      value
      & opt (nonneg_int "--attempt") 0
      & info [ "attempt" ] ~docv:"N"
          ~doc:"Delivery attempt; > 0 rotates the fault-injection seed.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Execute one leased service job and deposit its result (spawned by \
          autocc serve; not intended for interactive use).")
    Term.(const worker $ dir $ job $ attempt)

let () =
  (* Test builds inject deterministic faults via AUTOCC_FAULT; a no-op
     (one atomic load per probe) when the variable is unset. *)
  Fault.arm_from_env ();
  (* AUTOCC_WATCHDOG tunes (or disarms) the solver-health watchdog:
     "every=N,window=N,patience=N,min_cps=F,min_lps=F,rebudget=0|1". *)
  Obs.Watchdog.arm_from_env ();
  let info =
    Cmd.info "autocc" ~version:"1.0"
      ~doc:"Automatic discovery of covert channels in time-shared hardware."
  in
  let cmd =
    Cmd.group info
      [
        analyze_cmd;
        prove_cmd;
        exploit_cmd;
        synthesize_cmd;
        export_cmd;
        stats_cmd;
        campaign_cmd;
        serve_cmd;
        submit_cmd;
        status_cmd;
        worker_cmd;
        top_cmd;
        history_cmd;
        diff_runs_cmd;
        why_cmd;
        profile_cmd;
      ]
  in
  (* Operational errors (unwritable --out, missing file, unknown DUT)
     exit with a one-line diagnostic, not an uncaught exception and a
     backtrace. *)
  exit
    (* [catch:false]: cmdliner would otherwise intercept exceptions as
       "internal error" (exit 125) before the one-line diagnostics below. *)
    (try Cmd.eval' ~catch:false cmd with
    | Failure msg | Sys_error msg ->
        Format.eprintf "autocc: %s@." msg;
        1
    | Unix.Unix_error (err, fn, arg) ->
        Format.eprintf "autocc: %s: %s%s@." fn (Unix.error_message err)
          (if arg = "" then "" else " (" ^ arg ^ ")");
        1)
