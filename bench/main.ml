(* Benchmark harness: regenerates every table of the paper's evaluation
   (the paper's figures 1-3 are conceptual diagrams; the quickstart
   example narrates Fig. 2's phases). Each experiment prints the paper's
   reported numbers next to the measured ones; absolute values differ (we
   run downsized DUTs on our own SAT engine, not JasperGold on full RTL)
   but the shape — what is found, in which refinement order, and that
   fixes turn CEXs into proofs — must match.

   Usage: dune exec bench/main.exe [table1|table2|exploit|aes_proof|
                                    fixes|baseline|flush_tdd|parallel|
                                    opt|incremental|cache|symmetric|
                                    campaign|smoke|diff|bechamel|all]

   The [parallel] subcommand re-runs representative Table 1 rows on the
   sequential engine and on the domain-sharded parallel engine
   (lib/bmc/parallel.ml), checks the verdicts and CEX depths agree, and
   prints the per-row speedup (AUTOCC_JOBS overrides the worker count).
   The [opt] subcommand re-runs the Table 1 rows end-to-end at -O0 and
   -O2, asserts identical verdicts and CEX depths, and reports the
   wall-clock speedup from the lib/opt netlist pipeline; [smoke] is its
   single-row variant hooked into [dune runtest] via @bench-smoke.
   [parallel] and [opt] each write a machine-readable BENCH_<name>.json
   next to the table.

   The [bechamel] subcommand runs one Bechamel micro-benchmark per table
   on representative kernels. *)

module V = Duts.Vscale
module M = Duts.Maple
module A = Duts.Aes
module C = Duts.Cva6lite

(* {1 Machine-readable output}

   Hand-rolled JSON (no json library in the toolchain): each perf-bearing
   subcommand dumps BENCH_<name>.json next to the stdout table so the
   repo's perf trajectory can be tracked across commits. *)

module Json = struct
  include Obs.Json

  let write ~path t =
    write_file ~path t;
    Printf.printf "     machine-readable results written to %s\n" path
end

(* One outcome (verdict kind, CEX/proof depth, solver stats) as JSON.
   The stats shape comes from {!Autocc.Report.json_of_bmc_stats} — the
   one schema shared with the CLI. *)
let json_of_outcome outcome ~wall =
  let stats =
    match outcome with
    | Bmc.Cex (_, st) | Bmc.Bounded_proof st | Bmc.Unknown (_, st) -> st
  in
  let verdict, depth =
    match outcome with
    | Bmc.Cex (cex, _) -> ("cex", cex.Bmc.cex_depth)
    | Bmc.Bounded_proof st -> ("bounded_proof", st.Bmc.depth_reached)
    | Bmc.Unknown (r, st) ->
        ("unknown:" ^ Bmc.unknown_reason_to_string r, st.Bmc.depth_reached)
  in
  Json.Obj
    [
      ("verdict", Json.Str verdict);
      ("depth", Json.Int depth);
      ("wall_s", Json.Float wall);
      ("stats", Autocc.Report.json_of_bmc_stats stats);
    ]

let line () = print_endline (String.make 100 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

type outcome_row = {
  id : string;
  description : string;
  paper : string; (* paper's depth/time *)
  depth : int option; (* measured CEX depth in cycles, None for proof *)
  proof_depth : int option;
  seconds : float;
  detail : string;
}

let pp_row r =
  let result =
    match (r.depth, r.proof_depth) with
    | Some d, _ -> Printf.sprintf "CEX depth %d" d
    | None, Some d -> Printf.sprintf "proof to %d" d
    | None, None -> "-"
  in
  Printf.printf "%-4s %-44s %-22s %-16s %8.2fs  %s\n" r.id r.description r.paper
    result r.seconds r.detail

let run_ft id description paper ft ~max_depth =
  let t0 = Unix.gettimeofday () in
  match Autocc.Ft.check ~max_depth ft with
  | Bmc.Cex (cex, _) ->
      {
        id;
        description;
        paper;
        depth = Some (cex.Bmc.cex_depth + 1);
        proof_depth = None;
        seconds = Unix.gettimeofday () -. t0;
        detail = Autocc.Report.summary ft cex;
      }
  | Bmc.Bounded_proof stats ->
      {
        id;
        description;
        paper;
        depth = None;
        proof_depth = Some (stats.Bmc.depth_reached + 1);
        seconds = Unix.gettimeofday () -. t0;
        detail = "";
      }
  | Bmc.Unknown (reason, _) ->
      {
        id;
        description;
        paper;
        depth = None;
        proof_depth = None;
        seconds = Unix.gettimeofday () -. t0;
        detail = "unknown (" ^ Bmc.unknown_reason_to_string reason ^ ")";
      }

(* {1 Table 1: valuable CEXs across the four DUTs} *)

let maple_ft ?(require_outbuf_empty = true) config =
  Autocc.Ft.generate ~threshold:2
    ~flush_done:(M.flush_done ~require_outbuf_empty ())
    (M.create ~config ())

let cva6_ft config =
  Autocc.Ft.generate ~threshold:2 ~flush_done:(C.flush_done ())
    (C.create ~config ())

let table1 () =
  header
    "Table 1 — CEXs uncovering hardware bugs / covert channels (paper depth & runtime vs measured)";
  let vscale = V.create () in
  let rows =
    [
      run_ft "V5" "Vscale: pending interrupt stalls spy pipeline"
        "depth 9, <10 min"
        (V.ft_for_stage V.Arch_pipeline vscale)
        ~max_depth:8;
      run_ft "C1" "CVA6: leaks invalid I-cache data to next PC"
        "depth 76, <30 min"
        (cva6_ft (C.with_fixes ~fix_c1:false C.Microreset))
        ~max_depth:15;
      run_ft "C2" "CVA6: wrong transition in the PTW FSM" "depth 80, <6 h"
        (cva6_ft (C.with_fixes ~fix_c2:false C.Microreset))
        ~max_depth:11;
      run_ft "C3" "CVA6: valid D$ line after flush (in-flight fill)"
        "depth 80, <6 h"
        (cva6_ft (C.with_fixes ~fix_c3:false C.Microreset))
        ~max_depth:11;
      run_ft "M2" "MAPLE: leak whether the TLB was disabled"
        "depth 21, <30 min"
        (maple_ft { M.fix_m2 = false; fix_m3 = true })
        ~max_depth:10;
      run_ft "M3" "MAPLE: leak the array base-address register"
        "depth 23, <3 h"
        (maple_ft { M.fix_m2 = true; fix_m3 = false })
        ~max_depth:10;
      run_ft "A1" "AES: request in the pipeline during the switch"
        "depth 42, <1 min"
        (Autocc.Ft.generate ~threshold:2 (A.create ()))
        ~max_depth:12;
    ]
  in
  List.iter pp_row rows;
  print_newline ();
  (* The extra CVA6 findings of Sec. 4.2: the three fence.t adaptations
     of increasing exhaustiveness. The plain fence leaves caches, TLB and
     branch predictor as classic channels; the full flush still leaks via
     in-flight state (outstanding AXI transactions, PTW activity). *)
  pp_row
    (run_ft "--" "CVA6 plain fence.t: predictor/cache channels"
       "(motivates fence.t)" (cva6_ft C.plain_fence) ~max_depth:10);
  pp_row
    (run_ft "--" "CVA6 full-flush fence.t: outstanding AXI/KILL_MISS"
       "(validated prior work)" (cva6_ft C.full_flush) ~max_depth:10);
  (* M1 from Sec. 4.3: requests parked in the NoC output buffer. *)
  pp_row
    (run_ft "M1" "MAPLE: requests in NoC output buffer at switch"
       "(refined by assumption)"
       (maple_ft ~require_outbuf_empty:false M.fixed)
       ~max_depth:10)

(* {1 Table 2: every CEX on Vscale, in refinement order} *)

let table2 () =
  header "Table 2 — Vscale refinement walk (every CEX from the default FT, in order)";
  let paper_ref = function
    | V.Default -> "V1: depth 6, <10 s"
    | V.Arch_regfile -> "V2: depth 6, <10 s"
    | V.Blackbox_csr -> "V3: depth 7, <10 s"
    | V.Arch_pc -> "V4: depth 7, <10 s"
    | V.Arch_pipeline -> "V5: depth 9, <100 s"
    | V.Arch_irq -> "bounded proof (24 h)"
  in
  let dut = V.create () in
  List.iter
    (fun stage ->
      pp_row
        (run_ft "" (V.stage_name stage) (paper_ref stage)
           (V.ft_for_stage stage dut)
           ~max_depth:(match stage with V.Arch_irq -> 10 | _ -> 8)))
    V.stages

(* {1 The M3 system-level exploit (Sec. 4.3, Listing 2)} *)

let exploit () =
  header
    "Exploit — M3 covert channel at system level (paper: 0xdeadbeef in <6000 cycles; 0x0 after fix)";
  let secret = 0xdeadbeef in
  let r =
    Soc.Exploit.run
      ~config:{ M.fix_m2 = true; fix_m3 = false }
      ~secret ~iterations:8 ()
  in
  Printf.printf "vulnerable RTL : recovered 0x%08x in %5d cycles (%s)\n"
    r.Soc.Exploit.recovered r.Soc.Exploit.cycles
    (if r.Soc.Exploit.recovered = secret then "secret fully leaked" else "MISMATCH");
  let r' = Soc.Exploit.run ~config:M.fixed ~secret ~iterations:8 () in
  Printf.printf "fixed RTL      : recovered 0x%08x in %5d cycles (%s)\n"
    r'.Soc.Exploit.recovered r'.Soc.Exploit.cycles
    (if r'.Soc.Exploit.recovered = 0 then "channel closed" else "MISMATCH");
  (* A printed MISMATCH must also fail the run: CI consumes exit codes,
     not stdout. *)
  if r.Soc.Exploit.recovered <> secret || r'.Soc.Exploit.recovered <> 0 then begin
    print_endline "     exploit expectations FAILED";
    exit 1
  end

(* {1 AES full proof (Sec. 4.4)} *)

let aes_proof () =
  header
    "AES — full proof with the no-ongoing-requests condition (paper: full proof in <6 h)";
  let dut = A.create () in
  (* The deepest interesting execution is bounded by the pipeline depth
     plus the transfer period plus a margin; we check well past it. *)
  let bound = (2 * A.default_stages) + 6 in
  pp_row
    (run_ft "A" "AES, bounded check past the pipeline depth" "full proof, <6 h"
       (Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ()) dut)
       ~max_depth:bound);
  (* The genuine unbounded proof, by k-induction. *)
  let t0 = Unix.gettimeofday () in
  (match
     Autocc.Ft.prove ~max_depth:20
       (Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ()) dut)
   with
  | Bmc.Proved (k, _) ->
      Printf.printf
        "A    AES, k-induction%42s FULL PROOF k=%-3d %8.2fs  (holds at every depth)\n"
        "full proof, <6 h" k
        (Unix.gettimeofday () -. t0)
  | Bmc.Refuted _ ->
      print_endline "A    AES, k-induction: REFUTED (unexpected)";
      exit 1
  | Bmc.Unknown _ ->
      print_endline "A    AES, k-induction: unknown (unexpected)";
      exit 1);
  print_endline
    "     (MAPLE/CVA6 are not k-inductive without auxiliary invariants; their bounded\n      proofs above are the tool's verdict, as in the paper's other case studies.)"


(* {1 Fix validation (Sec. 4: re-running AutoCC after the RTL fixes)} *)

let fixes () =
  header "Fixes — RTL fixes eliminate the CEXs (paper Sec. 4: re-ran AutoCC, merged upstream)";
  let vscale = V.create () in
  List.iter pp_row
    [
      run_ft "V" "Vscale, full architectural refinement" "proof (depth 21 in 24 h)"
        (V.ft_for_stage V.Arch_irq vscale) ~max_depth:10;
      run_ft "C" "CVA6 microreset with C1+C2+C3 fixes" "no CEXs found"
        (cva6_ft C.microreset_fixed) ~max_depth:11;
      run_ft "M" "MAPLE with M2+M3 fixes (upstream commits)" "no CEXs found"
        (maple_ft M.fixed) ~max_depth:10;
      run_ft "A" "AES with idle-allocation discipline" "full proof"
        (Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ())
           (A.create ()))
        ~max_depth:14;
    ]

(* {1 FPV vs stress testing (the paper's "minutes instead of hours")} *)

let wide_leaky w =
  let open Rtl.Signal in
  let din = input "din" w in
  let capture = input "capture" 1 in
  let query = input "query" w in
  let stash = reg "stash" w in
  reg_set_next stash (mux2 capture din stash);
  Rtl.Circuit.create ~name:"wide_leaky" ~outputs:[ ("hit", query ==: stash) ] ()

let baseline () =
  header "Baseline — BMC vs constrained-random testing on a w-bit hidden-state channel";
  Printf.printf "%-8s %-28s %-50s\n" "width" "AutoCC (BMC)" "random two-universe testing";
  List.iter
    (fun w ->
      let dut = wide_leaky w in
      let t0 = Unix.gettimeofday () in
      let bmc =
        match Autocc.Ft.check ~max_depth:8 (Autocc.Ft.generate ~threshold:2 dut) with
        | Bmc.Cex (cex, _) ->
            Printf.sprintf "CEX depth %d in %.2fs" (cex.Bmc.cex_depth + 1)
              (Unix.gettimeofday () -. t0)
        | Bmc.Bounded_proof _ -> "missed!"
        | Bmc.Unknown (r, _) ->
            "unknown (" ^ Bmc.unknown_reason_to_string r ^ ")"
      in
      let r = Baseline.search ~max_trials:20_000 ~victim_cycles:10 ~spy_cycles:10 dut in
      let rnd =
        if r.Baseline.found then
          Printf.sprintf "found after %d trials (%d cycles, %.2fs)" r.Baseline.trials
            r.Baseline.sim_cycles r.Baseline.seconds
        else
          Printf.sprintf "NOT FOUND in %d trials (%d cycles, %.2fs)" r.Baseline.trials
            r.Baseline.sim_cycles r.Baseline.seconds
      in
      Printf.printf "%-8d %-28s %-50s\n" w bmc rnd)
    [ 4; 8; 12; 16; 20 ];
  Printf.printf
    "\nBMC cost is flat in the channel width; random testing scales as 2^w — the\n\
     crossover is the paper's motivation for formal search.\n"

(* {1 The Sec. 5 discussion: hardware vs software protections on a
   data-dependent-latency divider} *)

let divider () =
  header
    "Divider — Sec. 5 tradeoffs: close the channel in hardware or restrict the software";
  List.iter pp_row
    [
      run_ft "D1" "shared divider, default FT" "the flagged channel"
        (Autocc.Ft.generate ~threshold:2 (Duts.Divider.create ()))
        ~max_depth:12;
      run_ft "D2" "OS allocates only when idle" "hardware-side closure"
        (Autocc.Ft.generate ~threshold:2
           ~flush_done:(Duts.Divider.flush_done_idle ())
           (Duts.Divider.create ()))
        ~max_depth:12;
      run_ft "D3" "constant-time software (env. assumption)"
        "software-side closure"
        (Autocc.Ft.generate ~threshold:2
           ~assumes:Duts.Divider.constant_time_software
           (Duts.Divider.create ()))
        ~max_depth:12;
    ];
  (* The PPA cost of the hardware alternative: padded worst-case latency. *)
  let measure constant_latency =
    let sim = Sim.create (Duts.Divider.create ~constant_latency ()) in
    let latency dividend divisor =
      Sim.set_input_int sim "start" 1;
      Sim.set_input_int sim "dividend" dividend;
      Sim.set_input_int sim "divisor" divisor;
      Sim.step sim;
      Sim.set_input_int sim "start" 0;
      let n = ref 1 in
      while Sim.out_int sim "done_valid" = 0 && !n < 40 do
        Sim.step sim;
        incr n
      done;
      Sim.step sim;
      !n
    in
    (latency 3 2, latency 15 1)
  in
  let fast, slow = measure false in
  let cfast, cslow = measure true in
  Printf.printf
    "     PPA note: variable-latency divides take %d..%d cycles; the constant-latency\n\
    \     variant always takes %d (%d) — the performance price of the hardware fix.\n"
    fast slow cfast cslow

(* {1 Flush-latency channel (Sec. 3.2, "Measuring Context Switch
   Latency")} *)

let latency () =
  header
    "Flush latency — sync at flush start exposes Trojan-modulated flush latency (Sec. 3.2)";
  let dut pad = M.create ~config:M.fixed ~pad_flush:pad () in
  List.iter pp_row
    [
      run_ft "L1" "MAPLE fixed, sync at flush end" "blind spot by design"
        (Autocc.Ft.generate ~threshold:2
           ~flush_done:(M.flush_done ~require_outbuf_empty:true ())
           (dut false))
        ~max_depth:12;
      run_ft "L2" "MAPLE fixed, sync at flush start" "latency channel"
        (Autocc.Ft.generate ~threshold:2 ~sync:Autocc.Ft.Flush_start
           ~flush_done:(M.flush_start ~require_outbuf_empty:true ())
           (dut false))
        ~max_depth:12;
      run_ft "L3" "MAPLE fixed + worst-case padding, start sync"
        "microreset-style fix"
        (Autocc.Ft.generate ~threshold:2 ~sync:Autocc.Ft.Flush_start
           ~flush_done:(M.flush_start ~require_outbuf_empty:true ())
           (dut true))
        ~max_depth:12;
    ]

(* {1 State-space scaling and modularity (Secs. 1 and 3.4)} *)

let scaling () =
  header
    "Scaling — FPV cost vs structure size, and the modularity/blackboxing remedy (Sec. 3.4)";
  Printf.printf "%-30s %-12s %-30s
" "configuration" "state bits" "microreset proof (depth 11)";
  let proof ?blackbox params =
    let dut = Duts.Cva6lite.create ~config:C.microreset_fixed ~params () in
    let ft =
      Autocc.Ft.generate ~threshold:2 ?blackbox ~flush_done:(C.flush_done ()) dut
    in
    let t0 = Unix.gettimeofday () in
    match Autocc.Ft.check ~max_depth:10 ft with
    | Bmc.Bounded_proof stats ->
        ( Rtl.Circuit.state_bits ft.Autocc.Ft.dut,
          Printf.sprintf "%.2fs (%d conflicts)" (Unix.gettimeofday () -. t0)
            stats.Bmc.conflicts )
    | Bmc.Cex (cex, _) ->
        (Rtl.Circuit.state_bits ft.Autocc.Ft.dut,
         Printf.sprintf "CEX at %d (unexpected)" cex.Bmc.cex_depth)
    | Bmc.Unknown (r, _) ->
        ( Rtl.Circuit.state_bits ft.Autocc.Ft.dut,
          Printf.sprintf "unknown (%s, unexpected)"
            (Bmc.unknown_reason_to_string r) )
  in
  List.iter
    (fun n ->
      let params = { Duts.Cva6lite.icache_lines = n; dcache_lines = n; btb_entries = n } in
      let bits, r = proof params in
      Printf.printf "%-30s %-12d %-30s
" (Printf.sprintf "CVA6, %d-entry structures" n) bits r)
    [ 2; 4; 8 ];
  let bits, r =
    proof ~blackbox:[ "lsu" ]
      { Duts.Cva6lite.icache_lines = 8; dcache_lines = 8; btb_entries = 8 }
  in
  Printf.printf "%-30s %-12d %-30s
" "CVA6 8-entry, LSU blackboxed" bits r;
  Printf.printf
    "
State growth inflates solver cost (the exponential-search discussion of Sec. 1);
     cutting the load unit out (Sec. 3.4) removes its state and restores tractability,
     at the price of verifying the LSU separately.
"

(* {1 Flush synthesis (Sec. 3.5, Algorithms 1 and 2)} *)

let tdd_engine () =
  let open Rtl.Signal in
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

let flush_tdd () =
  header "Flush synthesis — Algorithms 1 (incremental) and 2 (decremental)";
  let t0 = Unix.gettimeofday () in
  let r1 =
    Autocc.Synthesis.incremental ~max_depth:10 ~threshold:2
      ~candidates:[ "stash"; "mode"; "heartbeat" ]
      (tdd_engine ())
  in
  Printf.printf "Algorithm 1: flush set {%s} in %d FPV runs (%.2fs), proved=%b\n"
    (String.concat ", " r1.Autocc.Synthesis.flush_set)
    (List.length r1.Autocc.Synthesis.steps)
    (Unix.gettimeofday () -. t0)
    r1.Autocc.Synthesis.proved;
  let t0 = Unix.gettimeofday () in
  let r2 =
    Autocc.Synthesis.decremental ~max_depth:10 ~threshold:2
      ~candidates:[ "heartbeat"; "stash"; "mode" ]
      (tdd_engine ())
  in
  Printf.printf "Algorithm 2: minimal flush set {%s} in %d FPV runs (%.2fs), proved=%b\n"
    (String.concat ", " r2.Autocc.Synthesis.flush_set)
    (List.length r2.Autocc.Synthesis.steps)
    (Unix.gettimeofday () -. t0)
    r2.Autocc.Synthesis.proved

(* {1 Parallel engine: sequential vs sharded/portfolio wall-clock} *)

let parallel_bench () =
  header
    "Parallel — sequential engine vs domain-sharded verification (same verdicts, wall-clock speedup)";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let jobs =
    match Sys.getenv_opt "AUTOCC_JOBS" with
    | Some s -> ( try int_of_string s with _ -> Parallel.default_jobs ())
    | None -> Parallel.default_jobs ()
  in
  Printf.printf "worker domains: %d (cores: %d; set AUTOCC_JOBS to override)\n\n"
    jobs
    (Domain.recommended_domain_count ());
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st -> Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let mismatches = ref 0 in
  let json_rows = ref [] in
  let row id description ?portfolio ft ~max_depth =
    let t0 = Unix.gettimeofday () in
    let seq = Autocc.Ft.check ~max_depth ft in
    let seq_t = Unix.gettimeofday () -. t0 in
    let t0 = Unix.gettimeofday () in
    let par, detail = Autocc.Ft.check_detailed ~max_depth ~jobs ?portfolio ft in
    let par_t = Unix.gettimeofday () -. t0 in
    (* The acceptance bar: identical outcome kind, CEX depth and (for
       sharding, which re-validates on the full property) a failing set
       that the sequential engine could also have reported. *)
    let agree =
      match (seq, par) with
      | Bmc.Cex (c1, _), Bmc.Cex (c2, _) -> c1.Bmc.cex_depth = c2.Bmc.cex_depth
      | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> true
      | _ -> false
    in
    if not agree then incr mismatches;
    Printf.printf "%-4s %-40s seq %-14s %7.2fs | par %-14s %7.2fs | %5.2fx%s\n" id
      description (describe seq) seq_t (describe par) par_t
      (seq_t /. Float.max 1e-9 par_t)
      (if agree then "" else "  MISMATCH");
    let merged = Autocc.Report.merge_stats detail in
    Printf.printf "     %s\n"
      (Format.asprintf "%a" Autocc.Report.pp_merged merged);
    json_rows :=
      Json.Obj
        [
          ("id", Json.Str id);
          ("description", Json.Str description);
          ( "portfolio",
            match portfolio with Some p -> Json.Int p | None -> Json.Null );
          ("max_depth", Json.Int max_depth);
          ("sequential", json_of_outcome seq ~wall:seq_t);
          ("parallel", json_of_outcome par ~wall:par_t);
          ("merged", Autocc.Report.json_of_merged merged);
          ("speedup", Json.Float (seq_t /. Float.max 1e-9 par_t));
          ("agree", Json.Bool agree);
        ]
      :: !json_rows
  in
  let vscale = V.create () in
  row "V5" "Vscale: pending-IRQ channel (Table 1 row)"
    (V.ft_for_stage V.Arch_pipeline vscale)
    ~max_depth:8;
  row "M3" "MAPLE: base-address leak"
    (maple_ft { M.fix_m2 = true; fix_m3 = false })
    ~max_depth:10;
  row "C0" "CVA6: microreset, all fixes (bounded proof)" (cva6_ft C.microreset_fixed)
    ~max_depth:11;
  row "A1" "AES: idle flush, portfolio of 4" ~portfolio:4
    (Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ()) (A.create ()))
    ~max_depth:12;
  print_newline ();
  Json.write ~path:"BENCH_parallel.json"
    (Json.Obj
       [
         ("bench", Json.Str "parallel");
         ("jobs", Json.Int jobs);
         ("rows", Json.List (List.rev !json_rows));
         ("mismatches", Json.Int !mismatches);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  if !mismatches = 0 then
    print_endline "     all parallel verdicts and CEX depths match the sequential engine"
  else begin
    Printf.printf "     %d MISMATCH(ES) between sequential and parallel runs\n" !mismatches;
    exit 1
  end

(* {1 Optimizer benchmark: -O0 vs -O2 end-to-end, identical verdicts} *)

(* The Table-1 row set shared by [opt_bench] and the [@bench-smoke]
   runtest hook. Thunks, so each run rebuilds the FT fresh. *)
let opt_rows () =
  let vscale = V.create () in
  [
    ( "V5",
      "Vscale: pending-IRQ channel",
      (fun () -> V.ft_for_stage V.Arch_pipeline vscale),
      8 );
    ( "C1",
      "CVA6: I-cache leak to next PC",
      (fun () -> cva6_ft (C.with_fixes ~fix_c1:false C.Microreset)),
      15 );
    ( "C2",
      "CVA6: wrong PTW FSM transition",
      (fun () -> cva6_ft (C.with_fixes ~fix_c2:false C.Microreset)),
      11 );
    ( "M2",
      "MAPLE: TLB-disabled leak",
      (fun () -> maple_ft { M.fix_m2 = false; fix_m3 = true }),
      10 );
    ( "M3",
      "MAPLE: base-address leak",
      (fun () -> maple_ft { M.fix_m2 = true; fix_m3 = false }),
      10 );
    ( "A1",
      "AES: request in pipeline at switch",
      (fun () -> Autocc.Ft.generate ~threshold:2 (A.create ())),
      12 );
    ( "C0",
      "CVA6: microreset, all fixes (bounded proof)",
      (fun () -> cva6_ft C.microreset_fixed),
      11 );
    (* Proof-heavy rows: deep unrollings dominated by solver time, where
       the netlist pipeline pays for itself many times over. *)
    ( "V",
      "Vscale: full arch refinement (deep proof)",
      (fun () -> V.ft_for_stage V.Arch_irq vscale),
      9 );
    ( "V3",
      "Vscale: CSR blackboxed (Table 2 stage)",
      (fun () -> V.ft_for_stage V.Blackbox_csr vscale),
      8 );
    ( "C0+",
      "CVA6: microreset proof, deeper bound",
      (fun () -> cva6_ft C.microreset_fixed),
      13 );
  ]

(* One row at both optimization levels; returns (json, agree, speedup). *)
let opt_row (id, description, mk_ft, max_depth) =
  let run opt =
    let ft = mk_ft () in
    let t0 = Unix.gettimeofday () in
    let outcome = Autocc.Ft.check ~max_depth ~opt ft in
    (outcome, Unix.gettimeofday () -. t0)
  in
  let o0, t0_s = run Opt.O0 in
  let o2, t2_s = run Opt.O2 in
  let agree =
    match (o0, o2) with
    | Bmc.Cex (c1, _), Bmc.Cex (c2, _) -> c1.Bmc.cex_depth = c2.Bmc.cex_depth
    | Bmc.Bounded_proof s1, Bmc.Bounded_proof s2 ->
        s1.Bmc.depth_reached = s2.Bmc.depth_reached
    | _ -> false
  in
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st -> Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let speedup = t0_s /. Float.max 1e-9 t2_s in
  Printf.printf "%-4s %-44s O0 %-14s %7.2fs | O2 %-14s %7.2fs | %5.2fx%s\n" id
    description (describe o0) t0_s (describe o2) t2_s speedup
    (if agree then "" else "  MISMATCH");
  let json =
    Json.Obj
      [
        ("id", Json.Str id);
        ("description", Json.Str description);
        ("max_depth", Json.Int max_depth);
        ("o0", json_of_outcome o0 ~wall:t0_s);
        ("o2", json_of_outcome o2 ~wall:t2_s);
        ("speedup", Json.Float speedup);
        ("agree", Json.Bool agree);
      ]
  in
  (json, agree, speedup)

let opt_bench () =
  header
    "Optimizer — end-to-end BMC at -O0 vs -O2 (identical verdicts and CEX depths, wall-clock speedup)";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let wanted =
    match Sys.getenv_opt "AUTOCC_BENCH_ROWS" with
    | None | Some "" -> List.map (fun (id, _, _, _) -> id) (opt_rows ())
    | Some s -> String.split_on_char ',' s
  in
  let results =
    List.map opt_row
      (List.filter (fun (id, _, _, _) -> List.mem id wanted) (opt_rows ()))
  in
  let mismatches = List.length (List.filter (fun (_, a, _) -> not a) results) in
  let fast = List.length (List.filter (fun (_, _, s) -> s >= 1.5) results) in
  print_newline ();
  Json.write ~path:"BENCH_opt.json"
    (Json.Obj
       [
         ("bench", Json.Str "opt");
         ("rows", Json.List (List.map (fun (j, _, _) -> j) results));
         ("mismatches", Json.Int mismatches);
         ("rows_speedup_ge_1_5", Json.Int fast);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  Printf.printf "     %d/%d rows at >= 1.5x speedup under -O2\n" fast
    (List.length results);
  if mismatches = 0 then
    print_endline "     all -O2 verdicts and CEX depths match -O0"
  else begin
    Printf.printf "     %d MISMATCH(ES) between -O0 and -O2 runs\n" mismatches;
    exit 1
  end

(* {1 Incremental-engine benchmark: persistent solver vs scratch re-blast} *)

(* The rows where depth unrolling dominates: the deep bounded proof V
   and a spread of CEX rows at varying depths run [Ft.check]; the C0+
   row runs [Bmc.check_each] — per-assertion bounded proofs in one
   shared solver session, against per-assertion scratch sweeps — which
   is where session reuse compounds (one unrolling serves every
   assertion). V and C0+ are the rows the [@incremental-smoke]
   validator gates at >= 1.5x. Both engines run at -O2, so the only
   variable is solver-session reuse. *)
let incremental_row_ids = [ "V5"; "M3"; "A1"; "C0"; "V"; "C0+" ]

(* Pairwise outcome agreement, shared by the [check] and [check_each]
   row runners. *)
let outcomes_agree scr inc =
  match (scr, inc) with
  | Bmc.Cex (c1, _), Bmc.Cex (c2, _) -> c1.Bmc.cex_depth = c2.Bmc.cex_depth
  | Bmc.Bounded_proof s1, Bmc.Bounded_proof s2 ->
      s1.Bmc.depth_reached = s2.Bmc.depth_reached
  | Bmc.Unknown (r1, _), Bmc.Unknown (r2, _) ->
      Bmc.unknown_reason_to_string r1 = Bmc.unknown_reason_to_string r2
  | _ -> false

let incremental_row ~force_mismatch (id, description, mk_ft, max_depth) =
  (* The shared -O2 front end (FT generation + instrument + netlist
     pipeline) runs ONCE, outside both timed intervals: the arms then
     differ only in solver-session reuse, so the walls measure solving,
     not re-optimization. [setup_s] is reported as its own field. *)
  let ft = mk_ft () in
  let su = Unix.gettimeofday () in
  let circuit, property, sym, _ =
    Bmc.preoptimize ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
      ft.Autocc.Ft.property
  in
  let setup_s = Unix.gettimeofday () -. su in
  let run incremental =
    let t0 = Unix.gettimeofday () in
    let outcome =
      Bmc.check ~max_depth ~incremental ~opt:Opt.O0 ~sym circuit property
    in
    (outcome, Unix.gettimeofday () -. t0)
  in
  let scr, scr_t = run false in
  let inc, inc_t = run true in
  let agree = (not force_mismatch) && outcomes_agree scr inc in
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st -> Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let speedup = scr_t /. Float.max 1e-9 inc_t in
  Printf.printf
    "%-4s %-44s scratch %-14s %7.2fs | incr %-14s %7.2fs | %5.2fx (setup %.2fs)%s\n"
    id description (describe scr) scr_t (describe inc) inc_t speedup setup_s
    (if agree then "" else "  MISMATCH");
  let json =
    Json.Obj
      [
        ("id", Json.Str id);
        ("description", Json.Str description);
        ("max_depth", Json.Int max_depth);
        ("setup_s", Json.Float setup_s);
        ("scratch", json_of_outcome scr ~wall:scr_t);
        ("incremental", json_of_outcome inc ~wall:inc_t);
        ("speedup", Json.Float speedup);
        ("agree", Json.Bool agree);
      ]
  in
  (json, agree, speedup)

(* The [check_each] row: per-assertion bounded proofs. The incremental
   engine serves every assertion from one solver session (one circuit
   optimization, one unrolling, per-assertion activation queries, proved
   facts shared); the scratch oracle runs one independent per-depth
   re-blasting sweep per assertion. The report aggregates the
   per-assertion outcomes: the row's verdict is [bounded_proof] only if
   every assertion reached the bound, a CEX on any assertion surfaces as
   [cex] at the shallowest depth, and the stats of the deepest-working
   assertion stand for the side (for the incremental side those are
   session totals, since the session's counters are cumulative). *)
let incremental_each_row ~force_mismatch (id, description, mk_ft, max_depth) =
  (* As in [incremental_row]: one shared -O2 setup outside the timed
     intervals, arms at -O0 on the preoptimized cone. *)
  let ft = mk_ft () in
  let su = Unix.gettimeofday () in
  let circuit, property, sym, _ =
    Bmc.preoptimize ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
      ft.Autocc.Ft.property
  in
  let setup_s = Unix.gettimeofday () -. su in
  let run incremental =
    let t0 = Unix.gettimeofday () in
    let rs =
      Bmc.check_each ~max_depth ~incremental ~opt:Opt.O0 ~sym circuit property
    in
    (rs, Unix.gettimeofday () -. t0)
  in
  let scr, scr_t = run false in
  let inc, inc_t = run true in
  let agree =
    (not force_mismatch)
    && List.length scr = List.length inc
    && List.for_all2
         (fun (n1, o1) (n2, o2) -> n1 = n2 && outcomes_agree o1 o2)
         scr inc
  in
  let aggregate rs =
    let worst =
      List.fold_left
        (fun acc (_, o) ->
          match (acc, o) with
          | (Bmc.Cex (c1, _) as a), Bmc.Cex (c2, _) ->
              if c2.Bmc.cex_depth < c1.Bmc.cex_depth then o else a
          | Bmc.Cex _, _ -> acc
          | _, Bmc.Cex _ -> o
          | (Bmc.Unknown _ as a), _ -> a
          | _, (Bmc.Unknown _ as u) -> u
          | Bmc.Bounded_proof _, (Bmc.Bounded_proof _ as b) -> b)
        (snd (List.hd rs))
        (List.tl rs)
    in
    worst
  in
  let describe rs =
    match aggregate rs with
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st ->
        Printf.sprintf "%d proofs to %d" (List.length rs)
          (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let speedup = scr_t /. Float.max 1e-9 inc_t in
  Printf.printf
    "%-4s %-44s scratch %-14s %7.2fs | incr %-14s %7.2fs | %5.2fx (setup %.2fs)%s\n"
    id description (describe scr) scr_t (describe inc) inc_t speedup setup_s
    (if agree then "" else "  MISMATCH");
  let json =
    Json.Obj
      [
        ("id", Json.Str id);
        ("description", Json.Str description);
        ("max_depth", Json.Int max_depth);
        ("setup_s", Json.Float setup_s);
        ("assertions", Json.Int (List.length scr));
        ("scratch", json_of_outcome (aggregate scr) ~wall:scr_t);
        ("incremental", json_of_outcome (aggregate inc) ~wall:inc_t);
        ("speedup", Json.Float speedup);
        ("agree", Json.Bool agree);
      ]
  in
  (json, agree, speedup)

let incremental_bench () =
  header
    "Incremental — persistent-solver BMC vs per-depth scratch re-blast (identical verdicts, cumulative-depth speedup)";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  (* Exit-code self-test knob: force every row to report disagreement so
     the test suite can assert the bench exits nonzero on mismatches
     without needing a genuinely broken engine. *)
  let force_mismatch = Sys.getenv_opt "AUTOCC_BENCH_FORCE_MISMATCH" <> None in
  (* AUTOCC_BENCH_ROWS=V5,M3 restricts the row set — used by the
     exit-code self-test so it doesn't pay for the deep-proof rows. *)
  let wanted =
    match Sys.getenv_opt "AUTOCC_BENCH_ROWS" with
    | None | Some "" -> incremental_row_ids
    | Some s -> String.split_on_char ',' s
  in
  let rows =
    List.filter (fun (id, _, _, _) -> List.mem id wanted) (opt_rows ())
  in
  let results =
    List.map
      (fun ((id, _, mk_ft, _) as row) ->
        if id = "C0+" then
          (* The deep-proof gate row runs the per-assertion sweep — the
             workload where one shared session replaces one scratch
             re-blasting sweep per assertion. *)
          incremental_each_row ~force_mismatch
            (id, "CVA6: microreset, per-assertion proofs", mk_ft, 13)
        else incremental_row ~force_mismatch row)
      rows
  in
  let mismatches = List.length (List.filter (fun (_, a, _) -> not a) results) in
  let fast = List.length (List.filter (fun (_, _, s) -> s >= 1.5) results) in
  print_newline ();
  (* Overridable so the forced-mismatch exit-code self-test doesn't
     clobber the real artifact the validator reads. *)
  let out =
    Option.value
      (Sys.getenv_opt "AUTOCC_BENCH_OUT")
      ~default:"BENCH_incremental.json"
  in
  Json.write ~path:out
    (Json.Obj
       [
         ("bench", Json.Str "incremental");
         ("rows", Json.List (List.map (fun (j, _, _) -> j) results));
         ("mismatches", Json.Int mismatches);
         ("rows_speedup_ge_1_5", Json.Int fast);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  Printf.printf "     %d/%d rows at >= 1.5x cumulative-depth speedup\n" fast
    (List.length results);
  if mismatches = 0 then
    print_endline
      "     all incremental verdicts and CEX depths match the scratch engine"
  else begin
    Printf.printf "     %d MISMATCH(ES) between incremental and scratch runs\n"
      mismatches;
    exit 1
  end

(* {1 Verdict-cache benchmark: cold solve vs warm on-disk replay} *)

(* Cold phase: a fresh store, every verdict solved and persisted. Warm
   phase: a NEW [Cache.create] over the same directory, so every hit
   rides the JSONL codec + integrity digest + CEX replay-revalidation
   path — exactly what a re-run campaign exercises — rather than the
   in-memory table. Verdicts must agree (kind, depth) row by row and
   every warm row must hit; either failure exits nonzero. *)
let cache_row_ids = [ "V5"; "M3"; "A1"; "C0" ]

let cache_bench () =
  header
    "Verdict cache — cold solve vs warm content-addressed replay (identical verdicts, on-disk round trip)";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let force_mismatch = Sys.getenv_opt "AUTOCC_BENCH_FORCE_MISMATCH" <> None in
  let wanted =
    match Sys.getenv_opt "AUTOCC_BENCH_ROWS" with
    | None | Some "" -> cache_row_ids
    | Some s -> String.split_on_char ',' s
  in
  let rows =
    List.filter (fun (id, _, _, _) -> List.mem id wanted) (opt_rows ())
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocc_bench_cache_%d" (Unix.getpid ()))
  in
  (* Fresh store: drop leftovers from a previous run under this pid. *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let run_all cache =
    List.map
      (fun (id, description, mk_ft, max_depth) ->
        let ft = mk_ft () in
        let t0 = Unix.gettimeofday () in
        let outcome = Autocc.Ft.check ~max_depth ~cache ft in
        (id, description, max_depth, outcome, Unix.gettimeofday () -. t0))
      rows
  in
  let cold_cache = Cache.create ~dir () in
  let cold = run_all cold_cache in
  let cold_stats = Cache.stats cold_cache in
  let warm_cache = Cache.create ~dir () in
  let warm = run_all warm_cache in
  let warm_stats = Cache.stats warm_cache in
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st ->
        Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let results =
    List.map2
      (fun (id, description, max_depth, c_out, c_t) (_, _, _, w_out, w_t) ->
        let agree = (not force_mismatch) && outcomes_agree c_out w_out in
        let speedup = c_t /. Float.max 1e-9 w_t in
        Printf.printf
          "%-4s %-44s cold %-14s %7.2fs | warm %-14s %7.2fs | %7.1fx%s\n" id
          description (describe c_out) c_t (describe w_out) w_t speedup
          (if agree then "" else "  MISMATCH");
        let json =
          Json.Obj
            [
              ("id", Json.Str id);
              ("description", Json.Str description);
              ("max_depth", Json.Int max_depth);
              ("cold", json_of_outcome c_out ~wall:c_t);
              ("warm", json_of_outcome w_out ~wall:w_t);
              ("speedup", Json.Float speedup);
              ("agree", Json.Bool agree);
            ]
        in
        (json, agree, c_t, w_t))
      cold warm
  in
  let mismatches =
    List.length (List.filter (fun (_, a, _, _) -> not a) results)
  in
  let cold_s = List.fold_left (fun acc (_, _, c, _) -> acc +. c) 0. results in
  let warm_s = List.fold_left (fun acc (_, _, _, w) -> acc +. w) 0. results in
  let speedup = cold_s /. Float.max 1e-9 warm_s in
  print_newline ();
  let json_of_stats (s : Cache.stats) =
    Json.Obj
      [
        ("hits", Json.Int s.Cache.hits);
        ("misses", Json.Int s.Cache.misses);
        ("stores", Json.Int s.Cache.stores);
        ("rejects", Json.Int s.Cache.rejects);
      ]
  in
  let out =
    Option.value (Sys.getenv_opt "AUTOCC_BENCH_OUT") ~default:"BENCH_cache.json"
  in
  Json.write ~path:out
    (Json.Obj
       [
         ("bench", Json.Str "cache");
         ("rows", Json.List (List.map (fun (j, _, _, _) -> j) results));
         ("mismatches", Json.Int mismatches);
         ("cold_s", Json.Float cold_s);
         ("warm_s", Json.Float warm_s);
         ("speedup", Json.Float speedup);
         ("cold_cache", json_of_stats cold_stats);
         ("warm_cache", json_of_stats warm_stats);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  Printf.printf
    "     cold %.2fs (%d stores) -> warm %.2fs (%d hits, %d rejects): %.1fx\n"
    cold_s cold_stats.Cache.stores warm_s warm_stats.Cache.hits
    warm_stats.Cache.rejects speedup;
  if mismatches = 0 && warm_stats.Cache.hits > 0 then
    print_endline "     all warm verdicts match the cold solve"
  else begin
    if warm_stats.Cache.hits = 0 then
      print_endline "     FAILURE: warm run produced zero cache hits";
    if mismatches > 0 then
      Printf.printf "     %d MISMATCH(ES) between cold and warm runs\n"
        mismatches;
    exit 1
  end

(* {1 Symmetric-blasting benchmark: mirrored template vs double blast} *)

(* End-to-end differential ([--no-symmetric] is the double-blast oracle)
   plus a template-construction micro-measure: the end-to-end walls are
   solver-dominated, so the second number times exactly the code the
   flag shortens — building the per-cycle transition-relation template
   on the -O2 cone, with and without the symmetric pairs (min-of-3). *)
let symmetric_row_ids = [ "V5"; "M3"; "A1"; "C0" ]

let symmetric_row ~force_mismatch (id, description, mk_ft, max_depth) =
  let run symmetric =
    let ft = mk_ft () in
    let t0 = Unix.gettimeofday () in
    let outcome = Autocc.Ft.check ~max_depth ~symmetric ft in
    (outcome, Unix.gettimeofday () -. t0)
  in
  let dbl, dbl_t = run false in
  let sym, sym_t = run true in
  let agree = (not force_mismatch) && outcomes_agree dbl sym in
  let ft = mk_ft () in
  let circuit, _, pairs, _ =
    Bmc.preoptimize ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
      ft.Autocc.Ft.property
  in
  let template_time sym_pairs =
    let best = ref infinity in
    for _ = 1 to 3 do
      let solver = Sat.Solver.create () in
      let b =
        Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym:sym_pairs solver circuit
      in
      (* Cycle 0 is encoded directly (identical in both arms, so kept
         outside the timed interval); cycle 1 builds and stamps the
         transition-relation template — the cost the flag shortens. *)
      Cnf.Blast.unroll_cycle b;
      let t0 = Unix.gettimeofday () in
      Cnf.Blast.unroll_cycle b;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let tpl_dbl = template_time [] in
  let tpl_sym = template_time pairs in
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st ->
        Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, _) ->
        Printf.sprintf "unknown (%s)" (Bmc.unknown_reason_to_string r)
  in
  let tpl_speedup = tpl_dbl /. Float.max 1e-9 tpl_sym in
  Printf.printf
    "%-4s %-44s 2x-blast %-14s %7.2fs | sym %-14s %7.2fs | template %5.2fx (%d pairs)%s\n"
    id description (describe dbl) dbl_t (describe sym) sym_t tpl_speedup
    (List.length pairs)
    (if agree then "" else "  MISMATCH");
  let json =
    Json.Obj
      [
        ("id", Json.Str id);
        ("description", Json.Str description);
        ("max_depth", Json.Int max_depth);
        ("sym_pairs", Json.Int (List.length pairs));
        ("double_blast", json_of_outcome dbl ~wall:dbl_t);
        ("symmetric", json_of_outcome sym ~wall:sym_t);
        ("template_double_s", Json.Float tpl_dbl);
        ("template_symmetric_s", Json.Float tpl_sym);
        ("template_speedup", Json.Float tpl_speedup);
        ("agree", Json.Bool agree);
      ]
  in
  (json, agree, tpl_speedup)

let symmetric_bench () =
  header
    "Symmetric blasting — mirrored two-universe template vs double blast (identical verdicts, template-build speedup)";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let force_mismatch = Sys.getenv_opt "AUTOCC_BENCH_FORCE_MISMATCH" <> None in
  let wanted =
    match Sys.getenv_opt "AUTOCC_BENCH_ROWS" with
    | None | Some "" -> symmetric_row_ids
    | Some s -> String.split_on_char ',' s
  in
  let rows =
    List.filter (fun (id, _, _, _) -> List.mem id wanted) (opt_rows ())
  in
  let results = List.map (symmetric_row ~force_mismatch) rows in
  let mismatches = List.length (List.filter (fun (_, a, _) -> not a) results) in
  let faster =
    List.length (List.filter (fun (_, _, s) -> s > 1.0) results)
  in
  print_newline ();
  let out =
    Option.value
      (Sys.getenv_opt "AUTOCC_BENCH_OUT")
      ~default:"BENCH_symmetric.json"
  in
  Json.write ~path:out
    (Json.Obj
       [
         ("bench", Json.Str "symmetric");
         ("rows", Json.List (List.map (fun (j, _, _) -> j) results));
         ("mismatches", Json.Int mismatches);
         ("rows_template_faster", Json.Int faster);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  Printf.printf "     %d/%d rows build the template faster symmetrically\n"
    faster (List.length results);
  if mismatches = 0 then
    print_endline
      "     all symmetric verdicts and CEX depths match the double-blast oracle"
  else begin
    Printf.printf "     %d MISMATCH(ES) between symmetric and double-blast runs\n"
      mismatches;
    exit 1
  end

(* One tiny Table-1 row (M3) end-to-end at both levels, then the
   telemetry overhead gates on V5 — seconds, not minutes. Wired into
   [dune runtest] via the [@bench-smoke] alias so every test run
   exercises the full generate-FT -> optimize -> blast -> solve ->
   replay path on a real DUT. *)
let smoke () =
  header "Bench smoke — one Table-1 row, -O0 vs -O2";
  let rows = opt_rows () in
  let row id = List.find (fun (id', _, _, _) -> id' = id) rows in
  let _, agree, _ = opt_row (row "M3") in
  if agree then print_endline "     smoke OK: verdict and CEX depth agree across -O0/-O2"
  else begin
    print_endline "     smoke FAILED: -O0 and -O2 disagree";
    exit 1
  end;
  (* Telemetry-overhead gate: V5 at -O2 with every telemetry face on
     (metrics + JSONL sink + trace writer) must stay within budget of
     the plain run. V5 takes ~0.3 s and its solver trajectory repeats
     exactly from run to run, so the ratio measures telemetry rather
     than search noise; `dune runtest` runs other actions beside it, so
     each config is still timed by the best of five runs. The bound is
     deliberately loose (the DESIGN.md budget of <= 2% applies to
     telemetry *disabled*, which the tier-1 runs already exercise —
     here we bound the *enabled* cost). *)
  let _, _, mk_ft, max_depth = row "V5" in
  let time_once () =
    let ft = mk_ft () in
    let t0 = Unix.gettimeofday () in
    ignore (Autocc.Ft.check ~max_depth ~opt:Opt.O2 ft);
    Unix.gettimeofday () -. t0
  in
  let best_of_five f = List.fold_left Float.min infinity (List.init 5 (fun _ -> f ())) in
  let plain = best_of_five time_once in
  let trace_path = Filename.temp_file "autocc_smoke" ".trace.json" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.set_log_sink (Some (fun _ -> ()));
  Obs.trace_to_file trace_path;
  let instrumented = best_of_five time_once in
  Obs.shutdown ();
  (try Sys.remove trace_path with Sys_error _ -> ());
  let ratio = instrumented /. Float.max 1e-9 plain in
  Printf.printf "     telemetry overhead: plain %.3fs, instrumented %.3fs (%.2fx)\n"
    plain instrumented ratio;
  if ratio > 1.25 then begin
    print_endline "     smoke FAILED: telemetry-enabled overhead above 1.25x budget";
    exit 1
  end
  else print_endline "     smoke OK: telemetry overhead within budget";
  (* Same gate for the event bus: metrics plus a live bus with a JSONL
     file sink (the `campaign --out` configuration) — every depth, CEX,
     job and cache event stamped, ring-buffered and flushed to disk —
     must also stay within 1.25x of the plain run. *)
  let events_path = Filename.temp_file "autocc_smoke" ".events.jsonl" in
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.Bus.attach ~file:events_path ();
  let bus_on = best_of_five time_once in
  Obs.shutdown ();
  (try Sys.remove events_path with Sys_error _ -> ());
  let bus_ratio = bus_on /. Float.max 1e-9 plain in
  Printf.printf
    "     event-bus overhead: plain %.3fs, bus+file sink %.3fs (%.2fx)\n" plain
    bus_on bus_ratio;
  if bus_ratio > 1.25 then begin
    print_endline "     smoke FAILED: event-bus-enabled overhead above 1.25x budget";
    exit 1
  end
  else print_endline "     smoke OK: event-bus overhead within budget"

(* {1 Campaign: per-assertion sweep + provenance/clustering over the
   Table-1 row set, one JSON artifact per deduplicated channel} *)

let campaign_bench () =
  header
    "Campaign — per-assertion CEX sweep, sliced/minimized/clustered into distinct channels";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let vscale = V.create () in
  let entries =
    [
      {
        Explain.Campaign.e_label = "vscale_arch_pipeline";
        e_dut = "vscale";
        e_ft = (fun () -> V.ft_for_stage V.Arch_pipeline vscale);
        e_max_depth = 8;
      };
      {
        Explain.Campaign.e_label = "maple_m3";
        e_dut = "maple";
        e_ft = (fun () -> maple_ft { M.fix_m2 = true; fix_m3 = false });
        e_max_depth = 10;
      };
      {
        Explain.Campaign.e_label = "divider";
        e_dut = "divider";
        e_ft =
          (fun () -> Autocc.Ft.generate ~threshold:2 (Duts.Divider.create ()));
        e_max_depth = 12;
      };
      {
        Explain.Campaign.e_label = "maple_fixed";
        e_dut = "maple";
        e_ft = (fun () -> maple_ft M.fixed);
        e_max_depth = 8;
      };
    ]
  in
  let t0 = Unix.gettimeofday () in
  let result = Explain.Campaign.run ~opt:Opt.O2 ~out_dir:"autocc_campaign" entries in
  Explain.Campaign.pp Format.std_formatter result;
  Printf.printf "\n     %d artifacts under autocc_campaign/ in %.2fs\n"
    (List.length result.Explain.Campaign.c_artifacts)
    (Unix.gettimeofday () -. t0);
  (* The acceptance bar: CEX-bearing entries must dedupe into at least
     one channel each, every minimized witness already replay-verified
     by Explain.minimize; the fixed row must report zero channels. *)
  let failures = ref 0 in
  List.iter
    (fun r ->
      let n = List.length r.Explain.Campaign.r_channels in
      let expect_channels = r.Explain.Campaign.r_label <> "maple_fixed" in
      if expect_channels && n = 0 then begin
        Printf.printf "     FAILED: %s found no channel\n" r.Explain.Campaign.r_label;
        incr failures
      end;
      if (not expect_channels) && n > 0 then begin
        Printf.printf "     FAILED: %s reported %d channel(s) on fixed RTL\n"
          r.Explain.Campaign.r_label n;
        incr failures
      end;
      if r.Explain.Campaign.r_raw_cexs < n then begin
        Printf.printf "     FAILED: %s has more channels than raw CEXs\n"
          r.Explain.Campaign.r_label;
        incr failures
      end)
    result.Explain.Campaign.c_results;
  Json.write ~path:"BENCH_campaign.json"
    (Json.Obj
       [
         ("bench", Json.Str "campaign");
         ("campaign", Explain.Campaign.json_of_campaign result);
         ("failures", Json.Int !failures);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  if !failures = 0 then
    print_endline "     all entries clustered as expected (fixed RTL: no channels)"
  else begin
    Printf.printf "     %d FAILURE(S) in campaign expectations\n" !failures;
    exit 1
  end

(* {1 Robustness: budget-forced Unknown verdicts, retry accounting, and
   the unbudgeted rerun completing with the reference verdict} *)

let robustness_bench () =
  header
    "Robustness — budgets only downgrade verdicts to Unknown; retries are accounted; the unbudgeted run completes";
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let mk_ft () = maple_ft { M.fix_m2 = true; fix_m3 = false } in
  let max_depth = 10 in
  let describe = function
    | Bmc.Cex (cex, _) -> Printf.sprintf "CEX depth %d" (cex.Bmc.cex_depth + 1)
    | Bmc.Bounded_proof st ->
        Printf.sprintf "proof to %d" (st.Bmc.depth_reached + 1)
    | Bmc.Unknown (r, st) ->
        Printf.sprintf "unknown (%s), clean to %d"
          (Bmc.unknown_reason_to_string r)
          (st.Bmc.depth_reached + 1)
  in
  let failures = ref 0 in
  (* A deadline already in the past when the first solve starts:
     deterministically Unknown on any machine, no matter how fast. *)
  let tiny = Bmc.budget ~wall_s:1e-6 () in
  let retry =
    Retry.policy ~max_attempts:3 ~backoff_base_s:0.001 ~backoff_cap_s:0.002 ()
  in
  let t0 = Unix.gettimeofday () in
  let budgeted, detail =
    Autocc.Ft.check_detailed ~max_depth ~jobs:2 ~budget:tiny ~retry (mk_ft ())
  in
  let budget_t = Unix.gettimeofday () -. t0 in
  let merged = Autocc.Report.merge_stats detail in
  Printf.printf
    "tiny budget : %-36s %6.2fs  (%d unknown, %d timeouts, %d retries)\n"
    (describe budgeted) budget_t merged.Autocc.Report.m_unknown
    merged.Autocc.Report.m_timeout merged.Autocc.Report.m_retries;
  let t0 = Unix.gettimeofday () in
  let full = Autocc.Ft.check ~max_depth (mk_ft ()) in
  let full_t = Unix.gettimeofday () -. t0 in
  Printf.printf "no budget   : %-36s %6.2fs\n" (describe full) full_t;
  (* The soundness bar: exhaustion may only downgrade to Unknown — a
     conclusive verdict under the expired budget must equal the
     reference one. *)
  (match (budgeted, full) with
  | Bmc.Unknown _, _ -> ()
  | Bmc.Cex (c1, _), Bmc.Cex (c2, _) when c1.Bmc.cex_depth = c2.Bmc.cex_depth
    ->
      ()
  | Bmc.Bounded_proof _, Bmc.Bounded_proof _ -> ()
  | _ ->
      print_endline "     FAILED: the budget changed the verdict";
      incr failures);
  (match full with
  | Bmc.Unknown _ ->
      print_endline "     FAILED: the unbudgeted run did not complete";
      incr failures
  | _ -> ());
  if merged.Autocc.Report.m_unknown > 0 && merged.Autocc.Report.m_retries = 0
  then begin
    print_endline "     FAILED: Unknown jobs recorded no retry attempts";
    incr failures
  end;
  Json.write ~path:"BENCH_robustness.json"
    (Json.Obj
       [
         ("bench", Json.Str "robustness");
         ("max_depth", Json.Int max_depth);
         ("budgeted", json_of_outcome budgeted ~wall:budget_t);
         ("unbudgeted", json_of_outcome full ~wall:full_t);
         ("merged", Autocc.Report.json_of_merged merged);
         ("unknown", Json.Int merged.Autocc.Report.m_unknown);
         ("timeouts", Json.Int merged.Autocc.Report.m_timeout);
         ("retries", Json.Int merged.Autocc.Report.m_retries);
         ("failures", Json.Int !failures);
         ("telemetry", Obs.Metrics.json_of_snapshot ());
       ]);
  if !failures = 0 then
    print_endline
      "     budgets only downgraded verdicts to Unknown; retries accounted; reference run conclusive"
  else begin
    Printf.printf "     %d FAILURE(S) in robustness expectations\n" !failures;
    exit 1
  end

(* {1 Bechamel micro-benchmarks: one Test.make per table} *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  (* Representative kernels, one per table/experiment, small enough to
     repeat: each runs a complete generate-FT + BMC cycle. *)
  let t_table1 =
    Test.make ~name:"table1/maple_m3_cex"
      (Staged.stage (fun () ->
           ignore
             (Autocc.Ft.check ~max_depth:8
                (maple_ft { M.fix_m2 = true; fix_m3 = false }))))
  in
  let t_table2 =
    Test.make ~name:"table2/vscale_default_cex"
      (Staged.stage (fun () ->
           let dut = V.create () in
           ignore (Autocc.Ft.check ~max_depth:6 (V.ft_for_stage V.Default dut))))
  in
  let t_exploit =
    Test.make ~name:"exploit/m3_full_recovery"
      (Staged.stage (fun () ->
           ignore
             (Soc.Exploit.run
                ~config:{ M.fix_m2 = true; fix_m3 = false }
                ~secret:0xdeadbeef ~iterations:8 ())))
  in
  let t_aes =
    Test.make ~name:"aes_proof/idle_flush_proof"
      (Staged.stage (fun () ->
           ignore
             (Autocc.Ft.check ~max_depth:12
                (Autocc.Ft.generate ~threshold:2
                   ~flush_done:(A.flush_done_idle ())
                   (A.create ())))))
  in
  let t_fixes =
    Test.make ~name:"fixes/maple_fixed_proof"
      (Staged.stage (fun () -> ignore (Autocc.Ft.check ~max_depth:8 (maple_ft M.fixed))))
  in
  let t_baseline =
    Test.make ~name:"baseline/random_500_trials"
      (Staged.stage (fun () ->
           ignore (Baseline.search ~max_trials:500 (wide_leaky 16))))
  in
  let tests =
    Test.make_grouped ~name:"autocc"
      [ t_table1; t_table2; t_exploit; t_aes; t_fixes; t_baseline ]
  in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 3.0) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  header "Bechamel micro-benchmarks (monotonic clock per run)";
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (t :: _) -> Printf.printf "%-40s %12.3f ms/run\n" name (t /. 1e6)
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows)

(* {1 bench diff — perf-regression gate over two BENCH_*.json files}

   [bench diff BASELINE FRESH] re-reads two machine-readable result
   files (same subcommand, two commits/runs), matches their rows by
   "id", and gates only the metrics whose regression is meaningful:
   time-like leaves (keys ending in [_s]: wall_s, solve_s, opt_time_s —
   lower is better) and [speedup] (higher is better). Everything else
   (conflicts, vars, depths) varies freely with the search trajectory
   and is provenance, not a gate. A row is regressed when the fresh
   value is worse by more than a noise ratio (AUTOCC_DIFF_RATIO, default
   1.5x) AND by more than an absolute floor (AUTOCC_DIFF_FLOOR_S,
   default 0.02s) — the floor keeps microsecond rows from tripping the
   ratio on scheduler noise. A baseline row missing from the fresh file
   is a regression (a silently dropped benchmark is worse than a slow
   one); a fresh row missing from the baseline is informational. Exits 1
   on any regression. *)

let diff_read path =
  let ic =
    try open_in_bin path
    with Sys_error e -> failwith (Printf.sprintf "bench diff: %s" e)
  in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "bench diff: %s: %s" path e)

let diff_rows j =
  match Json.member "rows" j with
  | Some (Json.List rows) ->
      List.filter_map
        (fun r ->
          match Json.member "id" r with
          | Some (Json.Str id) -> Some (id, r)
          | _ -> None)
        rows
  | _ -> []

(* The leaf flattening ("o2.stats.solve_s" -> 0.319), the
   suffix-directed gate, and the ratio+floor regression predicate are
   Obs.Numdiff — shared verbatim with [autocc diff-runs], so the two
   gates can never drift apart. *)

let diff_bench base_path fresh_path =
  header "Bench diff — perf-regression gate";
  let ratio, floor_s = Obs.Numdiff.thresholds () in
  let base = diff_read base_path and fresh = diff_read fresh_path in
  let bench_of j =
    match Json.member "bench" j with Some (Json.Str s) -> s | _ -> "?"
  in
  Printf.printf "     baseline: %s (%s)\n" base_path (bench_of base);
  Printf.printf "     fresh   : %s (%s)\n" fresh_path (bench_of fresh);
  Printf.printf "     noise thresholds: ratio %.2fx, floor %.3fs\n\n" ratio
    floor_s;
  if bench_of base <> bench_of fresh then
    Printf.printf "     WARNING: comparing different benches (%s vs %s)\n\n"
      (bench_of base) (bench_of fresh);
  let base_rows = diff_rows base and fresh_rows = diff_rows fresh in
  let regressions = ref 0 in
  Printf.printf "     %-6s %-28s %10s %10s %7s  %s\n" "ROW" "METRIC" "BASE"
    "FRESH" "RATIO" "STATUS";
  List.iter
    (fun (id, brow) ->
      match List.assoc_opt id fresh_rows with
      | None ->
          incr regressions;
          Printf.printf "     %-6s %-28s %10s %10s %7s  %s\n" id "(row)" "-"
            "missing" "-" "REGRESSED"
      | Some frow ->
          let fleaves = Obs.Numdiff.leaves frow in
          List.iter
            (fun (key, bv) ->
              match Obs.Numdiff.gate key with
              | None -> ()
              | Some direction -> (
                  match List.assoc_opt key fleaves with
                  | None ->
                      incr regressions;
                      Printf.printf "     %-6s %-28s %10.3f %10s %7s  %s\n" id
                        key bv "missing" "-" "REGRESSED"
                  | Some fv ->
                      let regressed =
                        Obs.Numdiff.regressed direction ~ratio ~floor:floor_s
                          ~base:bv ~fresh:fv
                      in
                      if regressed then incr regressions;
                      (* Keep the table to the signal: regressions and
                         the headline wall_s rows. *)
                      if regressed
                         || direction = Obs.Numdiff.Higher_better
                         || String.length key < 12
                      then
                        Printf.printf "     %-6s %-28s %10.3f %10.3f %7.2f  %s\n"
                          id key bv fv
                          (fv /. Float.max 1e-9 bv)
                          (if regressed then "REGRESSED" else "ok")))
            (Obs.Numdiff.leaves brow))
    base_rows;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id base_rows) then
        Printf.printf "     %-6s %-28s %10s %10s %7s  %s\n" id "(row)" "absent"
          "new" "-" "new row")
    fresh_rows;
  print_newline ();
  if base_rows = [] then
    print_endline "     WARNING: baseline has no rows; nothing gated";
  if !regressions > 0 then begin
    Printf.printf "     bench diff FAILED: %d regression(s) beyond %.2fx+%.3fs\n"
      !regressions ratio floor_s;
    exit 1
  end
  else
    Printf.printf "     bench diff OK: %d rows within %.2fx+%.3fs of baseline\n"
      (List.length base_rows) ratio floor_s

(* {1 serve: latency/throughput of the crash-isolated service}

   Real daemon, real forked workers: one row per pool size over the
   bundled DUT set, plus a crash-storm row where every attempt-0 worker
   self-SIGKILLs via the "serve.worker" fault site and the service must
   converge through redelivery. Per row: makespan, per-job submit->done
   latency (mean/max), crash count, and a verdict check against the
   in-process one-shot engine. The *_s leaves ride the same
   Obs.Numdiff lower-is-better gate as every other artifact via
   `bench diff`. *)

let serve_exe () =
  match Sys.getenv_opt "AUTOCC_SERVE_EXE" with
  | Some p when p <> "" -> p
  | _ ->
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat "bin" "autocc_cli.exe"))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let serve_depth = 6

let serve_duts () =
  match Sys.getenv_opt "AUTOCC_BENCH_ROWS" with
  | None | Some "" -> [ "leaky"; "divider"; "maple"; "aes" ]
  | Some s -> String.split_on_char ',' s |> List.map String.trim

let serve_reference duts =
  List.map
    (fun name ->
      let dut = Duts.Bundled.build name in
      let ft = Duts.Bundled.ft_for ~threshold:2 name dut in
      let v, d =
        match Autocc.Ft.check ~max_depth:serve_depth ft with
        | Bmc.Cex (cex, _) -> ("cex", cex.Bmc.cex_depth)
        | Bmc.Bounded_proof st -> ("proof", st.Bmc.depth_reached)
        | Bmc.Unknown (r, st) ->
            ("unknown:" ^ Bmc.unknown_reason_to_string r, st.Bmc.depth_reached)
      in
      (name, (v, d)))
    duts

(* Same runtime seed search as the @serve-smoke validator: fault
   decisions are pure in (seed, site, n), so roll the worker's dice
   here and pick a seed where attempt 0 dies early and the reseeded
   attempts 1-2 survive a full solve. *)
let serve_storm_seed ~rate =
  let fires_within seed ~offset n =
    Fault.arm ~sites:[ "serve.worker" ] ~rate ~seed ();
    if offset > 0 then Fault.reseed ~offset;
    let fired = ref false in
    for _ = 1 to n do
      if Fault.fire "serve.worker" then fired := true
    done;
    !fired
  in
  let ok s =
    fires_within s ~offset:0 2
    && (not (fires_within s ~offset:1 12))
    && not (fires_within s ~offset:2 12)
  in
  let rec search s = if s > 100_000 then None else if ok s then Some s else search (s + 1) in
  let r = search 1 in
  Fault.disarm ();
  r

let serve_row ~name ~workers ~env ~cache duts reference =
  let dir = "bench_serve_" ^ name in
  rm_rf dir;
  let exe = serve_exe () in
  let args =
    [ exe; "serve"; "--dir"; dir; "--workers"; string_of_int workers; "--quiet" ]
    @ (match cache with Some c -> [ "--cache-dir"; c ] | None -> [ "--no-cache" ])
  in
  let full_env = Array.append (Unix.environment ()) (Array.of_list env) in
  let null_r = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_w = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env exe (Array.of_list args) full_env null_r null_w null_w
  in
  Unix.close null_r;
  Unix.close null_w;
  let deadline = Unix.gettimeofday () +. 10. in
  while
    (not (Serve.Client.ping ~dir)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.02
  done;
  let submit_t = Hashtbl.create 8 in
  List.iter
    (fun d ->
      let spec =
        { Serve.Machine.sp_dut = d; sp_engine = "check"; sp_depth = serve_depth;
          sp_threshold = 2 }
      in
      match Serve.Client.submit ~dir spec with
      | Ok id -> Hashtbl.replace submit_t id (d, Unix.gettimeofday ())
      | Error e -> failwith (Printf.sprintf "bench serve: submit %s: %s" d e))
    duts;
  let t0 = Unix.gettimeofday () in
  let done_t : (string, float * string * int * int) Hashtbl.t = Hashtbl.create 8 in
  let poll_deadline = t0 +. 300. in
  let rec poll () =
    if Hashtbl.length done_t >= List.length duts then ()
    else if Unix.gettimeofday () > poll_deadline then
      failwith "bench serve: jobs did not finish within 300s"
    else begin
      (match Serve.Client.status ~dir with
      | Error e -> failwith ("bench serve: status: " ^ e)
      | Ok resp -> (
          match Json.member "jobs" resp with
          | Some (Json.List rows) ->
              let now = Unix.gettimeofday () in
              List.iter
                (fun row ->
                  let str n =
                    match Json.member n row with Some (Json.Str s) -> s | _ -> ""
                  in
                  let int n =
                    match Json.member n row with Some (Json.Int i) -> i | _ -> 0
                  in
                  let id = str "id" in
                  match str "state" with
                  | ("done" | "quarantined") when not (Hashtbl.mem done_t id) ->
                      Hashtbl.replace done_t id
                        (now, str "verdict", int "depth", int "crashes")
                  | _ -> ())
                rows
          | _ -> ()));
      Unix.sleepf 0.02;
      poll ()
    end
  in
  poll ();
  let makespan = Unix.gettimeofday () -. t0 in
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "bench serve: daemon did not drain cleanly");
  let latencies, crashes, mismatches =
    Hashtbl.fold
      (fun id (t_done, verdict, depth, crashes) (ls, cs, ms) ->
        let dut, t_sub =
          match Hashtbl.find_opt submit_t id with
          | Some x -> x
          | None -> ("?", t_done)
        in
        let ms =
          match List.assoc_opt dut reference with
          | Some (rv, rd) when rv = verdict && rd = depth -> ms
          | Some _ | None -> ms + 1
        in
        ((t_done -. t_sub) :: ls, cs + crashes, ms))
      done_t ([], 0, 0)
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
  let lmax = List.fold_left max 0. latencies in
  Printf.printf
    "%-12s workers=%d  makespan %6.2fs  latency mean %5.2fs max %5.2fs  crashes %d%s\n%!"
    name workers makespan (mean latencies) lmax crashes
    (if mismatches > 0 then Printf.sprintf "  %d VERDICT MISMATCH(ES)" mismatches
     else "");
  ( mismatches,
    Json.Obj
      [
        ("id", Json.Str name);
        ("workers", Json.Int workers);
        ("jobs", Json.Int (List.length duts));
        ("makespan_s", Json.Float makespan);
        ("latency_mean_s", Json.Float (mean latencies));
        ("latency_max_s", Json.Float lmax);
        ("crashes", Json.Int crashes);
        ("mismatches", Json.Int mismatches);
      ] )

let serve_bench () =
  header
    "Service — submit->verdict latency and makespan per pool size, plus a crash storm";
  let duts = serve_duts () in
  let reference = serve_reference duts in
  let pool_sizes =
    match Sys.getenv_opt "AUTOCC_BENCH_WORKERS" with
    | None | Some "" -> [ 1; 2; 4 ]
    | Some s ->
        String.split_on_char ',' s |> List.map String.trim
        |> List.map int_of_string
  in
  let rows =
    List.map
      (fun w ->
        serve_row ~name:(Printf.sprintf "w%d" w) ~workers:w ~env:[] ~cache:None
          duts reference)
      pool_sizes
  in
  let storm =
    let rate = 0.05 in
    match serve_storm_seed ~rate with
    | None -> failwith "bench serve: no storm seed found"
    | Some seed ->
        serve_row ~name:"crash_storm" ~workers:2
          ~env:
            [ Printf.sprintf
                "AUTOCC_FAULT=seed=%d,rate=%g,sites=serve.worker;serve.lease"
                seed rate ]
          ~cache:None duts reference
  in
  let rows = rows @ [ storm ] in
  let mismatches = List.fold_left (fun n (m, _) -> n + m) 0 rows in
  let storm_crashes =
    match storm with
    | _, Json.Obj fields -> (
        match List.assoc_opt "crashes" fields with
        | Some (Json.Int c) -> c
        | _ -> 0)
    | _ -> 0
  in
  let failures =
    mismatches
    + (if storm_crashes = 0 then (
         print_endline "     FAILED: the crash storm injected no crashes";
         1)
       else 0)
  in
  let out =
    Option.value (Sys.getenv_opt "AUTOCC_BENCH_OUT") ~default:"BENCH_serve.json"
  in
  Json.write ~path:out
    (Json.Obj
       [
         ("bench", Json.Str "serve");
         ("max_depth", Json.Int serve_depth);
         ("duts", Json.List (List.map (fun d -> Json.Str d) duts));
         ("rows", Json.List (List.map snd rows));
         ("failures", Json.Int failures);
       ]);
  if failures = 0 then
    print_endline
      "     all service verdicts match the one-shot engine; the crash storm converged through redelivery"
  else begin
    Printf.printf "     %d FAILURE(S) in service expectations\n" failures;
    exit 1
  end

let all () =
  table2 ();
  table1 ();
  exploit ();
  aes_proof ();
  fixes ();
  baseline ();
  latency ();
  divider ();
  scaling ();
  flush_tdd ()

(* One run-ledger row per bench invocation (tool "bench", subject = the
   subcommand) when a ledger directory is resolvable from the
   environment — a single line-flushed append after the work, so the
   smoke overhead gates never see it.  Best-effort like the CLI's. *)
let ledger_record sub ~t0 ~cpu0 =
  match Obs.Ledger.resolve_dir () with
  | None -> ()
  | Some dir -> (
      try
        Obs.Ledger.append ~dir
          {
            Obs.Ledger.r_id = Obs.Ledger.run_id ();
            r_tool = "bench";
            r_subject = sub;
            r_config = "";
            r_dut_hash = "";
            r_ts = Unix.gettimeofday ();
            r_wall_s = Unix.gettimeofday () -. t0;
            r_cpu_s = Sys.time () -. cpu0;
            r_cache_hits = 0;
            r_cache_misses = 0;
            r_cache_stores = 0;
            r_asserts = [];
            r_artifacts = [];
          }
      with Sys_error _ -> ())

let () =
  let sub = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let t0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  (match sub with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "exploit" -> exploit ()
  | "aes_proof" -> aes_proof ()
  | "fixes" -> fixes ()
  | "baseline" -> baseline ()
  | "latency" -> latency ()
  | "divider" -> divider ()
  | "scaling" -> scaling ()
  | "flush_tdd" -> flush_tdd ()
  | "parallel" -> parallel_bench ()
  | "opt" -> opt_bench ()
  | "incremental" -> incremental_bench ()
  | "cache" -> cache_bench ()
  | "symmetric" -> symmetric_bench ()
  | "campaign" -> campaign_bench ()
  | "robustness" -> robustness_bench ()
  | "serve" -> serve_bench ()
  | "smoke" -> smoke ()
  | "diff" ->
      if Array.length Sys.argv < 4 then begin
        Printf.eprintf "usage: bench diff BASELINE.json FRESH.json\n";
        exit 1
      end;
      diff_bench Sys.argv.(2) Sys.argv.(3)
  | "bechamel" -> bechamel ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %s (try table1|table2|exploit|aes_proof|fixes|baseline|latency|flush_tdd|parallel|opt|incremental|cache|symmetric|campaign|robustness|serve|smoke|diff|bechamel|all)\n"
        other;
      exit 1);
  ledger_record sub ~t0 ~cpu0
