(* What every workload shares: the run context, the accumulator of one
   run's samples and checks, the product-path job runner in its three
   arms, and the metric computation. *)

module Json = Obs.Json

let ( // ) = Filename.concat
let now = Unix.gettimeofday

(* How one execution of a job is measured. [Plain] is the end-to-end
   measurement; [Traced] records benchmark spans around the calls into
   each layer (plus the measurements taken beside the job); [Telemetry]
   switches the program's own telemetry on through its public switches. *)
type mode = Plain | Traced | Telemetry

let mode_name = function
  | Plain -> "plain"
  | Traced -> "traced"
  | Telemetry -> "telemetry"

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  smoke : bool;
  scratch : string;  (** private directory of this run, removed at exit *)
  cli : string;  (** the autocc CLI binary, for [serve] *)
  force_mismatch : bool;
}

type metric = { value : float; unit_ : string; n : int }

type acc = {
  mutable latencies : (string * float) list;  (** job kind, seconds; plain arm *)
  mutable segments : (string * float) list;
      (** parts of a pass outside its jobs, e.g. a campaign's cache load *)
  mutable setups : float list list;  (** set-up slots, newest first: samples *)
  mutable arms : (string * mode * float) list;  (** traced runs: kind, arm, seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;
  mutable conflicts : (string * int) list;  (** job kind, sat conflicts *)
  counts : (string, float) Hashtbl.t;  (** per-layer counters; traced arm *)
  gauges : (string, float) Hashtbl.t;  (** per-layer values set once per run *)
  mutable passes : int;  (** passes completed in the timed phase *)
  mutable peak_rss_mb : float;
  mutable extra : (string * metric) list;  (** workload-specific metrics *)
}

let new_acc () =
  {
    latencies = [];
    segments = [];
    setups = [];
    arms = [];
    attempted = 0;
    failed = 0;
    mismatches = [];
    conflicts = [];
    counts = Hashtbl.create 16;
    gauges = Hashtbl.create 4;
    passes = 0;
    peak_rss_mb = nan;
    extra = [];
  }

let count acc name v =
  Hashtbl.replace acc.counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc.counts name))

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (path // e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A verdict is checked against its committed expectation. Unknown is a
   failed job (no verdict), not a wrong one; a flipped verdict or depth
   is a mismatch and fails the run. *)
let verify acc ctx ~kind ~expect:(ev, ed) (verdict, depth) =
  acc.attempted <- acc.attempted + 1;
  if String.starts_with ~prefix:"unknown" verdict then acc.failed <- acc.failed + 1
  else if ctx.force_mismatch || verdict <> ev || depth <> ed then
    acc.mismatches <-
      Printf.sprintf "%s: expected %s at depth %d, got %s at depth %d" kind ev
        ed verdict depth
      :: acc.mismatches

(* {1 Product-path jobs} *)

type outcome = {
  verdict : string;
  depth : int;
  stats : Bmc.stats;
  cex : Bmc.cex option;
}

let unknown r (st : Bmc.stats) =
  {
    verdict = "unknown:" ^ Bmc.unknown_reason_to_string r;
    depth = st.Bmc.depth_reached;
    stats = st;
    cex = None;
  }

let solve (job : Jobs.job) ft =
  match job.Jobs.engine with
  | Jobs.Check -> (
      match Autocc.Ft.check ~max_depth:job.Jobs.depth ft with
      | Bmc.Cex (c, st) ->
          { verdict = "cex"; depth = c.Bmc.cex_depth; stats = st; cex = Some c }
      | Bmc.Bounded_proof st ->
          { verdict = "proof"; depth = st.Bmc.depth_reached; stats = st; cex = None }
      | Bmc.Unknown (r, st) -> unknown r st)
  | Jobs.Prove -> (
      match Autocc.Ft.prove ~max_depth:job.Jobs.depth ft with
      | Bmc.Proved (k, st) -> { verdict = "proved"; depth = k; stats = st; cex = None }
      | Bmc.Refuted (c, st) ->
          { verdict = "refuted"; depth = c.Bmc.cex_depth; stats = st; cex = Some c }
      | Bmc.Unknown (r, st) -> unknown r st)

let opt_time (st : Bmc.stats) =
  match st.Bmc.opt with Some o -> o.Opt.o_time | None -> 0.

(* The parts of one engine call it reports itself: optimizer time from
   its [Opt.stats], solver time from its [solve_time]; the rest of the
   call is [bmc] self time. *)
let engine_split stats_list =
  let opt =
    List.fold_left (fun acc st -> Float.max acc (opt_time st)) 0. stats_list
  in
  [
    ("opt.optimize", opt);
    ("sat.solve", Stat.sum (List.map (fun st -> st.Bmc.solve_time) stats_list));
  ]

let count_opt acc (st : Bmc.stats) =
  match st.Bmc.opt with
  | None -> ()
  | Some o ->
      count acc "opt.nodes_removed"
        (float_of_int (o.Opt.o_nodes_before - o.Opt.o_nodes_after));
      count acc "opt.sweep_queries" (float_of_int o.Opt.o_sat_queries);
      count acc "opt.sweep_merged" (float_of_int o.Opt.o_sweep_merged)

let count_solver acc (st : Bmc.stats) =
  count acc "cnf.vars" (float_of_int st.Bmc.vars);
  count acc "cnf.clauses" (float_of_int st.Bmc.clauses);
  count acc "sat.conflicts" (float_of_int st.Bmc.conflicts);
  count acc "sat.propagations" (float_of_int st.Bmc.propagations)

(* Measured beside a traced job, outside its coverage: a fresh template
   unrolling of the job's optimized cone to its verdict depth, and a
   simulator replay of each counterexample it returned. *)
let beside (ft : Autocc.Ft.t) property ~depth cexs =
  let circuit, _, sym, _ =
    Bmc.preoptimize ~opt:Opt.O2 ~sym:ft.Autocc.Ft.sym ft.Autocc.Ft.wrapper
      property
  in
  Spans.span "cnf.unroll" (fun () ->
      let b =
        Cnf.Blast.create ~mode:Cnf.Blast.Template ~sym (Sat.Solver.create ())
          circuit
      in
      for _ = 0 to depth do
        Cnf.Blast.unroll_cycle b
      done);
  List.iter
    (fun (prop, c) ->
      ignore
        (Spans.span "sim.replay" (fun () ->
             Bmc.validate c.Bmc.cex_circuit prop c.Bmc.cex_inputs c.Bmc.cex_depth)))
    cexs

(* The program's telemetry, switched on through its public switches for
   the span of [f], and shut down (the trace written) before returning. *)
let with_program_telemetry ctx f =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  Obs.trace_to_file (ctx.scratch // "program.trace.json");
  Obs.Bus.attach ~file:(ctx.scratch // "program.events.jsonl") ();
  Fun.protect ~finally:Obs.shutdown f

let clear_program_telemetry ctx =
  List.iter
    (fun f -> try Sys.remove (ctx.scratch // f) with Sys_error _ -> ())
    [ "program.trace.json"; "program.events.jsonl" ]

(* Every timed execution starts from a collected heap, as a fresh
   process would, instead of paying for the previous one's garbage. *)
let timed f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One execution of a product-path job — the [Ft.check]/[Ft.prove] call
   [autocc analyze]/[prove] makes, on a freshly generated FT. Returns its
   outcome and wall seconds. *)
let run_job acc ctx (job : Jobs.job) mode =
  let o, secs =
    match mode with
    | Plain -> timed (fun () -> solve job (job.Jobs.ft ()))
    | Telemetry ->
        let r =
          timed (fun () ->
              with_program_telemetry ctx (fun () -> solve job (job.Jobs.ft ())))
        in
        clear_program_telemetry ctx;
        r
    | Traced ->
        Spans.on := true;
        Fun.protect ~finally:(fun () -> Spans.on := false) @@ fun () ->
        Spans.with_job job.Jobs.id @@ fun () ->
        let (ft, o), secs =
          timed (fun () ->
              Spans.span "job" (fun () ->
                  let ft = job.Jobs.ft () in
                  let o =
                    Spans.span
                      ~split:(fun o -> engine_split [ o.stats ])
                      (match job.Jobs.engine with
                      | Jobs.Check -> "bmc.check"
                      | Jobs.Prove -> "bmc.prove")
                      (fun () -> solve job ft)
                  in
                  (ft, o)))
        in
        let property = ft.Autocc.Ft.property in
        beside ft property ~depth:o.depth
          (List.map (fun c -> (property, c)) (Option.to_list o.cex));
        count_opt acc o.stats;
        count_solver acc o.stats;
        (o, secs)
  in
  verify acc ctx ~kind:job.Jobs.id ~expect:job.Jobs.expect (o.verdict, o.depth);
  acc.conflicts <- (job.Jobs.id, o.stats.Bmc.conflicts) :: acc.conflicts;
  (o, secs)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* In a traced run every unit of work runs [arm_reps] times per arm, in
   a mirrored order (a b c c b a) whose first arm rotates from one unit
   to the next: no arm always runs first, and a change in the host's
   speed across the unit weighs on every arm alike. Each arm is timed by
   its best run. *)
let arm_reps = 2

let arms_for ctx i =
  if not ctx.traced then [ Plain ]
  else
    let all = [| Plain; Traced; Telemetry |] in
    let once = List.init 3 (fun k -> all.((i + k) mod 3)) in
    once @ List.rev once

let record_arm acc kind mode secs =
  acc.arms <- (kind, mode, secs) :: acc.arms;
  if mode = Plain then acc.latencies <- (kind, secs) :: acc.latencies

(* The order of pass [i]: the committed order for the first pass, the
   one whose peak RSS is read, so that reading does not depend on the
   seed; a seeded shuffle for every later pass. *)
let pass_order rng i l = if i = 0 then l else shuffle rng l

(* One pass over a product-path job list. *)
let product_pass acc ctx rng i jobs =
  List.iteri
    (fun k job ->
      List.iter
        (fun mode ->
          let _, secs = run_job acc ctx job mode in
          record_arm acc job.Jobs.id mode secs)
        (arms_for ctx k))
    (pass_order rng i jobs)

(* How a workload sets up: [prepare] builds what its timed phase needs
   and [teardown] undoes it. A slot of set-up time is the median of
   [reps] samples. *)
type 'env setup = { reps : int; prepare : unit -> 'env; teardown : 'env -> unit }

(* One slot of set-up time; the last set-up is returned, not torn down.
   Most set-ups take microseconds to milliseconds, too short for one
   timer reading, so a sample repeats the set-up — its teardown in
   between, untimed — until [batch_s] of set-up time is spent, and is the
   mean. With [traced], spans are recorded on the first set-up of each
   sample. A smoke run takes one set-up. *)
let setup_slot acc ctx ~traced s =
  let reps = if ctx.smoke then 1 else s.reps in
  let batch_s = if ctx.smoke then 0. else 0.02 in
  let sample () =
    Gc.full_major ();
    let rec go calls spent =
      let was_on = !Spans.on in
      Spans.on := traced && calls = 0;
      let t0 = now () in
      let env =
        Fun.protect ~finally:(fun () -> Spans.on := was_on) @@ fun () ->
        Spans.span "setup" s.prepare
      in
      let spent = spent +. (now () -. t0) and calls = calls + 1 in
      if spent >= batch_s then (env, spent /. float_of_int calls)
      else begin
        s.teardown env;
        go calls spent
      end
    in
    go 0 0.
  in
  let rec go r samples =
    let env, secs = sample () in
    if r < reps then begin
      s.teardown env;
      go (r + 1) (secs :: samples)
    end
    else (env, secs :: samples)
  in
  let env, samples = go 1 [] in
  acc.setups <- samples :: acc.setups;
  env

(* The set-up the timed phase runs on: the first slot, traced in a
   traced run. *)
let setup acc ctx s = setup_slot acc ctx ~traced:ctx.traced s

(* A later slot, taken only for its time. The host has slow phases of a
   few seconds in which the same set-up takes up to 1.6 times as long, so
   slots are spread over the run and [setup_s] is the fastest slot's
   median, as a job is timed by its best pass. *)
let extra_setup acc ctx s = s.teardown (setup_slot acc ctx ~traced:false s)

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* The timed phase: whole passes, started only while the previous pass's
   length still fits before the deadline, so a run measures about
   [ctx.seconds] and at least one pass. Peak RSS is read after the first
   pass — set-up plus one pass in the committed order, what a one-shot
   command holds — so it does not grow with the number of passes a run
   fits, nor move with the seed. [between] runs after every pass,
   outside its time. *)
let timed_passes ?(between = ignore) acc ctx pass =
  let deadline = now () +. ctx.seconds in
  let rng = Random.State.make [| ctx.seed |] in
  let rec go i last =
    if i > 0 && now () +. last > deadline then acc.passes <- i
    else begin
      let (), secs = timed (fun () -> pass rng i) in
      if i = 0 then acc.peak_rss_mb <- vm_hwm_mb "self";
      between ();
      go (i + 1) secs
    end
  in
  go 0 0.

(* {1 Metrics} *)

let m ?(n = 1) unit_ value = { value; unit_; n }

(* [(key, value)] pairs grouped by key: keys sorted, values in order. *)
let group l =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some vs -> (k, v :: vs) :: List.remove_assoc k acc
      | None -> (k, [ v ]) :: acc)
    [] (List.rev l)
  |> List.sort compare

(* The fastest of each kind's samples. The host's slow phases only ever
   add time — a job with the same conflict count every pass has taken
   from 0.31 to 0.56 s within one run — so a kind is timed by its best
   pass, and the drift of its solver trajectory is reported apart, from
   the conflict counts the run file keeps. *)
let best l = List.map (fun (k, v) -> (k, List.fold_left Float.min Float.infinity v)) (group l)

(* The fastest set-up slot's median, over every sample of the run. *)
let setup_metric acc =
  m ~n:(List.length (List.concat acc.setups)) "s"
    (List.fold_left (fun b slot -> Float.min b (Stat.median slot)) Float.infinity acc.setups)

(* The set-ups a traced run has spans for: the first slot's. *)
let traced_setups acc =
  match List.rev acc.setups with first :: _ -> List.length first | [] -> 0

(* End-to-end metrics of a pass-based workload (tracing off): the job
   list's percentiles and its one-pass makespan, over each job's best
   time in the run. *)
let end_to_end acc =
  let per_job = List.map snd (best acc.latencies) in
  let jobs = List.length per_job in
  let makespan = Stat.sum per_job +. Stat.sum (List.map snd (best acc.segments)) in
  [
    ("makespan_s", m ~n:acc.passes "s" makespan);
    ("verdict_p50_s", m ~n:jobs "s" (Stat.percentile 0.5 per_job));
    ("verdict_p90_s", m ~n:jobs "s" (Stat.percentile 0.9 per_job));
    ("jobs_per_s", m ~n:jobs "jobs/s" (float_of_int jobs /. makespan));
    ("setup_s", setup_metric acc);
    ("peak_rss_mb", m "MB" acc.peak_rss_mb);
  ]

(* Self and total time per span name, folded from the written trace by
   [Obs.Profile] — the same fold [autocc profile] renders — and kept
   apart for spans under a set-up root and spans of the timed phase. *)
let fold_trace path =
  match Obs.Profile.of_file path with
  | Error e -> failwith ("trace does not fold: " ^ e)
  | Ok p ->
      let tbl = Hashtbl.create 32 in
      let add k (self, total) =
        let s0, t0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl k) in
        Hashtbl.replace tbl k (s0 +. self, t0 +. total)
      in
      let rec walk setup (n : Obs.Profile.node) =
        add (setup, n.Obs.Profile.pn_name)
          (n.Obs.Profile.pn_self_us /. 1e6, n.Obs.Profile.pn_total_us /. 1e6);
        List.iter (walk setup) n.Obs.Profile.pn_children
      in
      List.iter
        (fun (r : Obs.Profile.node) -> walk (r.Obs.Profile.pn_name = "setup") r)
        p.Obs.Profile.p_roots;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Per-layer metrics of a traced run. Times are seconds per traced pass
   (per set-up for [duts.build_s]); layers a workload does not exercise on
   every job are given as a fraction of the traced jobs' wall time;
   counters are per pass. Every span name also yields a [<name>_s]
   extra for the run file. *)
let per_layer acc ~trace_path =
  let folded = fold_trace trace_path in
  let get setup name = Option.value ~default:(0., 0.) (List.assoc_opt (setup, name) folded) in
  let self name = fst (get false name) and total name = snd (get false name) in
  let passes = float_of_int (max 1 acc.passes * arm_reps) in
  let setups = traced_setups acc in
  let reps = float_of_int (max 1 setups) in
  let layer_self l =
    Stat.sum
      (List.filter_map
         (fun ((setup, name), (s, _)) ->
           if (not setup) && Spans.layer name = l then Some s else None)
         folded)
  in
  let job_s = total "job" in
  let frac x = if job_s > 0. then x /. job_s else 0. in
  let counter name = Option.value ~default:0. (Hashtbl.find_opt acc.counts name) /. passes in
  let gauge name = Option.value ~default:0. (Hashtbl.find_opt acc.gauges name) in
  let n = acc.passes in
  let sat_s = self "sat.solve" /. passes in
  let props = counter "sat.propagations" in
  let hits = counter "cache.hits" and misses = counter "cache.misses" in
  let arm mode =
    Stat.sum
      (List.map snd
         (best (List.filter_map (fun (k, m', s) -> if m' = mode then Some (k, s) else None) acc.arms)))
  in
  let plain = arm Plain in
  let overhead mode = if plain > 0. then (arm mode /. plain) -. 1. else 0. in
  let layer =
    [
      ("duts.build_s", m ~n:setups "s" (fst (get true "duts.build") /. reps));
      ("core.generate_s", m ~n "s" (self "core.generate" /. passes));
      ("opt.optimize_s", m ~n "s" (self "opt.optimize" /. passes));
      ("opt.nodes_removed", m ~n "count" (counter "opt.nodes_removed"));
      ("opt.sweep_queries", m ~n "count" (counter "opt.sweep_queries"));
      ("opt.sweep_merged", m ~n "count" (counter "opt.sweep_merged"));
      ("cnf.unroll_s", m ~n "s" (self "cnf.unroll" /. passes));
      ("cnf.vars", m ~n "count" (counter "cnf.vars"));
      ("cnf.clauses", m ~n "count" (counter "cnf.clauses"));
      ("bmc.self_s", m ~n "s" (layer_self "bmc" /. passes));
      ("sat.solve_s", m ~n "s" sat_s);
      ("sat.conflicts", m ~n "count" (counter "sat.conflicts"));
      ("sat.propagations", m ~n "count" props);
      ("sat.props_per_s", m ~n "1/s" (if sat_s > 0. then props /. sat_s else 0.));
      ("frontend.elaborate_frac", m ~n "ratio" (frac (self "frontend.elaborate")));
      ("sim.replay_frac", m ~n "ratio" (frac (total "sim.replay")));
      ("explain.cluster_frac", m ~n "ratio" (frac (self "explain.cluster")));
      ("explain.report_frac", m ~n "ratio" (frac (self "explain.report")));
      ("explain.replay_trials", m ~n "count" (counter "explain.replay_trials"));
      ("cache.load_frac", m ~n "ratio" (frac (self "cache.load")));
      ("cache.hits", m ~n "count" hits);
      ("cache.misses", m ~n "count" misses);
      ("cache.stores", m ~n "count" (counter "cache.stores"));
      ("cache.rejects", m ~n "count" (counter "cache.rejects"));
      ( "cache.hit_ratio",
        m ~n "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.) );
      ("serve.overhead_frac", m ~n "ratio" (gauge "serve.overhead_frac"));
      ("serve.backlog_max", m ~n "count" (gauge "serve.backlog_max"));
      ( "trace.coverage",
        m ~n "ratio" (if job_s > 0. then 1. -. (self "job" /. job_s) else 0.) );
      ("trace.overhead_frac", m ~n "ratio" (overhead Traced));
      ("obs.enabled_overhead_frac", m ~n "ratio" (overhead Telemetry));
    ]
  in
  let per_name =
    List.filter_map
      (fun ((setup, name), (self, _)) ->
        let key = name ^ "_s" in
        if name = "job" || name = "setup" || List.mem_assoc key layer
           || List.mem_assoc key acc.extra
        then None
        else if setup then Some (key, m ~n:setups "s" (self /. reps))
        else Some (key, m ~n "s" (self /. passes)))
      folded
  in
  (layer, per_name)
