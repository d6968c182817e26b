(* End-to-end smoke for the crash-isolated verification service
   (@serve-smoke): drives the real `autocc serve` daemon, its real
   long-lived workers and the real wire protocol through phases B-H,
   asserting the service's robustness contract:

   B. a crash-free service run completes four DUTs with verdicts
      identical to an in-process one-shot reference (and populates a
      verdict cache) on at most two worker processes;
   C. a crash storm — every attempt-0 worker self-SIGKILLs mid-job via
      the "serve.worker" fault site, with "serve.lease" renewal drops
      armed alongside — must redeliver every job and converge to the
      SAME verdicts, with zero quarantines;
   D. a graceful SIGTERM drain of a queue-only daemon persists the
      queue byte-stably across a restart (cmp-identical), sheds
      submissions past the watermark, and a final restart against the
      phase-B cache completes the queue with warm cache hits recorded
      in the service ledger;
   E. a SIGTERMed `autocc campaign` checkpoints, exits cleanly, and
      `--resume` finishes it byte-stably;
   F. a job that the "serve.stall" fault site holds for several times
      its short lease finishes without a crash (its heartbeat events in
      events.jsonl renew the lease), the same job with every renewal
      dropped is quarantined as unknown:worker_crashed, and neither run
      leaves an hb/ directory;
   G. a daemon SIGKILLed as soon as it acknowledges a submit restarts
      with the job in its queue journal and never reissues the job's
      id;
   H. a daemon SIGKILLed while its worker runs leaves serve.sock
      refusing connections: the worker inherited none of the daemon's
      descriptors; the orphaned worker exits on its own within 2 s,
      both mid-job and idle.

   After every drained daemon, no process that wrote to its
   events.jsonl is still alive (the daemon reaps its workers before it
   exits), and no worker ledger row reports more CPU time than wall
   time. Every phase starts from an empty directory of its own, so the
   smoke can be run again in the same directory.

   Usage: validate_serve <path-to-autocc-cli-exe> *)

module J = Obs.Json

let exe = ref ""
let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAILED: %s\n%!" s)
    fmt

let infof fmt = Printf.ksprintf (fun s -> Printf.printf "       %s\n%!" s) fmt
let phase fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let fresh_dir dir = ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]))

(* {1 Process helpers} *)

let spawn ?(env = []) args =
  let argv = Array.of_list (!exe :: args) in
  let full_env =
    Array.append (Unix.environment ()) (Array.of_list env)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile
      (Printf.sprintf "serve_smoke_%s.log" (List.hd args))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid = Unix.create_process_env !exe argv full_env devnull out out in
  Unix.close devnull;
  Unix.close out;
  pid

let wait_exit ?(timeout_s = 120.) pid =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () -. t0 > timeout_s then (
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          None)
        else (
          Unix.sleepf 0.05;
          go ())
    | _, Unix.WEXITED c -> Some c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (128 + s)
  in
  go ()

let wait_for ?(timeout_s = 30.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then (
      failf "timed out waiting for %s" what;
      false)
    else (
      Unix.sleepf 0.05;
      go ())
  in
  go ()

let start_daemon ?(env = []) ~dir args =
  let pid = spawn ~env ([ "serve"; "--dir"; dir ] @ args) in
  ignore
    (wait_for ("daemon socket in " ^ dir) (fun () -> Serve.Client.ping ~dir));
  pid

(* The distinct writer pids of [dir]'s event stream, of the events of
   type [ty] only if given. *)
let event_pids ?ty dir =
  let events = Filename.concat dir "events.jsonl" in
  if not (Sys.file_exists events) then []
  else
    String.split_on_char '\n' (read_file events)
    |> List.filter_map (fun l ->
           match J.parse l with
           | Ok j when ty = None || J.str "type" j = ty -> J.int "pid" j
           | _ -> None)
    |> List.sort_uniq compare

(* A worker ledger row's CPU time covers the span of its wall time, the
   check alone: not the process's start-up or the jobs it ran before. *)
let check_ledger_cpu dir =
  let ledger = Filename.concat dir "runs.jsonl" in
  if Sys.file_exists ledger then
    String.split_on_char '\n' (read_file ledger)
    |> List.iter (fun l ->
           if String.trim l <> "" then
             match J.parse l with
             | Error e -> failf "malformed ledger row in %s: %s" dir e
             | Ok j -> (
                 match (J.num "cpu_s" j, J.num "wall_s" j) with
                 | Some cpu, Some wall when cpu <= wall +. 0.01 -> ()
                 | Some cpu, Some wall ->
                     failf "%s ledger row %s: cpu_s %.4f exceeds wall_s %.4f" dir
                       (Option.value ~default:"?" (J.str "id" j))
                       cpu wall
                 | _ -> failf "%s ledger row without cpu_s and wall_s: %s" dir l))

let drain_daemon ~dir pid =
  Unix.kill pid Sys.sigterm;
  (match wait_exit pid with
  | Some 0 -> ()
  | Some c -> failf "daemon exited %d after SIGTERM (want 0)" c
  | None -> failf "daemon did not exit after SIGTERM");
  check_ledger_cpu dir;
  match List.filter Obs.Bus.pid_alive (event_pids dir) with
  | [] -> ()
  | alive ->
      failf "pid(s) %s of %s/events.jsonl outlived the drained daemon"
        (String.concat ", " (List.map string_of_int alive))
        dir;
      List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) alive

(* {1 Reference verdicts: the crash-free one-shot engine, in-process} *)

let duts = [ "leaky"; "divider"; "maple"; "aes" ]
let depth = 6
let threshold = 2

let reference =
  lazy
    (List.map
       (fun name ->
         let dut = Duts.Bundled.build name in
         let ft = Duts.Bundled.ft_for ~threshold name dut in
         let verdict, d =
           match Autocc.Ft.check ~max_depth:depth ft with
           | Bmc.Cex (cex, _) -> ("cex", cex.Bmc.cex_depth)
           | Bmc.Bounded_proof st -> ("proof", st.Bmc.depth_reached)
           | Bmc.Unknown (r, st) ->
               ("unknown:" ^ Bmc.unknown_reason_to_string r, st.Bmc.depth_reached)
         in
         (name, (verdict, d)))
       duts)

(* Submit the four DUTs to a running daemon and wait each one out;
   returns dut -> (verdict, depth, crashes). *)
let run_jobs dir =
  List.filter_map
    (fun dut ->
      let spec =
        { Serve.Machine.sp_dut = dut; sp_engine = "check"; sp_depth = depth;
          sp_threshold = threshold }
      in
      match Serve.Client.submit ~dir spec with
      | Error e ->
          failf "submit %s: %s" dut e;
          None
      | Ok id -> Some (dut, id))
    duts
  |> List.filter_map (fun (dut, id) ->
         match Serve.Client.wait ~dir ~timeout_s:120. id with
         | Error e ->
             failf "wait %s (%s): %s" id dut e;
             None
         | Ok resp -> (
             match J.member "job" resp with
             | Some job ->
                 let str n =
                   match J.member n job with Some (J.Str s) -> s | _ -> ""
                 in
                 let int n =
                   match J.member n job with Some (J.Int i) -> i | _ -> -1
                 in
                 Some (dut, (str "verdict", int "depth", int "crashes"))
             | None ->
                 failf "wait %s: no job row" id;
                 None))

let check_verdicts what rows =
  List.iter
    (fun (dut, (rv, rd)) ->
      match List.assoc_opt dut rows with
      | None -> failf "%s: no result for %s" what dut
      | Some (v, d, _) ->
          if v <> rv || d <> rd then
            failf "%s: %s got %s@%d, reference is %s@%d" what dut v d rv rd)
    (Lazy.force reference)

(* {1 Phase C seed search}

   The worker process arms AUTOCC_FAULT at startup and calls
   Fault.reseed ~offset:attempt before every job it runs, and every
   fault decision is a pure function of (seed, site, n) — so we can
   roll the exact dice a worker will roll, here, before spawning
   anything, and pick a seed where attempt 0 dies at one of its first
   two "serve.worker" probes while attempts 1 and 2 survive a full
   solve. Searching at runtime keeps the smoke independent of the hash
   function. *)

let storm_rate = 0.05

let find_storm_seed () =
  let fires_within seed ~offset n =
    Fault.arm ~sites:[ "serve.worker" ] ~rate:storm_rate ~seed ();
    Fault.reseed ~offset;
    let fired = ref false in
    for _ = 1 to n do
      if Fault.fire "serve.worker" then fired := true
    done;
    !fired
  in
  let ok seed =
    fires_within seed ~offset:0 2
    && (not (fires_within seed ~offset:1 12))
    && not (fires_within seed ~offset:2 12)
  in
  let rec search s =
    if s > 100_000 then None else if ok s then Some s else search (s + 1)
  in
  let r = search 1 in
  Fault.disarm ();
  r

(* {1 Phases} *)

let phase_b () =
  phase "B: crash-free service run, 4 DUTs, 2 workers, cold cache";
  let dir = "sserve_b" in
  fresh_dir dir;
  (* Cleared here only: phase D's warm hits come from phase B's stores. *)
  fresh_dir "sserve_cache";
  let pid = start_daemon ~dir [ "--workers"; "2"; "--cache-dir"; "sserve_cache" ] in
  let rows = run_jobs dir in
  check_verdicts "crash-free" rows;
  List.iter
    (fun (dut, (_, _, crashes)) ->
      if crashes <> 0 then failf "crash-free run recorded %d crashes for %s" crashes dut)
    rows;
  drain_daemon ~dir pid;
  (* Long-lived workers: the two-worker pool ran the four jobs on at
     most two processes. *)
  (match event_pids ~ty:"job_start" dir with
  | pids when List.length pids > 2 ->
      failf "4 jobs on 2 workers started in %d processes (%s), want at most 2"
        (List.length pids)
        (String.concat ", " (List.map string_of_int pids))
  | pids -> infof "4 jobs ran in %d worker process(es)" (List.length pids));
  (* The service directory is self-describing: a ledger row per
     delivery, an event stream where every line parses (the workers
     append concurrently through the O_APPEND single-write appender). *)
  let ledger = Filename.concat dir "runs.jsonl" in
  if not (Sys.file_exists ledger) then failf "no service ledger at %s" ledger
  else begin
    let rows =
      String.split_on_char '\n' (read_file ledger)
      |> List.filter (fun l -> String.trim l <> "")
    in
    if List.length rows <> 4 then
      failf "expected 4 worker ledger rows, found %d" (List.length rows)
  end;
  let events = Filename.concat dir "events.jsonl" in
  if not (Sys.file_exists events) then failf "no event stream at %s" events
  else
    String.split_on_char '\n' (read_file events)
    |> List.iter (fun l ->
           if String.trim l <> "" then
             match J.parse l with
             | Ok _ -> ()
             | Error e -> failf "torn/invalid event line %S: %s" l e);
  infof "verdicts match the one-shot reference; ledger and event stream intact"

let phase_c () =
  phase "C: crash storm — attempt-0 workers self-SIGKILL mid-job";
  match find_storm_seed () with
  | None -> failf "no storm seed found (fault hash changed?)"
  | Some seed ->
      infof "storm seed %d (rate %g, sites serve.worker;serve.lease)" seed
        storm_rate;
      let dir = "sserve_c" in
      fresh_dir dir;
      let env =
        [ Printf.sprintf "AUTOCC_FAULT=seed=%d,rate=%g,sites=serve.worker;serve.lease"
            seed storm_rate ]
      in
      (* No cache: the storm must re-solve for real on redelivery. *)
      let pid = start_daemon ~env ~dir [ "--workers"; "2"; "--no-cache" ] in
      let rows = run_jobs dir in
      check_verdicts "crash storm" rows;
      let redelivered =
        List.fold_left (fun n (_, (_, _, c)) -> n + c) 0 rows
      in
      if redelivered = 0 then
        failf "storm run recorded no crashes — the fault site never fired";
      List.iter
        (fun (dut, (v, _, _)) ->
          if v = Serve.Machine.crashed_verdict then
            failf "%s was quarantined — redelivery failed to converge" dut)
        rows;
      drain_daemon ~dir pid;
      infof
        "%d crash(es) redelivered; all verdicts converged to the reference; \
         no quarantine"
        redelivered

let phase_d () =
  phase "D: drain persistence, byte-stable restart, shedding, warm cache";
  let dir = "sserve_d" in
  fresh_dir dir;
  (* Queue-only daemon: accepts and persists, never dispatches. *)
  let pid = start_daemon ~dir [ "--workers"; "0"; "--shed"; "4" ] in
  List.iter
    (fun dut ->
      let spec =
        { Serve.Machine.sp_dut = dut; sp_engine = "check"; sp_depth = depth;
          sp_threshold = threshold }
      in
      match Serve.Client.submit ~dir spec with
      | Ok _ -> ()
      | Error e -> failf "queue submit %s: %s" dut e)
    duts;
  (* The watermark: a fifth live job must be shed, not queued. *)
  (match
     Serve.Client.submit ~dir
       { Serve.Machine.sp_dut = "leaky"; sp_engine = "check"; sp_depth = depth;
         sp_threshold = threshold }
   with
  | Error "overloaded" -> ()
  | Error e -> failf "expected \"overloaded\", got %S" e
  | Ok id -> failf "submission past the watermark was accepted as %s" id);
  drain_daemon ~dir pid;
  let q1 = read_file (Serve.Store.path dir) in
  (* Restart + immediate drain: the persisted queue must survive the
     cycle byte-identically. *)
  let pid = start_daemon ~dir [ "--workers"; "0"; "--shed"; "4" ] in
  drain_daemon ~dir pid;
  let q2 = read_file (Serve.Store.path dir) in
  if q1 <> q2 then failf "queue.json changed across a drain/restart cycle";
  (* Final incarnation: real workers against the phase-B cache. The
     queued jobs complete without re-solving — warm hits recorded in
     the ledger. *)
  let pid =
    start_daemon ~dir [ "--workers"; "2"; "--cache-dir"; "sserve_cache" ]
  in
  let ids = [ "j1"; "j2"; "j3"; "j4" ] in
  let rows =
    List.filter_map
      (fun id ->
        match Serve.Client.wait ~dir ~timeout_s:120. id with
        | Error e ->
            failf "resumed wait %s: %s" id e;
            None
        | Ok resp -> (
            match J.member "job" resp with
            | Some job ->
                let str n =
                  match J.member n job with Some (J.Str s) -> s | _ -> ""
                in
                let int n =
                  match J.member n job with Some (J.Int i) -> i | _ -> -1
                in
                Some (str "dut", (str "verdict", int "depth", int "crashes"))
            | None ->
                failf "resumed wait %s: no job row" id;
                None))
      ids
  in
  check_verdicts "resumed queue" rows;
  drain_daemon ~dir pid;
  let ledger = Filename.concat dir "runs.jsonl" in
  let warm_hits =
    if not (Sys.file_exists ledger) then 0
    else
      String.split_on_char '\n' (read_file ledger)
      |> List.fold_left
           (fun acc l ->
             if String.trim l = "" then acc
             else
               match J.parse l with
               | Ok j -> (
                   match Option.bind (J.member "cache" j) (J.member "hits") with
                   | Some (J.Int h) -> acc + h
                   | _ -> acc)
               | Error _ -> acc)
           0
  in
  if warm_hits = 0 then
    failf "restart re-solved everything: no warm cache hits in the ledger"
  else infof "queue byte-stable across restart; %d warm cache hit(s)" warm_hits

let phase_e () =
  phase "E: SIGTERMed campaign checkpoints and resumes byte-stably";
  let out = "sserve_camp" in
  fresh_dir out;
  let args =
    [ "campaign"; "--duts"; "leaky,divider,maple,aes"; "--max-depth"; "6";
      "--out"; out ]
  in
  let pid = spawn args in
  (* The index is checkpointed after every entry; signal as soon as the
     first checkpoint lands so later entries are still outstanding. *)
  ignore
    (wait_for ~timeout_s:60. "first campaign checkpoint" (fun () ->
         Sys.file_exists (Filename.concat out "campaign.json")));
  Unix.kill pid Sys.sigterm;
  (match wait_exit pid with
  | Some 130 -> infof "campaign exited 130 (interrupted, checkpointed)"
  | Some 0 ->
      (* The campaign can legitimately win the race and finish; the
         byte-stability assertions below still hold. *)
      infof "campaign finished before the signal landed"
  | Some c -> failf "signalled campaign exited %d (want 130 or 0)" c
  | None -> failf "signalled campaign did not exit");
  (* Finish it, snapshot, resume again: the second resume must rewrite
     the index byte-identically. *)
  (match wait_exit ~timeout_s:300. (spawn (args @ [ "--resume" ])) with
  | Some 0 -> ()
  | Some c -> failf "campaign --resume exited %d" c
  | None -> failf "campaign --resume hung");
  let snap = read_file (Filename.concat out "campaign.json") in
  (match wait_exit ~timeout_s:300. (spawn (args @ [ "--resume" ])) with
  | Some 0 -> ()
  | Some c -> failf "second campaign --resume exited %d" c
  | None -> failf "second campaign --resume hung");
  if read_file (Filename.concat out "campaign.json") <> snap then
    failf "campaign.json not byte-stable across --resume"
  else infof "campaign.json byte-stable across --resume"

(* {1 Phase F: leases renewed through events.jsonl}

   AES bounded to depth 12 under the "serve.stall" fault site at rate 1:
   before each of its 13 depths the worker publishes a Heartbeat and
   then sleeps 0.2 s, half of the 0.4 s lease. So the job lasts at least
   2.6 s (6.5 leases) however fast the solver runs, and the gap between
   two beats is one stall plus one shallow depth's solve. With
   "serve.lease" armed as well every renewal is dropped, and the stalls
   keep the starved job past its first lease. *)

let lease_s = 0.4

let lease_job =
  { Serve.Machine.sp_dut = "aes"; sp_engine = "check"; sp_depth = 12;
    sp_threshold = threshold }

let fault sites = [ "AUTOCC_FAULT=seed=1,rate=1,sites=" ^ sites ]

(* A fresh directory, one worker, the short lease; returns the job row. *)
let run_lease_job ?env dir args =
  fresh_dir dir;
  let pid =
    start_daemon ?env ~dir
      ([ "--workers"; "1"; "--no-cache"; "--lease"; string_of_float lease_s ]
      @ args)
  in
  let row =
    match Serve.Client.submit ~dir lease_job with
    | Error e ->
        failf "submit to %s: %s" dir e;
        None
    | Ok id -> (
        match Serve.Client.wait ~dir ~timeout_s:120. id with
        | Error e ->
            failf "wait %s in %s: %s" id dir e;
            None
        | Ok resp -> J.member "job" resp)
  in
  drain_daemon ~dir pid;
  if Sys.file_exists (Filename.concat dir "hb") then
    failf "%s/hb exists: leases are events, not files" dir;
  row

let phase_f () =
  phase "F: leases renewed by heartbeat events in events.jsonl";
  let str k j = Option.value ~default:"" (J.str k j)
  and int k j = Option.value ~default:(-1) (J.int k j) in
  (match run_lease_job ~env:(fault "serve.stall") "sserve_f" [] with
  | None -> ()
  | Some job ->
      let wall_s = float_of_int (int "wall_ms" job) /. 1000. in
      if str "verdict" job <> "proof" || int "crashes" job <> 0 then
        failf
          "lease job ended %s after %d crash(es), want proof with none: \
           renewals did not reach the daemon"
          (str "verdict" job) (int "crashes" job)
      else if wall_s < 3. *. lease_s then
        failf "lease job took %.2fs, under 3 leases of %.1fs: raise its depth"
          wall_s lease_s
      else
        infof "%.2fs job (%.1f leases of %.1fs) finished with 0 crashes" wall_s
          (wall_s /. lease_s) lease_s);
  match
    run_lease_job ~env:(fault "serve.stall;serve.lease") "sserve_f_starved"
      [ "--max-crashes"; "1" ]
  with
  | None -> ()
  | Some job ->
      if str "verdict" job <> Serve.Machine.crashed_verdict then
        failf "with every renewal dropped the job ended %s, want %s"
          (str "verdict" job) Serve.Machine.crashed_verdict
      else infof "with every renewal dropped the job ended %s" (str "verdict" job)

(* {1 Phase G: an acknowledged submit is already in the queue journal}

   Each trial SIGKILLs a queue-only daemon the moment its accept reply
   arrives: a daemon that replied before appending the job's record
   would restart without the job and hand its id to the next
   submission. The kill is reaped
   before the restart: a zombie still answers kill 0, and the restart
   would refuse to run beside it. *)

let ack_trials = 10

let phase_g () =
  phase "G: a daemon SIGKILLed after acknowledging a submit keeps the job";
  let dir = "sserve_g" in
  fresh_dir dir;
  let start () = start_daemon ~dir [ "--workers"; "0" ] in
  let submit trial =
    let dut = List.nth duts (trial mod List.length duts) in
    match
      Serve.Client.submit ~dir
        { Serve.Machine.sp_dut = dut; sp_engine = "check"; sp_depth = depth;
          sp_threshold = threshold }
    with
    | Ok id -> Some id
    | Error e ->
        failf "trial %d: submit %s: %s" trial dut e;
        None
  in
  let acked = ref [] in
  let fresh trial id =
    if List.mem id !acked then
      failf "trial %d: id %s was acknowledged before the restart" trial id;
    acked := id :: !acked
  in
  let lost = ref 0 in
  for trial = 1 to ack_trials do
    let pid = start () in
    let id = submit trial in
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Option.iter
      (fun id ->
        fresh trial id;
        match Serve.Store.load ~dir Serve.Machine.default_config with
        | Ok (Some m) when Serve.Machine.find m id <> None -> ()
        | Ok _ ->
            incr lost;
            failf "trial %d: acknowledged %s is missing from the reloaded queue" trial id
        | Error e -> failf "trial %d: %s" trial e)
      id
  done;
  (* One more restart: its submit is new, and a clean drain keeps every
     acknowledged job. *)
  let pid = start () in
  Option.iter (fresh (ack_trials + 1)) (submit (ack_trials + 1));
  drain_daemon ~dir pid;
  (match Serve.Store.load ~dir Serve.Machine.default_config with
  | Ok (Some m) ->
      List.iter
        (fun id ->
          if Serve.Machine.find m id = None then
            failf "%s is missing from the drained queue" id)
        !acked
  | Ok None -> failf "no queue after the drain"
  | Error e -> failf "%s" e);
  infof "%d acknowledged job(s) lost in %d SIGKILL trials; %d distinct ids"
    !lost ack_trials
    (List.length (List.sort_uniq compare !acked))

(* {1 Phase H: an orphaned worker neither holds the listening socket nor
   runs on}

   The daemon opens its listening socket, its accepted connections and
   every worker's pipes close-on-exec. Were the socket inherited, a
   worker outliving a SIGKILLed daemon would keep serve.sock accepting
   connections that nobody answers. The lease job under "serve.stall"
   holds its worker for several seconds; the daemon is killed and
   reaped at the worker's first heartbeat. The worker notices it has
   been reparented after its next stall, so the socket is probed while
   it still runs, and it must then be gone within 2 s on its own. An
   idle worker, its job done, must go as fast: the daemon's death
   closes its job pipe. The pids come from the workers' heartbeat
   events. *)

(* Gone: no such process, or a zombie that whoever adopted it has not
   reaped yet. *)
let gone pid =
  (not (Obs.Bus.pid_alive pid))
  ||
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | stat -> (
      match String.rindex_opt stat ')' with
      | Some i -> String.length stat > i + 2 && stat.[i + 2] = 'Z'
      | None -> false)
  | exception Sys_error _ -> true

let kill_daemon pid =
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid)

let orphans_exit what workers =
  if
    wait_for ~timeout_s:2. (what ^ " to exit on its own") (fun () ->
        List.for_all gone workers)
  then infof "%s exited on its own" what
  else
    (* Failed already; do not leave the worker running. *)
    List.iter
      (fun w -> try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ())
      workers

let phase_h () =
  phase "H: a worker outliving its SIGKILLed daemon leaves serve.sock refusing \
         and exits, mid-job and idle";
  let dir = "sserve_h" in
  fresh_dir dir;
  let pid =
    start_daemon ~env:(fault "serve.stall") ~dir [ "--workers"; "1"; "--no-cache" ]
  in
  (match Serve.Client.submit ~dir lease_job with
  | Error e -> failf "submit to %s: %s" dir e
  | Ok _ -> ());
  let workers = ref [] in
  ignore
    (wait_for "a worker heartbeat" (fun () ->
         workers := event_pids ~ty:"heartbeat" dir;
         !workers <> []));
  kill_daemon pid;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX (Serve.Client.socket_path dir)) with
  | () ->
      failf "serve.sock accepted a connection after its daemon died: \
             worker(s) %s hold the listening socket"
        (String.concat ", " (List.map string_of_int !workers))
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
      infof "serve.sock refuses connections while the orphaned worker runs"
  | exception Unix.Unix_error (e, _, _) ->
      failf "connect to the dead daemon's socket: %s (want ECONNREFUSED)"
        (Unix.error_message e));
  Unix.close fd;
  if List.for_all gone !workers then
    failf "the worker exited before the socket was probed: raise the job's depth";
  orphans_exit "the orphaned mid-job worker" !workers;
  let dir = "sserve_h_idle" in
  fresh_dir dir;
  let pid = start_daemon ~dir [ "--workers"; "1"; "--no-cache" ] in
  (match
     Result.bind
       (Serve.Client.submit ~dir
          { Serve.Machine.sp_dut = "leaky"; sp_engine = "check"; sp_depth = depth;
            sp_threshold = threshold })
       (Serve.Client.wait ~dir ~timeout_s:120.)
   with
  | Error e -> failf "leaky job in %s: %s" dir e
  | Ok _ -> ());
  let workers = event_pids ~ty:"heartbeat" dir in
  if workers = [] then failf "no worker heartbeat in %s" dir
  else if List.exists gone workers then
    failf "the idle worker %s is gone while its daemon runs"
      (String.concat ", " (List.map string_of_int workers));
  kill_daemon pid;
  orphans_exit "the orphaned idle worker" workers

let () =
  if Array.length Sys.argv < 2 then (
    prerr_endline "usage: validate_serve <autocc-cli-exe>";
    exit 2);
  (exe :=
     let p = Sys.argv.(1) in
     if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p);
  phase "A: in-process one-shot reference over %s" (String.concat ", " duts);
  List.iter
    (fun (dut, (v, d)) -> infof "%-8s %s (depth %d)" dut v d)
    (Lazy.force reference);
  phase_b ();
  phase_c ();
  phase_d ();
  phase_e ();
  phase_f ();
  phase_g ();
  phase_h ();
  if !failures > 0 then (
    Printf.printf "serve smoke: %d FAILURE(S)\n" !failures;
    exit 1)
  else print_endline "serve smoke: service reused its workers, survived \
                      the crash storm, drained byte-stably, reused the \
                      warm cache, renewed leases through events.jsonl, \
                      kept every acknowledged job and left an orphaned \
                      worker neither the socket nor its job"
