(* Tests of the crash-isolated verification service: the supervisor
   state machine as a pure fold (submit -> lease -> heartbeat -> crash ->
   redeliver -> quarantine -> drain), randomized crash storms against the
   no-lost-job / no-double-completion / verdict-immutability invariants,
   the byte-stable queue codec and its journal, the wire-protocol codec,
   and the O_APPEND single-write line appender under two racing writer
   processes. The live daemon (sockets, worker processes, SIGKILL) is
   covered end-to-end by the @serve-smoke validator. *)

module M = Serve.Machine

let spec ?(dut = "leaky") ?(engine = "check") ?(depth = 6) ?(threshold = 2) () =
  { M.sp_dut = dut; sp_engine = engine; sp_depth = depth; sp_threshold = threshold }

let result ?(verdict = "cex") ?(depth = 3) () =
  { M.w_verdict = verdict; w_depth = depth; w_wall_ms = 10; w_cache_hits = 0 }

let cfg ?(workers = 2) ?(lease_s = 10.) ?(max_crashes = 3) ?(shed = 64) () =
  { M.c_workers = workers; c_lease_s = lease_s; c_max_crashes = max_crashes;
    c_shed = shed; c_retry = Retry.default }

(* Fold a list of events, collecting every action. *)
let fold m evs =
  List.fold_left
    (fun (m, acts) ev ->
      let m, a = M.step m ev in
      (m, acts @ a))
    (m, []) evs

let starts acts =
  List.filter_map
    (function M.Start { id; attempt; _ } -> Some (id, attempt) | _ -> None)
    acts

let completes acts =
  List.filter_map
    (function M.Complete { id; verdict } -> Some (id, verdict) | _ -> None)
    acts

let state_of m id =
  match M.find m id with
  | Some j -> M.state_name j
  | None -> Alcotest.failf "job %s lost" id

let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Journal every [Persist {id}] of [acts] as the daemon does: that job's
   record as it stands in [m]. *)
let journal jr m acts =
  List.iter
    (function M.Persist { id } -> Serve.Store.append jr m [ id ] | _ -> ())
    acts

(* [Store.load] must rebuild [m] byte for byte, id counter included. *)
let load_matches ~dir c m =
  match Serve.Store.load ~dir c with
  | Ok (Some m') ->
      if Serve.Store.render m' <> Serve.Store.render m then
        Error
          (Printf.sprintf "replay rendered\n%s\nwant\n%s" (Serve.Store.render m')
             (Serve.Store.render m))
      else if m'.M.m_next <> m.M.m_next then
        Error (Printf.sprintf "replay m_next %d, want %d" m'.M.m_next m.M.m_next)
      else Ok ()
  | Ok None -> Error "no queue to load"
  | Error e -> Error e

(* {1 The pure lifecycle} *)

let test_happy_path () =
  let m = M.create (cfg ()) in
  let m, acts = fold m [ M.Submit (spec ()); M.Submit (spec ~dut:"divider" ()) ] in
  Alcotest.(check (list string))
    "both accepted" [ "j1"; "j2" ]
    (List.filter_map (function M.Accept { id } -> Some id | _ -> None) acts);
  let m, acts = M.step m (M.Tick { now = 1. }) in
  let st = starts acts in
  Alcotest.(check int) "both dispatched" 2 (List.length st);
  Alcotest.(check int) "attempt 0" 0 (snd (List.nth st 0));
  Alcotest.(check int) "leased" 2 (M.leased m);
  let m, _ = fold m
      [ M.Spawned { id = "j1"; pid = 101; now = 1. };
        M.Spawned { id = "j2"; pid = 102; now = 1. } ] in
  let m, acts =
    M.step m (M.Exited { id = "j1"; pid = 101; result = Some (result ()); now = 2. })
  in
  Alcotest.(check (list (pair string string))) "j1 completed"
    [ ("j1", "cex") ] (completes acts);
  Alcotest.(check string) "j1 done" "done" (state_of m "j1");
  Alcotest.(check (option string)) "verdict_of" (Some "cex")
    (Option.bind (M.find m "j1") M.verdict_of);
  Alcotest.(check string) "j2 still leased" "leased" (state_of m "j2")

let test_third_job_waits_for_slot () =
  let m = M.create (cfg ~workers:2 ()) in
  let m, _ = fold m (List.init 3 (fun _ -> M.Submit (spec ()))) in
  let m, acts = M.step m (M.Tick { now = 1. }) in
  Alcotest.(check int) "pool-bounded dispatch" 2 (List.length (starts acts));
  Alcotest.(check string) "j3 queued" "pending" (state_of m "j3");
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 7; now = 1. }) in
  let m, _ =
    M.step m (M.Exited { id = "j1"; pid = 7; result = Some (result ()); now = 2. })
  in
  let _, acts = M.step m (M.Tick { now = 2. }) in
  match starts acts with
  | [ (id, _) ] -> Alcotest.(check string) "freed slot goes to j3" "j3" id
  | l -> Alcotest.failf "expected 1 start, got %d" (List.length l)

let test_shed_and_drain_reject () =
  let m = M.create (cfg ~shed:2 ()) in
  let m, _ = fold m [ M.Submit (spec ()); M.Submit (spec ()) ] in
  let m, acts = M.step m (M.Submit (spec ())) in
  Alcotest.(check (list string)) "overloaded"
    [ "overloaded" ]
    (List.filter_map (function M.Reject { reason } -> Some reason | _ -> None) acts);
  Alcotest.(check int) "watermark holds" 2 (List.length m.M.m_jobs);
  let m, _ = M.step m M.Drain in
  let _, acts = M.step m (M.Submit (spec ())) in
  Alcotest.(check (list string)) "draining"
    [ "draining" ]
    (List.filter_map (function M.Reject { reason } -> Some reason | _ -> None) acts)

let test_crash_redelivers_with_backoff () =
  let c = cfg () in
  let m = M.create c in
  let m, _ = M.step m (M.Submit (spec ())) in
  let m, _ = M.step m (M.Tick { now = 1. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 7; now = 1. }) in
  let m, acts = M.step m (M.Exited { id = "j1"; pid = 7; result = None; now = 10. }) in
  let expected = Retry.backoff_s c.M.c_retry ~attempt:1 in
  (match acts with
  | [ M.Redeliver { id = "j1"; attempt = 1; backoff_s }; M.Persist { id = "j1" } ] ->
      Alcotest.(check (float 1e-9)) "backoff follows the Retry schedule"
        expected backoff_s
  | _ -> Alcotest.fail "expected Redeliver + Persist");
  Alcotest.(check string) "pending again" "pending" (state_of m "j1");
  (* Inside the backoff window nothing is dispatched... *)
  let m, acts = M.step m (M.Tick { now = 10. +. (expected /. 2.) }) in
  Alcotest.(check int) "backoff gate holds" 0 (List.length (starts acts));
  (* ...after it, the job goes out with the bumped attempt number. *)
  let _, acts = M.step m (M.Tick { now = 10. +. expected +. 0.001 }) in
  match starts acts with
  | [ (_, attempt) ] -> Alcotest.(check int) "attempt forwarded" 1 attempt
  | l -> Alcotest.failf "expected 1 start, got %d" (List.length l)

let test_quarantine_after_max_crashes () =
  let c = cfg ~max_crashes:3 () in
  let m = ref (M.create c) in
  let quarantines = ref [] in
  let crash now =
    let m', _ = M.step !m (M.Tick { now }) in
    let m', _ = M.step m' (M.Spawned { id = "j1"; pid = 7; now }) in
    let m', acts =
      M.step m' (M.Exited { id = "j1"; pid = 7; result = None; now = now +. 1. })
    in
    m := m';
    quarantines :=
      !quarantines
      @ List.filter_map
          (function M.Quarantine { crashes; _ } -> Some crashes | _ -> None)
          acts
  in
  let m', _ = M.step !m (M.Submit (spec ())) in
  m := m';
  crash 10.;
  crash 20.;
  Alcotest.(check (list int)) "not yet" [] !quarantines;
  crash 30.;
  Alcotest.(check (list int)) "quarantined at the cap" [ 3 ] !quarantines;
  Alcotest.(check string) "parked" "quarantined" (state_of !m "j1");
  Alcotest.(check (option string)) "poison verdict"
    (Some M.crashed_verdict)
    (Option.bind (M.find !m "j1") M.verdict_of);
  (* Quarantine is terminal: a late result must not resurrect the job. *)
  let m', acts =
    M.step !m (M.Exited { id = "j1"; pid = 9; result = Some (result ()); now = 40. })
  in
  Alcotest.(check int) "no late completion" 0 (List.length (completes acts));
  Alcotest.(check (option string)) "verdict unchanged"
    (Some M.crashed_verdict)
    (Option.bind (M.find m' "j1") M.verdict_of)

let test_lease_expiry_kills_and_redelivers () =
  let m = M.create (cfg ~lease_s:5. ()) in
  let m, _ = M.step m (M.Submit (spec ())) in
  let m, _ = M.step m (M.Tick { now = 0. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 77; now = 0. }) in
  (* Renewals keep the lease alive past the horizon... *)
  let m, _ = M.step m (M.Beat { id = "j1"; now = 4. }) in
  let m, acts = M.step m (M.Tick { now = 8. }) in
  Alcotest.(check bool) "beat kept the lease" false
    (List.exists (function M.Kill _ -> true | _ -> false) acts);
  (* ...a stale one is expired with a SIGKILL and redelivered. *)
  let m, acts = M.step m (M.Tick { now = 9.1 }) in
  Alcotest.(check bool) "expired lease killed" true
    (List.exists (function M.Kill { pid = 77; _ } -> true | _ -> false) acts);
  Alcotest.(check bool) "and redelivered" true
    (List.exists (function M.Redeliver _ -> true | _ -> false) acts);
  Alcotest.(check string) "pending" "pending" (state_of m "j1")

let test_late_result_completes_once () =
  (* Attempt 0 (pid 77) expires, attempt 1 (pid 88) is dispatched, then
     pid 77's deposited result arrives: the job completes exactly once,
     with the deterministic verdict, and the replacement is killed. *)
  let m = M.create (cfg ~lease_s:5. ()) in
  let m, _ = M.step m (M.Submit (spec ())) in
  let m, _ = M.step m (M.Tick { now = 0. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 77; now = 0. }) in
  let m, _ = M.step m (M.Tick { now = 6. }) in
  let backoff = Retry.backoff_s (cfg ()).M.c_retry ~attempt:1 in
  let m, acts = M.step m (M.Tick { now = 6.1 +. backoff }) in
  Alcotest.(check int) "redelivered" 1 (List.length (starts acts));
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 88; now = 7. }) in
  let m, acts =
    M.step m (M.Exited { id = "j1"; pid = 77; result = Some (result ()); now = 8. })
  in
  Alcotest.(check (list (pair string string))) "completed from the stale pid"
    [ ("j1", "cex") ] (completes acts);
  Alcotest.(check bool) "replacement killed" true
    (List.exists (function M.Kill { pid = 88; _ } -> true | _ -> false) acts);
  (* The replacement's own exit must now be a no-op, not a second
     completion or a crash count. *)
  let m, acts = M.step m (M.Exited { id = "j1"; pid = 88; result = None; now = 9. }) in
  Alcotest.(check int) "no double bookkeeping" 0 (List.length acts);
  Alcotest.(check string) "done" "done" (state_of m "j1")

let test_drain_finishes_leased_then_exits () =
  let m = M.create (cfg ()) in
  let m, _ = fold m [ M.Submit (spec ()); M.Submit (spec ()); M.Submit (spec ()) ] in
  let m, _ = M.step m (M.Tick { now = 0. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 1; now = 0. }) in
  let m, _ = M.step m (M.Spawned { id = "j2"; pid = 2; now = 0. }) in
  let m, _ = M.step m M.Drain in
  (* No new dispatch while draining — j3 stays pending for the next
     incarnation — and no Exit while leases are live. *)
  let m, acts = M.step m (M.Tick { now = 1. }) in
  Alcotest.(check int) "no dispatch while draining" 0 (List.length (starts acts));
  Alcotest.(check bool) "no exit while leased" false
    (List.exists (function M.Exit -> true | _ -> false) acts);
  let m, _ =
    M.step m (M.Exited { id = "j1"; pid = 1; result = Some (result ()); now = 2. })
  in
  let m, _ =
    M.step m (M.Exited { id = "j2"; pid = 2; result = Some (result ()); now = 2. })
  in
  let m, acts = M.step m (M.Tick { now = 3. }) in
  Alcotest.(check bool) "exit once idle" true
    (List.exists (function M.Exit -> true | _ -> false) acts);
  Alcotest.(check string) "j3 survives as pending" "pending" (state_of m "j3")

let test_tick_over_long_history () =
  (* One worker; j1's lease went stale, j2 waits. A daemon's history of
     finished jobs must not change what a tick decides. *)
  let m = M.create (cfg ~workers:1 ~lease_s:5. ()) in
  let m, _ = fold m [ M.Submit (spec ()); M.Submit (spec ~dut:"divider" ()) ] in
  let m, _ = M.step m (M.Tick { now = 0. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 77; now = 0. }) in
  let tick m = snd (M.step m (M.Tick { now = 9. })) in
  let acts = tick m in
  (match acts with
  | [ M.Kill { id = "j1"; pid = 77 }; M.Redeliver { id = "j1"; attempt = 1; _ };
      M.Persist { id = "j1" }; M.Start { id = "j2"; attempt = 0; _ } ] -> ()
  | _ -> Alcotest.fail "expected Kill, Redeliver, Persist, then Start j2");
  let history =
    List.init 2000 (fun i ->
        { M.j_id = Printf.sprintf "h%d" i; j_spec = spec (); j_crashes = 0;
          j_state = M.Done (result ()) })
  in
  Alcotest.(check bool) "2,000 done jobs change no action" true
    (tick { m with M.m_jobs = history @ m.M.m_jobs } = acts)

(* {1 Crash-storm fuzz}

   Random event streams — including nonsense the daemon would never
   emit (beats for unknown jobs, exits with wrong pids, double exits) —
   against the supervisor's safety contract. Each stream is also
   journaled, with compactions at random points, and must replay to its
   final machine. *)

type fuzz_op = FSubmit | FSpawn | FBeat | FExitOk | FExitCrash | FTick | FDrain

let fuzz_gen =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [ (3, return FSubmit); (4, return FSpawn); (3, return FBeat);
           (4, return FExitOk); (4, return FExitCrash); (6, return FTick);
           (1, return FDrain) ]))

let fuzz_arb =
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l)) fuzz_gen

let test_fuzz_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"crash storm: no lost job, no double completion, immutable verdicts"
       fuzz_arb
       (fun ops ->
         let c = cfg ~workers:2 ~lease_s:3. ~max_crashes:3 ~shed:8 () in
         let m = ref (M.create c) in
         let now = ref 0. in
         let rng = Random.State.make [| List.length ops; 42 |] in
         let dir = temp_dir "serve_fuzz" in
         Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
         let jr = Serve.Store.open_journal ~dir !m in
         let pick_id () =
           match !m.M.m_jobs with
           | [] -> "j0"
           | jobs ->
               (List.nth jobs (Random.State.int rng (List.length jobs))).M.j_id
         in
         let completions = Hashtbl.create 16 in
         let verdicts = Hashtbl.create 16 in
         List.iter
           (fun op ->
             now := !now +. Random.State.float rng 1.5;
             let ev =
               match op with
               | FSubmit -> M.Submit (spec ())
               | FSpawn ->
                   M.Spawned
                     { id = pick_id (); pid = 1 + Random.State.int rng 4; now = !now }
               | FBeat -> M.Beat { id = pick_id (); now = !now }
               | FExitOk ->
                   M.Exited
                     { id = pick_id (); pid = 1 + Random.State.int rng 4;
                       result = Some (result ~verdict:"proof" ~depth:6 ());
                       now = !now }
               | FExitCrash ->
                   M.Exited
                     { id = pick_id (); pid = 1 + Random.State.int rng 4;
                       result = None; now = !now }
               | FTick -> M.Tick { now = !now }
               | FDrain -> M.Drain
             in
             let n_before = List.length !m.M.m_jobs in
             let m', acts = M.step !m ev in
             m := m';
             journal jr m' acts;
             if Random.State.int rng 16 = 0 then Serve.Store.compact jr m';
             (* Jobs are never lost (and ids stay unique). *)
             let n_after = List.length m'.M.m_jobs in
             if n_after < n_before then QCheck.Test.fail_report "job list shrank";
             let ids = List.map (fun j -> j.M.j_id) m'.M.m_jobs in
             if List.length (List.sort_uniq compare ids) <> n_after then
               QCheck.Test.fail_report "duplicate job ids";
             (* A terminal verdict never changes: compare against the
                first-seen terminal verdict of every job. *)
             List.iter
               (fun j ->
                 match (M.verdict_of j, Hashtbl.find_opt verdicts j.M.j_id) with
                 | Some v, Some v0 when v <> v0 ->
                     QCheck.Test.fail_reportf "verdict of %s flipped to %s"
                       j.M.j_id v
                 | Some v, None -> Hashtbl.replace verdicts j.M.j_id v
                 | _ -> ())
               m'.M.m_jobs;
             (* At most one Complete per job, ever. *)
             List.iter
               (fun (id, _) ->
                 let n = 1 + Option.value ~default:0 (Hashtbl.find_opt completions id) in
                 if n > 1 then
                   QCheck.Test.fail_reportf "%s completed %d times" id n;
                 Hashtbl.replace completions id n)
               (completes acts);
             (* Quarantine only at the crash cap; quarantined jobs carry
                the poison verdict. *)
             List.iter
               (fun j ->
                 match j.M.j_state with
                 | M.Quarantined { q_crashes } ->
                     if q_crashes < c.M.c_max_crashes then
                       QCheck.Test.fail_report "quarantined below the cap";
                     if M.verdict_of j <> Some M.crashed_verdict then
                       QCheck.Test.fail_report "quarantine without poison verdict"
                 | _ -> ())
               m'.M.m_jobs;
             (* The pool is never oversubscribed and the queue respects
                the shed watermark. *)
             if M.leased m' > c.M.c_workers then
               QCheck.Test.fail_report "more leases than workers";
             if M.live m' > c.M.c_shed then
               QCheck.Test.fail_report "shed watermark breached")
           ops;
         Serve.Store.close_journal jr;
         match load_matches ~dir c !m with
         | Ok () -> true
         | Error e -> QCheck.Test.fail_report e))

(* {1 The byte-stable queue codec} *)

let test_store_roundtrip_bytes () =
  let dir = Filename.temp_file "serve_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c = cfg () in
  (* A machine with every durable job state: pending, leased (persists
     as pending), done, quarantined. *)
  let m = M.create c in
  let m, _ = fold m
      [ M.Submit (spec ()); M.Submit (spec ~dut:"divider" ~engine:"prove" ());
        M.Submit (spec ~dut:"maple" ()); M.Submit (spec ~dut:"aes" ()) ] in
  let m, _ = M.step m (M.Tick { now = 1. }) in
  let m, _ = M.step m (M.Spawned { id = "j1"; pid = 5; now = 1. }) in
  let m, _ =
    M.step m (M.Exited { id = "j1"; pid = 5; result = Some (result ()); now = 2. })
  in
  let quarantine_j2 m =
    List.fold_left
      (fun m now ->
        let m, _ = M.step m (M.Tick { now }) in
        let m, _ = M.step m (M.Spawned { id = "j2"; pid = 9; now }) in
        let m, _ = M.step m (M.Exited { id = "j2"; pid = 9; result = None; now }) in
        m)
      m [ 10.; 20.; 30. ]
  in
  let m = quarantine_j2 m in
  (* save writes exactly render's bytes, and save∘load is the identity
     on them — the drain/restart stability the smoke test cmp(1)s
     end-to-end. *)
  let roundtrip what m =
    Serve.Store.save ~dir m;
    Alcotest.(check string) (what ^ ": save writes render's bytes")
      (Serve.Store.render m)
      (In_channel.with_open_bin (Serve.Store.path dir) In_channel.input_all);
    match Serve.Store.load ~dir c with
    | Error e -> Alcotest.fail e
    | Ok None -> Alcotest.fail "queue file vanished"
    | Ok (Some m') ->
        Alcotest.(check string) (what ^ ": byte-stable rendering")
          (Serve.Store.render m) (Serve.Store.render m');
        m'
  in
  let m' = roundtrip "four jobs" m in
  Alcotest.(check string) "done survives" "done" (state_of m' "j1");
  Alcotest.(check string) "quarantine survives" "quarantined" (state_of m' "j2");
  Alcotest.(check string) "a lease reloads as pending" "pending" (state_of m' "j3");
  Alcotest.(check int) "crash count survives" 3
    (match M.find m' "j2" with Some j -> j.M.j_crashes | None -> -1);
  Alcotest.(check int) "id counter survives" m.M.m_next m'.M.m_next;
  (* A queue long enough that the streamed save crosses many buffer
     flushes (tens of KB), every state in turn, and a DUT name that
     needs escaping. *)
  let long =
    List.init 400 (fun i ->
        let j_state =
          match i mod 4 with
          | 0 -> M.Pending { not_before = 0. }
          | 1 ->
              M.Leased { pid = 100 + i; attempt = 1; leased_at = 1.; last_beat = 2. }
          | 2 -> M.Done (result ~verdict:"proof" ~depth:(i mod 9) ())
          | _ -> M.Quarantined { q_crashes = 3 }
        in
        let dut =
          if i = 7 then "we\"ird\\dut"
          else List.nth [ "leaky"; "maple"; "aes" ] (i mod 3)
        in
        { M.j_id = Printf.sprintf "j%d" (i + 1); j_spec = spec ~dut ();
          j_crashes = (if i mod 4 = 3 then 3 else i mod 2); j_state })
  in
  ignore (roundtrip "400 jobs" { m with M.m_jobs = long; m_next = 401 });
  (* The autocc.serve/1 bytes themselves. *)
  Alcotest.(check string) "empty queue bytes"
    "{\"schema\":\"autocc.serve/1\",\"next\":1,\"jobs\":[]}\n"
    (Serve.Store.render (M.create c));
  Alcotest.(check string) "one-job queue bytes"
    "{\"schema\":\"autocc.serve/1\",\"next\":2,\"jobs\":[{\"id\":\"j1\",\"dut\":\"leaky\",\
     \"engine\":\"check\",\"max_depth\":6,\"threshold\":2,\"crashes\":0,\
     \"state\":\"pending\",\"verdict\":\"\",\"depth\":-1,\"wall_ms\":0,\
     \"cache_hits\":0}]}\n"
    (Serve.Store.render (fst (M.step (M.create c) (M.Submit (spec ())))));
  (* Missing file and corrupt file. *)
  Sys.remove (Serve.Store.path dir);
  (match Serve.Store.load ~dir c with
  | Ok None -> ()
  | _ -> Alcotest.fail "expected Ok None on a missing queue");
  let oc = open_out (Serve.Store.path dir) in
  output_string oc "{\"schema\":\"bogus\"}\n";
  close_out oc;
  (match Serve.Store.load ~dir c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a malformed queue must refuse to load");
  Sys.remove (Serve.Store.path dir);
  Unix.rmdir dir

(* {1 The queue journal} *)

(* A job's journal record, written by hand: the same object as its
   element of the snapshot's "jobs" array. *)
let record m id =
  match Obs.Json.parse (Serve.Store.render m) with
  | Ok doc -> (
      match Obs.Json.member "jobs" doc with
      | Some (Obs.Json.List l) ->
          Obs.Json.to_string (List.find (fun j -> Obs.Json.str "id" j = Some id) l)
      | _ -> Alcotest.fail "snapshot without jobs")
  | Error e -> Alcotest.fail e

let write_journal dir text =
  Out_channel.with_open_bin (Serve.Store.journal_path dir) (fun oc ->
      output_string oc text)

let test_journal_replay () =
  let dir = temp_dir "serve_journal" in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let c = cfg () in
  (* j1 done, j2 crashed once, j3 pending: five records, oldest first,
     and no snapshot. *)
  let m, lines =
    List.fold_left
      (fun (m, lines) ev ->
        let m, acts = M.step m ev in
        ( m,
          lines
          @ List.filter_map
              (function M.Persist { id } -> Some (record m id) | _ -> None)
              acts ))
      (M.create c, [])
      [ M.Submit (spec ()); M.Submit (spec ~dut:"divider" ());
        M.Submit (spec ~dut:"maple" ()); M.Tick { now = 1. };
        M.Spawned { id = "j1"; pid = 5; now = 1. };
        M.Spawned { id = "j2"; pid = 6; now = 1. };
        M.Exited { id = "j1"; pid = 5; result = Some (result ()); now = 2. };
        M.Exited { id = "j2"; pid = 6; result = None; now = 2. } ]
  in
  Alcotest.(check int) "five records" 5 (List.length lines);
  let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let loads what =
    match load_matches ~dir c m with Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e
  in
  write_journal dir text;
  loads "a journal without a snapshot";
  (* An append cut short by a kill: never acknowledged, so dropped. *)
  let j4 = record (fst (M.step m (M.Submit (spec ~dut:"aes" ())))) "j4" in
  write_journal dir (text ^ String.sub j4 0 20);
  loads "a torn last line";
  (* The same bytes one line earlier are a malformed record. *)
  write_journal dir (String.sub j4 0 20 ^ "\n" ^ text);
  (match Serve.Store.load ~dir c with
  | Error e ->
      Alcotest.(check bool) ("the error names the line: " ^ e) true
        (String.starts_with ~prefix:"queue.jsonl line 1:" e)
  | Ok _ -> Alcotest.fail "a malformed earlier line must refuse to load");
  (* A crash between a compaction's rename and its truncation leaves
     records the snapshot already holds. *)
  Serve.Store.save ~dir m;
  write_journal dir text;
  loads "a journal the snapshot covers";
  (* The last record wins over the snapshot, and a record's id raises
     the id counter. *)
  Serve.Store.save ~dir (M.create c);
  loads "a journal over an older snapshot"

let test_journal_bounded () =
  let dir = temp_dir "serve_journal" in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let c = cfg ~workers:1 ~shed:1000 () in
  let m = ref (M.create c) in
  let jr = Serve.Store.open_journal ~dir !m in
  let now = ref 0. in
  let most = ref 0 in
  let step ev =
    let m', acts = M.step !m ev in
    m := m';
    List.iter
      (function
        | M.Persist { id } ->
            Serve.Store.append jr m' [ id ];
            let text =
              In_channel.with_open_bin (Serve.Store.journal_path dir) In_channel.input_all
            in
            let lines = List.length (String.split_on_char '\n' text) - 1 in
            most := max !most lines;
            if lines > List.length m'.M.m_jobs + 1 then
              Alcotest.failf "%d journal lines for %d jobs" lines
                (List.length m'.M.m_jobs)
        | _ -> ())
      acts
  in
  (* 300 jobs, each accepted, crashed once and completed: three records
     per job. Every tick is past any redelivery backoff. *)
  for i = 1 to 300 do
    let id = Printf.sprintf "j%d" i in
    step (M.Submit (spec ()));
    List.iter
      (fun result ->
        now := !now +. 100.;
        step (M.Tick { now = !now });
        step (M.Spawned { id; pid = i; now = !now });
        step (M.Exited { id; pid = i; result; now = !now }))
      [ None; Some (result ()) ]
  done;
  Alcotest.(check bool) "compaction waits until the journal outgrows the queue" true
    (!most > 100);
  Serve.Store.close_journal jr;
  match load_matches ~dir c !m with Ok () -> () | Error e -> Alcotest.fail e

(* {1 The wire protocol codec} *)

let test_proto_roundtrip () =
  let reqs =
    [ Serve.Proto.Submit (spec ~dut:"cva6" ~engine:"prove" ~depth:9 ~threshold:3 ());
      Serve.Proto.Status; Serve.Proto.Wait "j7"; Serve.Proto.Drain;
      Serve.Proto.Ping ]
  in
  List.iter
    (fun r ->
      match Serve.Proto.request_of_json (Serve.Proto.json_of_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.fail e)
    reqs;
  (match
     Serve.Proto.request_of_json
       (Obs.Json.Obj [ ("schema", Obs.Json.Str "autocc.serve/0"); ("op", Obs.Json.Str "ping") ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema must be refused");
  match
    Serve.Proto.request_of_json
      (Obs.Json.Obj [ ("schema", Obs.Json.Str Serve.Proto.schema); ("op", Obs.Json.Str "nope") ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must be refused"

(* {1 Torn-line race: two writer processes, one O_APPEND fd each}

   The Appender contract is that each line is a single write(2) on an
   O_APPEND descriptor, so concurrent writers interleave only at line
   granularity. Two forked children blast distinct tagged lines at the
   same file with no synchronization; every line in the result must be
   intact and the full set must arrive. A torn line (partial
   interleaving) fails the parse or the set check. *)

let test_appender_two_process_race () =
  let path = Filename.temp_file "serve_append" ".jsonl" in
  Sys.remove path;
  let n = 400 in
  let child tag =
    match Unix.fork () with
    | 0 ->
        (* In the child: write, then _exit without running any
           at_exit/alcotest machinery inherited from the parent. *)
        let exit_code =
          try
            let ap = Obs.Appender.open_path path in
            for i = 0 to n - 1 do
              Obs.Appender.json_line ap
                (Obs.Json.Obj
                   [ ("w", Obs.Json.Str tag); ("i", Obs.Json.Int i);
                     ("pad", Obs.Json.Str (String.make 64 tag.[0])) ])
            done;
            Obs.Appender.close ap;
            0
          with _ -> 1
        in
        Unix._exit exit_code
    | pid -> pid
  in
  let pa = child "a" in
  let pb = child "b" in
  let check_child pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "writer child failed"
  in
  check_child pa;
  check_child pb;
  let ic = open_in path in
  let seen = Hashtbl.create (2 * n) in
  (try
     while true do
       let line = input_line ic in
       match Obs.Json.parse line with
       | Error e -> Alcotest.failf "torn line %S: %s" line e
       | Ok j ->
           let w =
             match Obs.Json.member "w" j with
             | Some (Obs.Json.Str s) -> s
             | _ -> Alcotest.failf "bad line %S" line
           in
           let i =
             match Obs.Json.member "i" j with
             | Some (Obs.Json.Int i) -> i
             | _ -> Alcotest.failf "bad line %S" line
           in
           if Hashtbl.mem seen (w, i) then
             Alcotest.failf "duplicate line %s/%d" w i;
           Hashtbl.replace seen (w, i) ()
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "every line from both writers arrived" (2 * n)
    (Hashtbl.length seen);
  Sys.remove path

let () =
  Alcotest.run "serve"
    [
      ( "machine",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "pool-bounded dispatch" `Quick
            test_third_job_waits_for_slot;
          Alcotest.test_case "shed + draining rejects" `Quick
            test_shed_and_drain_reject;
          Alcotest.test_case "crash -> redeliver with Retry backoff" `Quick
            test_crash_redelivers_with_backoff;
          Alcotest.test_case "quarantine after max crashes" `Quick
            test_quarantine_after_max_crashes;
          Alcotest.test_case "lease expiry kills and redelivers" `Quick
            test_lease_expiry_kills_and_redelivers;
          Alcotest.test_case "late result completes exactly once" `Quick
            test_late_result_completes_once;
          Alcotest.test_case "drain finishes leased jobs then exits" `Quick
            test_drain_finishes_leased_then_exits;
          Alcotest.test_case "tick over a long history" `Quick
            test_tick_over_long_history;
        ] );
      ("fuzz", [ test_fuzz_invariants ]);
      ( "store",
        [ Alcotest.test_case "byte-stable round trip" `Quick
            test_store_roundtrip_bytes;
          Alcotest.test_case "journal replay: torn, malformed, no snapshot" `Quick
            test_journal_replay;
          Alcotest.test_case "journal no longer than the queue" `Quick
            test_journal_bounded ] );
      ( "proto",
        [ Alcotest.test_case "request codec round trip" `Quick
            test_proto_roundtrip ] );
      ( "appender",
        [ Alcotest.test_case "two-process torn-line race" `Quick
            test_appender_two_process_race ] );
    ]
