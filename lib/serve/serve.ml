(* Crash-isolated verification service — see serve.mli. The layering
   keeps every policy decision in the pure [Machine] and every effect
   (sockets, fork/exec, signals, files) in [Daemon]/[Worker], so the
   supervisor lifecycle is tested as a fold and the daemon loop stays a
   thin interpreter of [Machine.action]s. *)

module Json = Obs.Json

let ( // ) = Filename.concat

let atomic_write_json path j =
  Obs.Files.write_atomic ~path (Json.to_string j ^ "\n")

module Machine = struct
  type spec = {
    sp_dut : string;
    sp_engine : string;
    sp_depth : int;
    sp_threshold : int;
  }

  type result = {
    w_verdict : string;
    w_depth : int;
    w_wall_ms : int;
    w_cache_hits : int;
  }

  type jstate =
    | Pending of { not_before : float }
    | Leased of { pid : int; attempt : int; leased_at : float; last_beat : float }
    | Done of result
    | Quarantined of { q_crashes : int }

  type job = { j_id : string; j_spec : spec; j_crashes : int; j_state : jstate }

  type config = {
    c_workers : int;
    c_lease_s : float;
    c_max_crashes : int;
    c_shed : int;
    c_retry : Retry.policy;
  }

  let default_config =
    {
      c_workers = 2;
      c_lease_s = 10.;
      c_max_crashes = 3;
      c_shed = 64;
      c_retry = Retry.default;
    }

  type t = {
    m_cfg : config;
    m_jobs : job list;
    m_next : int;
    m_draining : bool;
  }

  type event =
    | Submit of spec
    | Spawned of { id : string; pid : int; now : float }
    | Beat of { id : string; now : float }
    | Exited of { id : string; pid : int; result : result option; now : float }
    | Tick of { now : float }
    | Drain

  type action =
    | Accept of { id : string }
    | Reject of { reason : string }
    | Start of { id : string; spec : spec; attempt : int }
    | Kill of { id : string; pid : int }
    | Redeliver of { id : string; attempt : int; backoff_s : float }
    | Quarantine of { id : string; crashes : int }
    | Complete of { id : string; verdict : string }
    | Persist
    | Exit

  let create cfg = { m_cfg = cfg; m_jobs = []; m_next = 1; m_draining = false }
  let find t id = List.find_opt (fun j -> j.j_id = id) t.m_jobs

  let is_live j =
    match j.j_state with Pending _ | Leased _ -> true | _ -> false

  let live t = List.length (List.filter is_live t.m_jobs)

  let leased t =
    List.length
      (List.filter
         (fun j -> match j.j_state with Leased _ -> true | _ -> false)
         t.m_jobs)

  let crashed_verdict = "unknown:worker_crashed"

  let verdict_of j =
    match j.j_state with
    | Done r -> Some r.w_verdict
    | Quarantined _ -> Some crashed_verdict
    | Pending _ | Leased _ -> None

  let state_name j =
    match j.j_state with
    | Pending _ -> "pending"
    | Leased _ -> "leased"
    | Done _ -> "done"
    | Quarantined _ -> "quarantined"

  let update t id f =
    { t with m_jobs = List.map (fun j -> if j.j_id = id then f j else j) t.m_jobs }

  (* One attempt died. Quarantine is reachable only from here — only
     jobs without a conclusive verdict pass through — which is what
     makes "a crash can never flip Sat/Unsat" structural rather than
     policed. *)
  let crashed t j ~now =
    let crashes = j.j_crashes + 1 in
    if crashes >= t.m_cfg.c_max_crashes then
      ( update t j.j_id (fun j ->
            { j with j_crashes = crashes; j_state = Quarantined { q_crashes = crashes } }),
        [ Quarantine { id = j.j_id; crashes }; Persist ] )
    else
      let backoff_s = Retry.backoff_s t.m_cfg.c_retry ~attempt:crashes in
      ( update t j.j_id (fun j ->
            { j with j_crashes = crashes; j_state = Pending { not_before = now +. backoff_s } }),
        [ Redeliver { id = j.j_id; attempt = crashes; backoff_s }; Persist ] )

  let complete t id (r : result) extra =
    ( update t id (fun j -> { j with j_state = Done r }),
      extra @ [ Complete { id; verdict = r.w_verdict }; Persist ] )

  let step t ev =
    match ev with
    | Submit spec ->
        if t.m_draining then (t, [ Reject { reason = "draining" } ])
        else if live t >= t.m_cfg.c_shed then
          (t, [ Reject { reason = "overloaded" } ])
        else
          let id = "j" ^ string_of_int t.m_next in
          let job =
            { j_id = id; j_spec = spec; j_crashes = 0; j_state = Pending { not_before = 0. } }
          in
          ( { t with m_jobs = t.m_jobs @ [ job ]; m_next = t.m_next + 1 },
            [ Accept { id }; Persist ] )
    | Spawned { id; pid; now } -> (
        match find t id with
        | Some { j_state = Leased l; _ } when l.pid = 0 ->
            ( update t id (fun j ->
                  { j with j_state = Leased { l with pid; leased_at = now; last_beat = now } }),
              [] )
        | _ -> (t, []))
    | Beat { id; now } -> (
        match find t id with
        | Some { j_state = Leased l; _ } when now > l.last_beat ->
            ( update t id (fun j ->
                  { j with j_state = Leased { l with last_beat = now } }),
              [] )
        | _ -> (t, []))
    | Exited { id; pid; result; now } -> (
        match find t id with
        | None -> (t, [])
        | Some j -> (
            match (j.j_state, result) with
            (* Terminal states are immutable: whatever a late worker
               reports, a recorded verdict never changes. *)
            | (Done _ | Quarantined _), _ -> (t, [])
            | Leased l, Some r when l.pid = pid || l.pid = 0 ->
                complete t id r []
            | Leased l, None when l.pid = pid || l.pid = 0 -> crashed t j ~now
            | Leased l, Some r ->
                (* A previously expired attempt finished after all: the
                   verdict is deterministic, so take it and stop the
                   replacement — completing twice is the bug, not
                   completing from a stale pid. *)
                complete t id r [ Kill { id; pid = l.pid } ]
            | Leased _, None -> (t, [])
            | Pending _, Some r -> complete t id r []
            | Pending _, None -> (t, [])))
    | Drain -> ({ t with m_draining = true }, [])
    | Tick { now } ->
        (* Expire leases whose beat went stale. *)
        let t, acts =
          List.fold_left
            (fun (t, acts) j0 ->
              match find t j0.j_id with
              | Some ({ j_state = Leased l; _ } as j)
                when now -. l.last_beat > t.m_cfg.c_lease_s ->
                  let kill =
                    if l.pid > 0 then [ Kill { id = j.j_id; pid = l.pid } ] else []
                  in
                  let t, acts' = crashed t j ~now in
                  (t, acts @ kill @ acts')
              | _ -> (t, acts))
            (t, []) t.m_jobs
        in
        if t.m_draining then
          if leased t = 0 then (t, acts @ [ Exit ]) else (t, acts)
        else
          (* Fill the pool from the pending queue in submit order,
             skipping jobs still inside their redelivery backoff. *)
          let slots = ref (t.m_cfg.c_workers - leased t) in
          let t, starts =
            List.fold_left
              (fun (t, starts) j ->
                match j.j_state with
                | Pending { not_before } when !slots > 0 && not_before <= now ->
                    decr slots;
                    ( update t j.j_id (fun j ->
                          {
                            j with
                            j_state =
                              Leased
                                {
                                  pid = 0;
                                  attempt = j.j_crashes;
                                  leased_at = now;
                                  last_beat = now;
                                };
                          }),
                      Start { id = j.j_id; spec = j.j_spec; attempt = j.j_crashes }
                      :: starts )
                | _ -> (t, starts))
              (t, []) t.m_jobs
          in
          (t, acts @ List.rev starts)
end

module Store = struct
  let schema = "autocc.serve/1"
  let path dir = dir // "queue.json"

  (* The durable form of a job: fixed field order, ints and strings
     only, no timestamps, leases flattened to pending — every bit of
     volatile state is excluded so the rendering is byte-stable across
     save/load and across a drain/restart cycle. *)
  let json_of_job (j : Machine.job) =
    let state =
      match j.j_state with
      | Machine.Pending _ | Machine.Leased _ -> "pending"
      | Machine.Done _ -> "done"
      | Machine.Quarantined _ -> "quarantined"
    in
    let verdict, depth, wall_ms, cache_hits =
      match j.j_state with
      | Machine.Done r -> (r.w_verdict, r.w_depth, r.w_wall_ms, r.w_cache_hits)
      | Machine.Quarantined _ -> (Machine.crashed_verdict, -1, 0, 0)
      | _ -> ("", -1, 0, 0)
    in
    Json.Obj
      [
        ("id", Json.Str j.j_id);
        ("dut", Json.Str j.j_spec.sp_dut);
        ("engine", Json.Str j.j_spec.sp_engine);
        ("max_depth", Json.Int j.j_spec.sp_depth);
        ("threshold", Json.Int j.j_spec.sp_threshold);
        ("crashes", Json.Int j.j_crashes);
        ("state", Json.Str state);
        ("verdict", Json.Str verdict);
        ("depth", Json.Int depth);
        ("wall_ms", Json.Int wall_ms);
        ("cache_hits", Json.Int cache_hits);
      ]

  let render (t : Machine.t) =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str schema);
           ("next", Json.Int t.m_next);
           ("jobs", Json.List (List.map json_of_job t.m_jobs));
         ])
    ^ "\n"

  let save ~dir t = Obs.Files.write_atomic ~path:(path dir) (render t)

  let job_of_json j =
    let ( let* ) = Result.bind in
    let req f name = Option.to_result ~none:("queue.json: missing " ^ name) (f name j) in
    let* id = req Json.str "id" in
    let* dut = req Json.str "dut" in
    let* engine = req Json.str "engine" in
    let* depth = req Json.int "max_depth" in
    let* threshold = req Json.int "threshold" in
    let* crashes = req Json.int "crashes" in
    let* state = req Json.str "state" in
    let spec =
      { Machine.sp_dut = dut; sp_engine = engine; sp_depth = depth; sp_threshold = threshold }
    in
    let* j_state =
      match state with
      | "pending" -> Ok (Machine.Pending { not_before = 0. })
      | "quarantined" -> Ok (Machine.Quarantined { q_crashes = crashes })
      | "done" ->
          let* verdict = req Json.str "verdict" in
          let* w_depth = req Json.int "depth" in
          let* wall_ms = req Json.int "wall_ms" in
          let* cache_hits = req Json.int "cache_hits" in
          Ok
            (Machine.Done
               { w_verdict = verdict; w_depth; w_wall_ms = wall_ms; w_cache_hits = cache_hits })
      | other -> Error ("queue.json: unknown job state " ^ other)
    in
    Ok { Machine.j_id = id; j_spec = spec; j_crashes = crashes; j_state }

  let load ~dir cfg =
    let p = path dir in
    if not (Sys.file_exists p) then Ok None
    else
      let ic = open_in_bin p in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match Json.parse s with
      | Error msg -> Error ("queue.json: " ^ msg)
      | Ok j when Json.str "schema" j <> Some schema ->
          Error "queue.json: unrecognized schema"
      | Ok j -> (
          let ( let* ) = Result.bind in
          let* next = Option.to_result ~none:"queue.json: missing next" (Json.int "next" j) in
          let* jobs =
            match Json.member "jobs" j with
            | Some (Json.List l) ->
                List.fold_left
                  (fun acc e ->
                    let* acc = acc in
                    let* job = job_of_json e in
                    Ok (job :: acc))
                  (Ok []) l
                |> Result.map List.rev
            | _ -> Error "queue.json: missing jobs"
          in
          Ok
            (Some
               { Machine.m_cfg = cfg; m_jobs = jobs; m_next = next; m_draining = false }))
end

module Proto = struct
  let schema = "autocc.serve/1"

  type request =
    | Submit of Machine.spec
    | Status
    | Wait of string
    | Drain
    | Ping

  let json_of_request = function
    | Submit s ->
        Json.Obj
          [
            ("schema", Json.Str schema);
            ("op", Json.Str "submit");
            ("dut", Json.Str s.Machine.sp_dut);
            ("engine", Json.Str s.sp_engine);
            ("max_depth", Json.Int s.sp_depth);
            ("threshold", Json.Int s.sp_threshold);
          ]
    | Status -> Json.Obj [ ("schema", Json.Str schema); ("op", Json.Str "status") ]
    | Wait id ->
        Json.Obj
          [ ("schema", Json.Str schema); ("op", Json.Str "wait"); ("job", Json.Str id) ]
    | Drain -> Json.Obj [ ("schema", Json.Str schema); ("op", Json.Str "drain") ]
    | Ping -> Json.Obj [ ("schema", Json.Str schema); ("op", Json.Str "ping") ]

  let request_of_json j =
    if Json.str "schema" j <> Some schema then
      Error ("expected schema " ^ schema)
    else
      match Json.str "op" j with
      | Some "submit" -> (
          match (Json.str "dut" j, Json.int "max_depth" j) with
          | Some dut, Some depth ->
              Ok
                (Submit
                   {
                     Machine.sp_dut = dut;
                     sp_engine = Option.value ~default:"check" (Json.str "engine" j);
                     sp_depth = depth;
                     sp_threshold = Option.value ~default:2 (Json.int "threshold" j);
                   })
          | _ -> Error "submit: dut and max_depth are required")
      | Some "status" -> Ok Status
      | Some "wait" -> (
          match Json.str "job" j with
          | Some id -> Ok (Wait id)
          | None -> Error "wait: job is required")
      | Some "drain" -> Ok Drain
      | Some "ping" -> Ok Ping
      | Some other -> Error ("unknown op " ^ other)
      | None -> Error "missing op"

  let ok fields =
    Json.Obj (("schema", Json.Str schema) :: ("ok", Json.Bool true) :: fields)

  let error msg =
    Json.Obj
      [ ("schema", Json.Str schema); ("ok", Json.Bool false); ("error", Json.Str msg) ]

  let json_of_job (j : Machine.job) =
    let verdict, depth, wall_ms =
      match j.j_state with
      | Machine.Done r -> (r.w_verdict, r.w_depth, r.w_wall_ms)
      | Machine.Quarantined _ -> (Machine.crashed_verdict, -1, 0)
      | _ -> ("", -1, 0)
    in
    Json.Obj
      [
        ("id", Json.Str j.j_id);
        ("dut", Json.Str j.j_spec.sp_dut);
        ("engine", Json.Str j.j_spec.sp_engine);
        ("max_depth", Json.Int j.j_spec.sp_depth);
        ("threshold", Json.Int j.j_spec.sp_threshold);
        ("state", Json.Str (Machine.state_name j));
        ("crashes", Json.Int j.j_crashes);
        ("verdict", Json.Str verdict);
        ("depth", Json.Int depth);
        ("wall_ms", Json.Int wall_ms);
      ]
end

module Client = struct
  let socket_path dir = dir // "serve.sock"

  let write_all fd s =
    let b = Bytes.of_string s in
    let rec go pos len =
      if len > 0 then begin
        let n = Unix.write fd b pos len in
        go (pos + n) (len - n)
      end
    in
    go 0 (Bytes.length b)

  (* One response line, with a deadline: the server answers every
     request with exactly one line, so reading to '\n' (or EOF) is the
     whole framing. *)
  let read_line_fd fd ~deadline =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      if Buffer.length buf > 1_000_000 then Error "response too large"
      else
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then Error "timeout"
        else
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> Error "timeout"
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                  if Buffer.length buf > 0 then Ok (Buffer.contents buf)
                  else Error "connection closed"
              | n -> (
                  match Bytes.index_opt (Bytes.sub chunk 0 n) '\n' with
                  | Some i ->
                      Buffer.add_subbytes buf chunk 0 i;
                      Ok (Buffer.contents buf)
                  | None ->
                      Buffer.add_subbytes buf chunk 0 n;
                      go ()))
    in
    go ()

  let request ~dir ?(timeout_s = 30.) j =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    match Unix.connect fd (Unix.ADDR_UNIX (socket_path dir)) with
    | exception Unix.Unix_error (e, _, _) ->
        Error ("cannot reach service at " ^ socket_path dir ^ ": " ^ Unix.error_message e)
    | () -> (
        let deadline = Unix.gettimeofday () +. timeout_s in
        match write_all fd (Json.to_string j ^ "\n") with
        | exception Unix.Unix_error (e, _, _) ->
            Error ("send failed: " ^ Unix.error_message e)
        | () -> (
            match read_line_fd fd ~deadline with
            | Error _ as e -> e
            | Ok line -> (
                match Json.parse line with
                | Error msg -> Error ("malformed response: " ^ msg)
                | Ok r -> (
                    match Json.member "ok" r with
                    | Some (Json.Bool true) -> Ok r
                    | Some (Json.Bool false) ->
                        Error
                          (Option.value ~default:"request refused" (Json.str "error" r))
                    | _ -> Error "malformed response: missing ok"))))

  let submit ~dir spec =
    match request ~dir (Proto.json_of_request (Proto.Submit spec)) with
    | Error _ as e -> e
    | Ok r -> (
        match Json.str "job" r with
        | Some id -> Ok id
        | None -> Error "malformed response: missing job")

  let wait ~dir ?(timeout_s = 600.) id =
    request ~dir ~timeout_s (Proto.json_of_request (Proto.Wait id))

  let status ~dir = request ~dir (Proto.json_of_request Proto.Status)

  let ping ~dir =
    match request ~dir ~timeout_s:2. (Proto.json_of_request Proto.Ping) with
    | Ok _ -> true
    | Error _ -> false
end

(* {1 Per-job files}

   jobs/<id>.json   the immutable spec, written at accept time
   hb/<id>.json     the worker's lease renewal, atomically rewritten
   results/<id>.json the deposited verdict, atomically written once

   All three are tmp+rename so the daemon never reads a torn file. *)

let job_schema = "autocc.serve.job/1"
let lease_schema = "autocc.serve.lease/1"
let result_schema = "autocc.serve.result/1"

let job_file dir id = dir // "jobs" // (id ^ ".json")
let lease_file dir id = dir // "hb" // (id ^ ".json")
let result_file dir id = dir // "results" // (id ^ ".json")

let write_job_spec dir id (s : Machine.spec) =
  atomic_write_json (job_file dir id)
    (Json.Obj
       [
         ("schema", Json.Str job_schema);
         ("id", Json.Str id);
         ("dut", Json.Str s.sp_dut);
         ("engine", Json.Str s.sp_engine);
         ("max_depth", Json.Int s.sp_depth);
         ("threshold", Json.Int s.sp_threshold);
       ])

let read_job_spec dir id =
  let p = job_file dir id in
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Error msg -> failwith (p ^ ": " ^ msg)
  | Ok j -> (
      if Json.str "schema" j <> Some job_schema then failwith (p ^ ": bad schema");
      match
        ( Json.str "dut" j,
          Json.str "engine" j,
          Json.int "max_depth" j,
          Json.int "threshold" j )
      with
      | Some dut, Some engine, Some depth, Some threshold ->
          { Machine.sp_dut = dut; sp_engine = engine; sp_depth = depth; sp_threshold = threshold }
      | _ -> failwith (p ^ ": missing fields"))

let read_result dir id : Machine.result option =
  let p = result_file dir id in
  if not (Sys.file_exists p) then None
  else
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Error _ -> None
    | Ok j ->
        if Json.str "schema" j <> Some result_schema || Json.str "id" j <> Some id
        then None
        else
          (match
             ( Json.str "verdict" j,
               Json.int "depth" j,
               Json.int "wall_ms" j,
               Json.int "cache_hits" j )
           with
          | Some w_verdict, Some w_depth, Some w_wall_ms, Some w_cache_hits ->
              Some { Machine.w_verdict; w_depth; w_wall_ms; w_cache_hits }
          | _ -> None)

let read_lease dir id =
  let p = lease_file dir id in
  if not (Sys.file_exists p) then None
  else
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with
    | Error _ -> None
    | Ok j -> (
        if Json.str "schema" j <> Some lease_schema then None
        else
          match (Json.int "pid" j, Json.num "beat_s" j) with
          | Some pid, Some beat -> Some (pid, beat)
          | _ -> None)

module Worker = struct
  let renew_lease dir id attempt =
    (* The "serve.lease" site models a lost renewal (NFS hiccup, paging
       stall): the write is skipped, the solve continues, and the
       supervisor's expiry machinery must cope. *)
    if not (Fault.fire "serve.lease") then
      atomic_write_json (lease_file dir id)
        (Json.Obj
           [
             ("schema", Json.Str lease_schema);
             ("pid", Json.Int (Unix.getpid ()));
             ("attempt", Json.Int attempt);
             ("beat_s", Json.Float (Unix.gettimeofday ()));
           ])

  let crash_probe () =
    (* The "serve.worker" site is the real thing, not an exception the
       runtime could catch: SIGKILL to self, exactly like the OOM
       killer. *)
    if Fault.fire "serve.worker" then Unix.kill (Unix.getpid ()) Sys.sigkill

  let run ~dir ~job_id ~attempt =
    if attempt > 0 then Fault.reseed ~offset:attempt;
    let spec = read_job_spec dir job_id in
    Obs.Bus.attach ~file:(dir // "events.jsonl") ();
    Fun.protect ~finally:Obs.Bus.detach @@ fun () ->
    Obs.Bus.with_label (job_id ^ "/" ^ spec.sp_dut) @@ fun () ->
    Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = spec.sp_depth });
    renew_lease dir job_id attempt;
    crash_probe ();
    let cache =
      match Sys.getenv_opt "AUTOCC_CACHE_DIR" with
      | Some d when d <> "" -> Some (Cache.create ~dir:d ())
      | _ -> None
    in
    let dut = Duts.Bundled.build spec.sp_dut in
    let ft = Duts.Bundled.ft_for ~threshold:spec.sp_threshold spec.sp_dut dut in
    let progress _k =
      renew_lease dir job_id attempt;
      crash_probe ()
    in
    let t0 = Unix.gettimeofday () in
    let verdict, depth =
      match spec.sp_engine with
      | "prove" -> (
          match Autocc.Ft.prove ~max_depth:spec.sp_depth ~progress ?cache ft with
          | Bmc.Proved (k, _) -> ("proved", k)
          | Bmc.Refuted (cex, _) -> ("refuted", cex.Bmc.cex_depth)
          | Bmc.Unknown (reason, st) ->
              ("unknown:" ^ Bmc.unknown_reason_to_string reason, st.Bmc.depth_reached))
      | _ -> (
          match Autocc.Ft.check ~max_depth:spec.sp_depth ~progress ?cache ft with
          | Bmc.Cex (cex, _) -> ("cex", cex.Bmc.cex_depth)
          | Bmc.Bounded_proof st -> ("proof", st.Bmc.depth_reached)
          | Bmc.Unknown (reason, st) ->
              ("unknown:" ^ Bmc.unknown_reason_to_string reason, st.Bmc.depth_reached))
    in
    let wall = Unix.gettimeofday () -. t0 in
    let wall_ms = int_of_float (wall *. 1000.) in
    let hits, misses, stores =
      match cache with
      | None -> (0, 0, 0)
      | Some c ->
          let st = Cache.stats c in
          (st.Cache.hits, st.Cache.misses, st.Cache.stores)
    in
    Obs.Bus.publish (Obs.Bus.Job_done { verdict; wall_s = wall });
    atomic_write_json (result_file dir job_id)
      (Json.Obj
         [
           ("schema", Json.Str result_schema);
           ("id", Json.Str job_id);
           ("verdict", Json.Str verdict);
           ("depth", Json.Int depth);
           ("wall_ms", Json.Int wall_ms);
           ("cache_hits", Json.Int hits);
         ]);
    (* One ledger row per delivery, beside the daemon's queue: the
       service directory is self-describing post-mortem. *)
    (try
       Obs.Ledger.append ~dir
         {
           Obs.Ledger.r_id = Obs.Ledger.run_id () ^ "-" ^ job_id;
           r_tool = "worker";
           r_subject = spec.sp_dut;
           r_config =
             Printf.sprintf "%s:depth=%d:threshold=%d:attempt=%d" spec.sp_engine
               spec.sp_depth spec.sp_threshold attempt;
           r_dut_hash = "";
           r_ts = t0;
           r_wall_s = wall;
           r_cpu_s = Sys.time ();
           r_cache_hits = hits;
           r_cache_misses = misses;
           r_cache_stores = stores;
           r_asserts =
             [
               {
                 Obs.Ledger.a_name = "property";
                 a_verdict = verdict;
                 a_depth = depth;
                 a_wall_s = wall;
                 a_cached = hits > 0;
               };
             ];
           r_artifacts = [ result_file dir job_id ];
         }
     with Sys_error _ | Unix.Unix_error _ -> ());
    0
end

module Daemon = struct
  type config = {
    d_dir : string;
    d_workers : int;
    d_lease_s : float;
    d_max_crashes : int;
    d_shed : int;
    d_retry : Retry.policy;
    d_exe : string;
    d_cache_dir : string option;
    d_metrics_file : string option;
    d_quiet : bool;
  }

  let default ~dir ~exe =
    {
      d_dir = dir;
      d_workers = Machine.default_config.Machine.c_workers;
      d_lease_s = Machine.default_config.Machine.c_lease_s;
      d_max_crashes = Machine.default_config.Machine.c_max_crashes;
      d_shed = Machine.default_config.Machine.c_shed;
      d_retry = Retry.default;
      d_exe = exe;
      d_cache_dir = None;
      d_metrics_file = None;
      d_quiet = false;
    }

  let pid_path dir = dir // "serve.pid"

  let pid_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
    | exception Unix.Unix_error _ -> false

  (* Aggregate per-job liveness into the campaign heartbeat schema so
     `autocc top` renders service jobs exactly like campaign entries:
     entry keys match the job half of the workers' "id/dut" bus
     labels. *)
  let write_heartbeats dir (m : Machine.t) started =
    let entries =
      List.filter_map
        (fun (j : Machine.job) ->
          let start =
            match Hashtbl.find_opt started j.Machine.j_id with
            | Some t -> t
            | None -> 0.
          in
          let beat, fin =
            match j.Machine.j_state with
            | Machine.Leased l -> (l.last_beat, false)
            | Machine.Done _ | Machine.Quarantined _ -> (start, true)
            | Machine.Pending _ -> (start, false)
          in
          if start = 0. then None
          else
            Some
              ( j.Machine.j_id,
                Json.Obj
                  [
                    ("started_s", Json.Float start);
                    ("beat_s", Json.Float beat);
                    ("done", Json.Bool fin);
                  ] ))
        m.Machine.m_jobs
    in
    try
      atomic_write_json (dir // "heartbeats.json")
        (Json.Obj
           [
             ("schema", Json.Str "autocc.heartbeat/1");
             ("pid", Json.Int (Unix.getpid ()));
             ("entries", Json.Obj entries);
           ])
    with Sys_error _ -> ()

  let m_queue = lazy (Obs.Metrics.gauge "serve.queue_depth")
  let m_leased = lazy (Obs.Metrics.gauge "serve.leased")
  let m_submitted = lazy (Obs.Metrics.counter "serve.submitted")
  let m_completed = lazy (Obs.Metrics.counter "serve.completed")
  let m_crashes = lazy (Obs.Metrics.counter "serve.crashes")
  let m_quarantined = lazy (Obs.Metrics.counter "serve.quarantined")
  let m_shed = lazy (Obs.Metrics.counter "serve.shed")

  let run cfg =
    let dir = cfg.d_dir in
    Obs.Files.mkdir_p dir;
    List.iter
      (fun d -> Obs.Files.mkdir_p (dir // d))
      [ "jobs"; "hb"; "results"; "logs" ];
    (* Exactly one daemon per directory: two supervisors would lease the
       same jobs to different pools. *)
    (match
       let ic = open_in (pid_path dir) in
       let line = try input_line ic with End_of_file -> "" in
       close_in ic;
       int_of_string_opt (String.trim line)
     with
    | Some pid when pid <> Unix.getpid () && pid_alive pid ->
        Printf.eprintf "autocc serve: %s is already served by pid %d\n%!" dir pid;
        exit 1
    | _ | (exception Sys_error _) -> ());
    let oc = open_out (pid_path dir) in
    output_string oc (string_of_int (Unix.getpid ()) ^ "\n");
    close_out oc;
    if cfg.d_metrics_file <> None then Obs.Metrics.enable ();
    Option.iter Obs.Exposition.start cfg.d_metrics_file;
    Option.iter Obs.Files.mkdir_p cfg.d_cache_dir;
    let mcfg =
      {
        Machine.c_workers = cfg.d_workers;
        c_lease_s = cfg.d_lease_s;
        c_max_crashes = cfg.d_max_crashes;
        c_shed = cfg.d_shed;
        c_retry = cfg.d_retry;
      }
    in
    let machine =
      ref
        (match Store.load ~dir mcfg with
        | Ok (Some m) -> m
        | Ok None -> Machine.create mcfg
        | Error msg -> failwith ("autocc serve: " ^ msg))
    in
    let say fmt =
      Printf.ksprintf
        (fun s -> if not cfg.d_quiet then Printf.printf "serve: %s\n%!" s)
        fmt
    in
    let started : (string, float) Hashtbl.t = Hashtbl.create 16 in
    let dirty = ref true in
    let exit_requested = ref false in
    let pid_to_id : (int * string) list ref = ref [] in
    let clients : (Unix.file_descr * Buffer.t) list ref = ref [] in
    let waiters : (Unix.file_descr * string) list ref = ref [] in
    let drain_req = Atomic.make false in
    let drained = ref false in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Sys.set_signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set drain_req true));
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set drain_req true));
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let sock_path = Client.socket_path dir in
    (try Sys.remove sock_path with Sys_error _ -> ());
    Unix.bind sock (Unix.ADDR_UNIX sock_path);
    Unix.listen sock 16;
    let drop_client fd =
      clients := List.remove_assoc fd !clients;
      waiters := List.filter (fun (w, _) -> w <> fd) !waiters;
      try Unix.close fd with Unix.Unix_error _ -> ()
    in
    let reply fd j =
      (try Client.write_all fd (Json.to_string j ^ "\n")
       with Unix.Unix_error _ -> ());
      drop_client fd
    in
    let spawn id attempt =
      let log = dir // "logs" // Printf.sprintf "%s-%d.log" id attempt in
      let logfd =
        Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let argv =
        [|
          cfg.d_exe; "worker"; "--dir"; dir; "--job"; id;
          "--attempt"; string_of_int attempt;
        |]
      in
      let env =
        let base =
          Array.to_list (Unix.environment ())
          |> List.filter (fun kv ->
                 not (String.length kv >= 17 && String.sub kv 0 17 = "AUTOCC_CACHE_DIR="))
        in
        let extra =
          match cfg.d_cache_dir with
          | Some d -> [ "AUTOCC_CACHE_DIR=" ^ d ]
          | None -> []
        in
        Array.of_list (base @ extra)
      in
      let r =
        match Unix.create_process_env cfg.d_exe argv env devnull logfd logfd with
        | pid -> Some pid
        | exception Unix.Unix_error (e, _, _) ->
            say "spawn of %s failed: %s" id (Unix.error_message e);
            None
      in
      Unix.close logfd;
      r
    in
    let rec feed ev =
      let m, acts = Machine.step !machine ev in
      machine := m;
      List.iter apply acts;
      acts
    and apply = function
      | Machine.Accept { id } ->
          Obs.Metrics.add (Lazy.force m_submitted) 1;
          Hashtbl.replace started id (Unix.gettimeofday ());
          (match Machine.find !machine id with
          | Some j -> write_job_spec dir id j.Machine.j_spec
          | None -> ());
          say "%s accepted (%s)"
            id
            (match Machine.find !machine id with
            | Some j -> j.Machine.j_spec.Machine.sp_dut
            | None -> "?")
      | Machine.Reject { reason } ->
          if reason = "overloaded" then Obs.Metrics.add (Lazy.force m_shed) 1
      | Machine.Start { id; spec = _; attempt } -> (
          match spawn id attempt with
          | Some pid ->
              pid_to_id := (pid, id) :: !pid_to_id;
              say "%s leased to pid %d (attempt %d)" id pid attempt;
              ignore (feed (Machine.Spawned { id; pid; now = Unix.gettimeofday () }))
          | None ->
              (* Count a failed fork as a crash of this attempt. *)
              ignore
                (feed
                   (Machine.Exited
                      { id; pid = 0; result = None; now = Unix.gettimeofday () })))
      | Machine.Kill { id; pid } ->
          say "%s: killing worker pid %d" id pid;
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | Machine.Redeliver { id; attempt; backoff_s } ->
          Obs.Metrics.add (Lazy.force m_crashes) 1;
          Obs.Bus.publish ~label:id
            (Obs.Bus.Retry { attempt; reason = "worker_crashed" });
          say "%s crashed; redelivery %d in %.2fs" id attempt backoff_s
      | Machine.Quarantine { id; crashes } ->
          Obs.Metrics.add (Lazy.force m_crashes) 1;
          Obs.Metrics.add (Lazy.force m_quarantined) 1;
          Obs.Bus.publish ~label:id
            (Obs.Bus.Unknown { reason = "worker_crashed" });
          say "%s quarantined after %d crashes" id crashes
      | Machine.Complete { id; verdict } ->
          Obs.Metrics.add (Lazy.force m_completed) 1;
          say "%s done: %s" id verdict
      | Machine.Persist -> dirty := true
      | Machine.Exit -> exit_requested := true
    in
    (* A pending job whose result file already exists completed just
       before a daemon crash/restart lost the Done transition — absorb
       the deposit instead of re-solving. *)
    List.iter
      (fun (j : Machine.job) ->
        match j.Machine.j_state with
        | Machine.Pending _ -> (
            match read_result dir j.Machine.j_id with
            | Some r ->
                ignore
                  (feed
                     (Machine.Exited
                        {
                          id = j.Machine.j_id;
                          pid = 0;
                          result = Some r;
                          now = Unix.gettimeofday ();
                        }))
            | None -> ())
        | _ -> ())
      !machine.Machine.m_jobs;
    Obs.Bus.attach ~file:(dir // "events.jsonl") ();
    say "listening on %s (%d workers, lease %.1fs, quarantine after %d)"
      sock_path cfg.d_workers cfg.d_lease_s cfg.d_max_crashes;
    let handle_request fd line =
      match Json.parse line with
      | Error msg -> reply fd (Proto.error ("malformed request: " ^ msg))
      | Ok j -> (
          match Proto.request_of_json j with
          | Error msg -> reply fd (Proto.error msg)
          | Ok (Proto.Submit spec) ->
              if not (List.mem spec.Machine.sp_dut Duts.Bundled.known) then
                reply fd (Proto.error ("unknown dut " ^ spec.Machine.sp_dut))
              else if not (List.mem spec.Machine.sp_engine [ "check"; "prove" ]) then
                reply fd (Proto.error ("unknown engine " ^ spec.Machine.sp_engine))
              else if spec.Machine.sp_depth < 1 || spec.Machine.sp_threshold < 1 then
                reply fd (Proto.error "max_depth and threshold must be >= 1")
              else begin
                let acts = feed (Machine.Submit spec) in
                match
                  List.find_map
                    (function
                      | Machine.Accept { id } -> Some (Ok id)
                      | Machine.Reject { reason } -> Some (Error reason)
                      | _ -> None)
                    acts
                with
                | Some (Ok id) -> reply fd (Proto.ok [ ("job", Json.Str id) ])
                | Some (Error reason) -> reply fd (Proto.error reason)
                | None -> reply fd (Proto.error "internal: no decision")
              end
          | Ok Proto.Status ->
              reply fd
                (Proto.ok
                   [
                     ("draining", Json.Bool !machine.Machine.m_draining);
                     ( "jobs",
                       Json.List
                         (List.map Proto.json_of_job !machine.Machine.m_jobs) );
                   ])
          | Ok (Proto.Wait id) -> (
              match Machine.find !machine id with
              | None -> reply fd (Proto.error ("no such job " ^ id))
              | Some j -> (
                  match j.Machine.j_state with
                  | Machine.Done _ | Machine.Quarantined _ ->
                      reply fd (Proto.ok [ ("job", Proto.json_of_job j) ])
                  | _ -> waiters := (fd, id) :: !waiters))
          | Ok Proto.Drain ->
              Atomic.set drain_req true;
              reply fd (Proto.ok [])
          | Ok Proto.Ping ->
              reply fd (Proto.ok [ ("pid", Json.Int (Unix.getpid ())) ]))
    in
    let handle_readable fd =
      match List.assoc_opt fd !clients with
      | None -> ()
      | Some buf -> (
          let chunk = Bytes.create 4096 in
          match Unix.read fd chunk 0 4096 with
          | exception Unix.Unix_error _ -> drop_client fd
          | 0 -> drop_client fd
          | n -> (
              Buffer.add_subbytes buf chunk 0 n;
              if Buffer.length buf > 1_000_000 then drop_client fd
              else
                let s = Buffer.contents buf in
                match String.index_opt s '\n' with
                | None -> ()
                | Some i ->
                    (* One request per connection; anything after the
                       first line is ignored. *)
                    handle_request fd (String.sub s 0 i)))
    in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | 0, _ -> ()
      | pid, _status ->
          (match List.assoc_opt pid !pid_to_id with
          | None -> ()
          | Some id ->
              pid_to_id := List.remove_assoc pid !pid_to_id;
              let result = read_result dir id in
              ignore
                (feed
                   (Machine.Exited
                      { id; pid; result; now = Unix.gettimeofday () })));
          reap ()
    in
    let poll_beats () =
      List.iter
        (fun (j : Machine.job) ->
          match j.Machine.j_state with
          | Machine.Leased l when l.pid > 0 -> (
              match read_lease dir j.Machine.j_id with
              | Some (pid, beat) when pid = l.pid && beat > l.last_beat ->
                  ignore (feed (Machine.Beat { id = j.Machine.j_id; now = beat }))
              | _ -> ())
          | _ -> ())
        !machine.Machine.m_jobs
    in
    let serve_waiters () =
      let ready, rest =
        List.partition
          (fun (_, id) ->
            match Machine.find !machine id with
            | Some j -> (
                match j.Machine.j_state with
                | Machine.Done _ | Machine.Quarantined _ -> true
                | _ -> false)
            | None -> true)
          !waiters
      in
      waiters := rest;
      List.iter
        (fun (fd, id) ->
          match Machine.find !machine id with
          | Some j -> reply fd (Proto.ok [ ("job", Proto.json_of_job j) ])
          | None -> reply fd (Proto.error ("no such job " ^ id)))
        ready
    in
    let hb_last = ref 0. in
    let persist_and_observe () =
      if !dirty then begin
        Store.save ~dir !machine;
        dirty := false
      end;
      let now = Unix.gettimeofday () in
      if now -. !hb_last >= 0.2 then begin
        hb_last := now;
        write_heartbeats dir !machine started;
        Obs.Metrics.set (Lazy.force m_queue) (float_of_int (Machine.live !machine));
        Obs.Metrics.set (Lazy.force m_leased)
          (float_of_int (Machine.leased !machine))
      end
    in
    while not !exit_requested do
      if Atomic.get drain_req && not !drained then begin
        drained := true;
        say "draining: intake closed, waiting for %d leased job(s)"
          (Machine.leased !machine);
        ignore (feed Machine.Drain)
      end;
      let rfds = sock :: List.map fst !clients @ List.map fst !waiters in
      let ready, _, _ =
        match Unix.select rfds [] [] 0.05 with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem sock ready then begin
        match Unix.accept sock with
        | fd, _ -> clients := (fd, Buffer.create 256) :: !clients
        | exception Unix.Unix_error _ -> ()
      end;
      List.iter
        (fun fd ->
          if fd <> sock then
            if List.mem_assoc fd !clients then handle_readable fd
            else if List.exists (fun (w, _) -> w = fd) !waiters then
              (* A waiter that writes or hangs up before its job
                 finishes is gone; reclaim the fd. *)
              drop_client fd)
        ready;
      reap ();
      poll_beats ();
      ignore (feed (Machine.Tick { now = Unix.gettimeofday () }));
      serve_waiters ();
      persist_and_observe ()
    done;
    (* Drained: everything leased has been reaped; pending jobs (still
       inside backoff, or submitted after the pool filled) persist for
       the next incarnation. *)
    List.iter (fun (fd, _) -> reply fd (Proto.error "draining")) !waiters;
    List.iter (fun (fd, _) -> drop_client fd) !clients;
    if !dirty then Store.save ~dir !machine;
    write_heartbeats dir !machine started;
    Obs.Bus.detach ();
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Unix.close devnull with Unix.Unix_error _ -> ());
    (try Sys.remove sock_path with Sys_error _ -> ());
    (try Sys.remove (pid_path dir) with Sys_error _ -> ());
    (* Clean shutdown: like a completed campaign, drop the heartbeat
       sidecar so `autocc top` doesn't report a CRASHED owner. *)
    (try Sys.remove (dir // "heartbeats.json") with Sys_error _ -> ());
    Option.iter (fun _ -> Obs.Exposition.stop ()) cfg.d_metrics_file;
    let done_n, quar_n, pend_n =
      List.fold_left
        (fun (d, q, p) (j : Machine.job) ->
          match j.Machine.j_state with
          | Machine.Done _ -> (d + 1, q, p)
          | Machine.Quarantined _ -> (d, q + 1, p)
          | _ -> (d, q, p + 1))
        (0, 0, 0) !machine.Machine.m_jobs
    in
    say "drained: %d done, %d quarantined, %d pending (queue persisted)"
      done_n quar_n pend_n;
    0
end
