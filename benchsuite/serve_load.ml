(* serve_stream: a real [autocc serve] daemon with two workers and no
   verdict cache, fed [check] jobs on the seeded DUT mix by one
   single-threaded generator.

   Phase A is an open loop: Poisson arrivals at a fixed rate, each job
   timed from its due time to the daemon's [wait] reply, which the daemon
   pushes when the job turns terminal. Phase B is a closed loop with two
   jobs outstanding, for the capacity number. The generator holds at most
   two [wait] connections — on the two oldest unanswered jobs, which with
   two workers and first-come dispatch are the ones being solved — plus
   one short-lived connection per submission. *)

open Measure
module Proto = Serve.Proto

let rate = 10.
let workers = 2

type daemon = { pid : int; dir : string }

(* The workload process runs without the caller's AUTOCC_ settings (see
   [Suite.child_env]), so the daemon inherits none either. *)
let start_daemon ctx dir =
  mkdir_p dir;
  let log = Unix.openfile (dir // "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () ->
        Unix.create_process_env ctx.cli
          [|
            ctx.cli; "serve"; "--dir"; dir; "--workers"; string_of_int workers;
            "--no-cache"; "--quiet";
          |]
          (Unix.environment ()) null log log)
  in
  let deadline = now () +. 30. in
  while not (Serve.Client.ping ~dir) do
    if now () > deadline then failwith "serve: daemon did not answer ping";
    Unix.sleepf 0.001
  done;
  { pid; dir }

(* SIGTERM drains the daemon; it exits once its leased jobs are reaped. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ()

(* A daemon started only to time its start has nothing to drain. *)
let discard_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  rm_rf d.dir

type sjob = {
  dut : string;
  due : float;
  mutable id : string;
  mutable done_at : float;
  mutable row : Json.t option;  (** the [wait] reply's job row *)
  mutable error : string option;  (** shed, refused or timed out *)
}

type gen = {
  d : daemon;
  mutable open_jobs : sjob list;  (** submitted, unanswered, in submit order *)
  mutable conns : (Unix.file_descr * sjob * Buffer.t) list;
  mutable finished : sjob list;
  mutable backlog_max : int;
  mutable lag_max : float;
  mutable submit_s : float list;
}

let submit g dut due =
  let j = { dut; due; id = ""; done_at = nan; row = None; error = None } in
  let t = now () in
  g.lag_max <- Float.max g.lag_max (t -. due);
  let spec =
    {
      Serve.Machine.sp_dut = dut;
      sp_engine = "check";
      sp_depth = Jobs.serve_depth;
      sp_threshold = 2;
    }
  in
  (match Spans.span "serve.submit" (fun () -> Serve.Client.submit ~dir:g.d.dir spec) with
  | Ok id ->
      j.id <- id;
      g.open_jobs <- g.open_jobs @ [ j ]
  | Error e ->
      j.error <- Some ("submit: " ^ e);
      g.finished <- j :: g.finished);
  g.submit_s <- (now () -. t) :: g.submit_s;
  g.backlog_max <- max g.backlog_max (List.length g.open_jobs)

let rec write_all fd b pos len =
  if len > 0 then
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)

let open_wait g j =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Serve.Client.socket_path g.d.dir));
  let line = Json.to_string (Proto.json_of_request (Proto.Wait j.id)) ^ "\n" in
  write_all fd (Bytes.of_string line) 0 (String.length line);
  g.conns <- (fd, j, Buffer.create 256) :: g.conns

let finish g j =
  g.open_jobs <- List.filter (fun j' -> j' != j) g.open_jobs;
  g.finished <- j :: g.finished

(* Keep a [wait] open on each of the two oldest unanswered jobs, then
   block until a reply arrives or [timeout] passes. *)
let pump g timeout =
  List.iteri
    (fun i j ->
      if i < workers && not (List.exists (fun (_, j', _) -> j' == j) g.conns) then
        open_wait g j)
    g.open_jobs;
  let fds = List.map (fun (fd, _, _) -> fd) g.conns in
  let ready =
    match Unix.select fds [] [] (Float.max 0. timeout) with
    | r, _, _ -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  let chunk = Bytes.create 4096 in
  List.iter
    (fun fd ->
      let _, j, buf = List.find (fun (fd', _, _) -> fd' = fd) g.conns in
      let n = try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0 in
      Buffer.add_subbytes buf chunk 0 n;
      let reply = Buffer.contents buf in
      if n = 0 || String.contains reply '\n' then begin
        j.done_at <- now ();
        (match Json.parse (String.trim reply) with
        | Ok r -> (
            match Json.member "job" r with
            | Some row -> j.row <- Some row
            | None -> j.error <- Some "wait: no job row")
        | Error e -> j.error <- Some ("wait: " ^ e));
        Unix.close fd;
        g.conns <- List.filter (fun (fd', _, _) -> fd' <> fd) g.conns;
        finish g j
      end)
    ready

let abandon g reason =
  List.iter (fun (fd, _, _) -> Unix.close fd) g.conns;
  g.conns <- [];
  List.iter
    (fun j ->
      j.error <- Some reason;
      finish g j)
    g.open_jobs

let settle_s = 30.

(* Phase A: the arrival schedule is drawn up front from the seed. *)
let open_loop g rng ~duration =
  let t0 = now () +. 0.05 in
  let rec draw t acc =
    let t = t +. (-.log (1. -. Random.State.float rng 1.) /. rate) in
    if t > duration then List.rev acc
    else
      let dut = List.nth Jobs.serve_duts (Random.State.int rng (List.length Jobs.serve_duts)) in
      draw t ((t0 +. t, dut) :: acc)
  in
  let arrivals = ref (draw 0. []) in
  let rec loop () =
    let t = now () in
    let rec due () =
      match !arrivals with
      | (at, dut) :: rest when at <= t ->
          arrivals := rest;
          submit g dut at;
          due ()
      | _ -> ()
    in
    due ();
    if !arrivals = [] && g.open_jobs = [] then ()
    else if t > t0 +. duration +. settle_s then abandon g "timed out"
    else begin
      let next = match !arrivals with (at, _) :: _ -> at -. now () | [] -> 0.2 in
      pump g (Float.min 0.2 next);
      loop ()
    end
  in
  loop ();
  t0

(* Phase B: two jobs outstanding; a reply releases the next submission. *)
let closed_loop g rng ~duration =
  let t0 = now () in
  let stop = t0 +. duration in
  let before = List.length g.finished in
  let rec loop () =
    let t = now () in
    if t < stop && List.length g.open_jobs < workers then begin
      let dut = List.nth Jobs.serve_duts (Random.State.int rng (List.length Jobs.serve_duts)) in
      submit g dut t;
      loop ()
    end
    else if t >= stop && g.open_jobs = [] then ()
    else if t > stop +. settle_s then abandon g "timed out"
    else begin
      pump g (if t < stop then Float.min 0.2 (stop -. t) else 0.2);
      loop ()
    end
  in
  loop ();
  (* Completions per second up to the last completion inside the phase,
     so the rate is not quantized by the phase length. *)
  let served =
    List.filter
      (fun j -> j.error = None && j.done_at <= stop)
      (List.filteri (fun i _ -> i < List.length g.finished - before) g.finished)
  in
  let last = List.fold_left (fun a j -> Float.max a j.done_at) t0 served in
  if last > t0 then float_of_int (List.length served) /. (last -. t0) else 0.

let field_str row k = match Json.member k row with Some (Json.Str s) -> s | _ -> ""
let field_int row k = match Json.member k row with Some (Json.Int i) -> i | _ -> -1

(* A served verdict is checked against the in-process reference run of
   the same DUT, and the reference against its committed expectation. *)
let verify_served acc ctx reference j =
  match (j.error, j.row) with
  | Some _, _ | None, None ->
      acc.attempted <- acc.attempted + 1;
      acc.failed <- acc.failed + 1
  | None, Some row ->
      let ev, ed = List.assoc j.dut reference in
      verify acc ctx ~kind:("serve:" ^ j.dut) ~expect:(ev, ed)
        (field_str row "verdict", field_int row "depth")

let run acc ctx =
  let serve_dir n = ctx.scratch // Printf.sprintf "serve-%d" n in
  let n = ref 0 in
  let prepare () =
    let jobs = Jobs.serve_reference () in
    incr n;
    let d = Spans.span "serve.start" (fun () -> start_daemon ctx (serve_dir !n)) in
    (jobs, d)
  in
  let s = { reps = 11; prepare; teardown = (fun (_, d) -> discard_daemon d) } in
  let jobs, d = setup acc ctx s in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* The reference verdicts: the same jobs in-process, every arm. *)
  let reference =
    List.concat
      (List.mapi
         (fun i ((job : Jobs.job), dut) ->
           List.map
             (fun mode ->
               let o, secs = run_job acc ctx job mode in
               record_arm acc job.Jobs.id mode secs;
               (dut, (o.verdict, o.depth)))
             (arms_for ctx i))
         (List.combine jobs Jobs.serve_duts))
  in
  let rng = Random.State.make [| ctx.seed |] in
  let g =
    { d; open_jobs = []; conns = []; finished = []; backlog_max = 0; lag_max = 0.; submit_s = [] }
  in
  Spans.on := ctx.traced;
  let phase_a = 0.6 *. ctx.seconds and phase_b = 0.4 *. ctx.seconds in
  let t0 = open_loop g rng ~duration:phase_a in
  let a_jobs = g.finished in
  let backlog_a = g.backlog_max in
  (* More set-up slots, spread over the run, while the daemon is idle. *)
  extra_setup acc ctx s;
  let jobs_per_s = closed_loop g rng ~duration:phase_b in
  Spans.on := false;
  extra_setup acc ctx s;
  let rss = vm_hwm_mb (string_of_int d.pid) in
  acc.passes <- 1;
  List.iter (verify_served acc ctx reference) g.finished;
  let answered = List.filter (fun j -> j.error = None && j.row <> None) a_jobs in
  let lat = List.map (fun j -> j.done_at -. j.due) answered in
  let worker = List.map (fun j -> float_of_int (field_int (Option.get j.row) "wall_ms") /. 1000.) answered in
  let overhead = List.map2 ( -. ) lat worker in
  let last_done = List.fold_left (fun a j -> Float.max a j.done_at) t0 answered in
  let n = List.length lat in
  acc.latencies <- List.map2 (fun j l -> ("serve:" ^ j.dut, l)) answered lat;
  Hashtbl.replace acc.gauges "serve.overhead_frac"
    (Stat.median (List.map2 (fun o l -> o /. l) overhead lat));
  Hashtbl.replace acc.gauges "serve.backlog_max" (float_of_int backlog_a);
  acc.extra <-
    [
      ("serve.submit_s", m ~n:(List.length g.submit_s) "s" (Stat.median g.submit_s));
      ("serve.worker_p50_s", m ~n "s" (Stat.median worker));
      ("serve.overhead_p50_s", m ~n "s" (Stat.median overhead));
      ("serve.gen_lag_max_s", m ~n "s" g.lag_max);
    ];
  [
    ("makespan_s", m ~n "s" (last_done -. t0));
    ("verdict_p50_s", m ~n "s" (Stat.percentile 0.5 lat));
    ("verdict_p90_s", m ~n "s" (Stat.percentile 0.9 lat));
    ("jobs_per_s", m ~n:(List.length g.finished - List.length a_jobs) "jobs/s" jobs_per_s);
    ("setup_s", setup_metric acc);
    ("peak_rss_mb", m "MB" rss);
  ]
