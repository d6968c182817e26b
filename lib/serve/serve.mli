(** Crash-isolated verification service.

    [autocc serve] turns the one-shot CLI into a supervised system: a
    long-running daemon accepts DUT/property submissions over a
    newline-delimited-JSON wire protocol on a Unix domain socket, keeps
    a persistent job queue on disk, and dispatches each job to a
    {e worker process}: a long-lived [autocc worker] that runs one job at
    a time until it dies. Process isolation is the robustness boundary
    the OCaml 5 domain boundary cannot give: a segfaulting, OOM-killed or
    hung SAT job takes down one worker, and the supervisor redelivers
    the job instead of losing the campaign.

    The supervisor owns the robustness contract:

    - {b Leases.} A dispatched job is leased to one worker pid. The
      worker renews the lease by publishing an {!Obs.Bus.Heartbeat}
      event to the service's [events.jsonl] before every depth; a lease
      whose beat goes stale past the configured horizon is expired and
      the worker SIGKILLed (it may be hung in the solver with signals
      blocked by no one — SIGKILL is the only honest option).
    - {b Crash detection.} [waitpid] reaping, woken by SIGCHLD, plus
      lease expiry. A worker that exits without depositing a well-formed
      result file — whatever the exit status — crashed.
    - {b Redelivery.} A crashed job goes back to pending after the
      capped exponential backoff of the {!Retry} schedule
      ([backoff_s ~attempt:crashes]), and the worker it goes to next is
      told its attempt number so it can rotate the fault-injection seed
      ({!Fault.reseed}) — a deterministically replayed crash would
      otherwise quarantine every faulted job.
    - {b Quarantine.} After [max_crashes] crashes a job is parked as
      poison with the terminal verdict ["unknown:worker_crashed"].
      Quarantine only ever applies to jobs with {e no} conclusive
      verdict, so — per the budget-governance invariant — a crash can
      never flip a Sat/Unsat.
    - {b Drain.} SIGTERM/SIGINT stop intake (submissions are refused
      with ["draining"]), let leased jobs finish, persist the queue
      byte-stably and exit 0; a restarted daemon reloads the queue and
      re-solves only what never completed — against a warm verdict
      cache that is mostly cache hits.
    - {b Load shedding.} Submissions past the queue-depth watermark are
      refused with ["overloaded"] instead of growing the queue without
      bound.

    Workers share the verdict cache ([AUTOCC_CACHE_DIR]) and append to
    the service directory's run ledger and event stream; [autocc top],
    the Prometheus exposition and [autocc diff-runs] all attach to the
    service directory unchanged. *)

(** The supervisor state machine, kept pure — every daemon decision is
    [step state event -> state * actions], so the whole
    submit → lease → heartbeat → crash → redeliver → quarantine → drain
    lifecycle is testable as a fold over events with no processes, no
    clock and no filesystem. *)
module Machine : sig
  type spec = {
    sp_dut : string;  (** a {!Duts.Bundled.known} name *)
    sp_engine : string;  (** ["check"] (BMC) or ["prove"] (k-induction) *)
    sp_depth : int;
    sp_threshold : int;
  }

  (** What a worker deposits for a completed job. *)
  type result = {
    w_verdict : string;  (** ["cex"], ["proof"], ["proved"], ["refuted"]
                             or ["unknown:<reason>"] *)
    w_depth : int;
    w_wall_ms : int;
    w_cache_hits : int;
  }

  type jstate =
    | Pending of { not_before : float }
        (** queued; [not_before] is the redelivery backoff gate *)
    | Leased of {
        pid : int;  (** worker pid; [0] until [Spawned] *)
        attempt : int;  (** = crashes when leased; forwarded to the worker *)
        leased_at : float;
        last_beat : float;
      }
    | Done of result
    | Quarantined of { q_crashes : int }  (** poison; terminal *)

  type job = {
    j_id : string;
    j_spec : spec;
    j_crashes : int;
    j_state : jstate;
  }

  type config = {
    c_workers : int;  (** pool size; [0] = accept but never dispatch *)
    c_lease_s : float;  (** beat staleness horizon before expiry *)
    c_max_crashes : int;  (** crashes before quarantine *)
    c_shed : int;  (** live-job watermark past which submits are shed *)
    c_retry : Retry.policy;  (** redelivery backoff schedule *)
  }

  val default_config : config
  (** 2 workers, 10s lease, quarantine after 3 crashes, shed at 64. *)

  type t = {
    m_cfg : config;
    m_jobs : job list;  (** submit order *)
    m_next : int;  (** next job id suffix *)
    m_draining : bool;
  }

  (** Everything that can happen to the supervisor. [Tick] drives all
      time-based behavior (expiry, backoff gates, spawning, drain
      completion), so tests control the clock completely. *)
  type event =
    | Submit of spec
    | Spawned of { id : string; pid : int; now : float }
        (** the daemon handed a [Start] action's job to worker [pid] *)
    | Beat of { id : string; now : float }
        (** lease renewal: a worker's [Heartbeat] event, stamped [now] *)
    | Exited of { id : string; pid : int; result : result option; now : float }
        (** worker reaped; [result] is its deposited result file, if a
            well-formed one exists — [None] means the attempt crashed *)
    | Tick of { now : float }
    | Drain

  (** Effects the daemon must perform; the machine never performs them
      itself. *)
  type action =
    | Accept of { id : string }  (** reply to the submitter *)
    | Reject of { reason : string }  (** ... negatively *)
    | Start of { id : string; spec : spec; attempt : int }
        (** hand the job to a worker; answer with [Spawned] *)
    | Kill of { id : string; pid : int }  (** SIGKILL an expired/duplicate worker *)
    | Redeliver of { id : string; attempt : int; backoff_s : float }
    | Quarantine of { id : string; crashes : int }
    | Complete of { id : string; verdict : string }
    | Persist of { id : string }
        (** job [id]'s durable record changed: the daemon appends it to
            the queue journal *)
    | Exit  (** drain finished; shut down *)

  val create : config -> t
  val step : t -> event -> t * action list

  val find : t -> string -> job option

  val live : t -> int
  (** pending + leased *)

  val leased : t -> int

  val crashed_verdict : string
  (** ["unknown:worker_crashed"] — the quarantine verdict. *)

  val verdict_of : job -> string option
  (** Terminal verdict: [Done]'s, {!crashed_verdict} for quarantined,
      [None] while live. *)

  val state_name : job -> string
  (** ["pending" | "leased" | "done" | "quarantined"]. *)
end

(** Durable queue state: a snapshot [<dir>/queue.json] (schema
    [autocc.serve/1]) plus a journal [<dir>/queue.jsonl] of job records
    appended since the snapshot. A record is one line holding the same
    object as one element of the snapshot's ["jobs"] array: the job's
    whole durable state. The rendering is byte-stable — fixed field
    order, integers and strings only, leases persisted as pending (a
    lease never survives the daemon) — so save∘load is the identity on
    bytes and a drain/restart cycle can be [cmp]ed. Nothing is fsynced:
    the queue survives a killed daemon, not a host crash. *)
module Store : sig
  val path : string -> string
  (** [dir ^ "/queue.json"]. *)

  val journal_path : string -> string
  (** [dir ^ "/queue.jsonl"]. *)

  val render : Machine.t -> string
  (** The exact bytes {!save} writes (including trailing newline). *)

  val save : dir:string -> Machine.t -> unit
  (** Writes the snapshot: streams {!render}'s bytes into the tmp file
      one job at a time through one small reused buffer, then renames
      it into place. Leaves the journal alone. *)

  val load : dir:string -> Machine.config -> (Machine.t option, string) result
  (** The snapshot with the journal replayed over it: the last record
      for each id wins, a job new to the snapshot joins the queue at its
      first record, and a record for ["j<n>"] raises the id counter to
      at least n+1. A torn last journal line (an append cut short) is
      dropped. [Ok None] when neither file exists; [Error] on a
      malformed snapshot or any other malformed journal line (refuse to
      run rather than silently drop jobs). *)

  type journal
  (** The journal, open for appends. *)

  val open_journal : dir:string -> Machine.t -> journal
  (** Compact [t] (see {!compact}) and open the journal. *)

  val append : journal -> Machine.t -> string list -> unit
  (** Append the records of the named jobs as they stand in [t], one
      line each through {!Obs.Appender}, then {!compact} if the journal
      holds more lines than [t] holds jobs: a compaction of n jobs
      follows at least n+1 appends, so the journal stays no longer than
      the queue and the save cost is O(1) per record amortized. *)

  val compact : journal -> Machine.t -> unit
  (** {!save} [t], then truncate the journal. Append every changed job
      first: the journal's last record per job is then what the
      snapshot holds, so a crash between the save and the truncation
      leaves records whose replay changes nothing. *)

  val close_journal : journal -> unit
end

(** The [autocc.serve/1] wire protocol: one JSON request line in, one
    JSON response line out, connection per request ([wait] holds its
    connection open until the job is terminal). *)
module Proto : sig
  val schema : string

  type request =
    | Submit of Machine.spec
        (** answered with the job id once the queue journal holds the
            job *)
    | Status
    | Wait of string  (** block until the named job is terminal *)
    | Drain  (** same effect as SIGTERM *)
    | Ping

  val json_of_request : request -> Obs.Json.t
  val request_of_json : Obs.Json.t -> (request, string) result

  val ok : (string * Obs.Json.t) list -> Obs.Json.t
  (** [{"schema":…,"ok":true, fields…}]. *)

  val error : string -> Obs.Json.t
  (** [{"schema":…,"ok":false,"error":msg}]. *)

  val json_of_job : Machine.job -> Obs.Json.t
  (** The status row for one job (live state, unlike {!Store}'s durable
      form). *)
end

(** Client side of the wire protocol, shared by [autocc submit],
    [autocc status] and the smoke validator. *)
module Client : sig
  val socket_path : string -> string
  (** [dir ^ "/serve.sock"]. *)

  val request :
    dir:string -> ?timeout_s:float -> Obs.Json.t -> (Obs.Json.t, string) result
  (** One round trip; [Error] on connection failure, timeout (default
      30s), EOF or a malformed/negative response. *)

  val submit : dir:string -> Machine.spec -> (string, string) result
  (** Returns the accepted job id. The daemon sends it only after the
      job's record is appended to the queue journal. *)

  val wait :
    dir:string -> ?timeout_s:float -> string -> (Obs.Json.t, string) result
  (** Block (default up to 600s) until the job is terminal; returns its
      status row. *)

  val status : dir:string -> (Obs.Json.t, string) result
  val ping : dir:string -> bool
end

(** A long-lived worker process: runs the jobs its daemon hands it, one
    at a time, until its job pipe closes or it dies. *)
module Worker : sig
  val run : dir:string -> int
  (** Serve jobs from stdin (the job pipe) until EOF, then return 0.
      Each line ["<id> <attempt>"] is one leased job: reseed the fault
      dice to the attempt ({!Fault.reseed}, attempt 0 included), read
      the job spec ([jobs/<id>.json]), build the DUT and property set
      via {!Duts.Bundled}, solve with the verdict cache from
      [AUTOCC_CACHE_DIR] (if set; opened per job, since other workers
      write to the same store), renew the lease by publishing
      [Heartbeat] to the service's event stream before every depth,
      deposit the result atomically ([results/<id>.json]), append a
      ledger row whose [cpu_s] covers the same span as its [wall_s],
      publish [Job_start]/[Job_done] under the label ["<id>/<dut>"],
      and answer ["done <id>"] on stdout (the done pipe). Every verdict
      is deposited, including [unknown:*]. Whatever else the process
      prints goes to its stderr, which the daemon shares with it.

      A job that does not deposit its result ends the process: any
      exception escaping it, the ["serve.worker"] site (self-SIGKILL),
      or the daemon's SIGKILL on lease expiry. So a crash takes down one
      attempt at one job, and only a worker whose job deposited its
      result takes the next. Probes the ["serve.worker"],
      ["serve.lease"] (renewal dropped) and ["serve.stall"] (0.2 s sleep
      after the renewal) fault sites at every depth.

      The daemon is the worker's parent. Once the worker's parent pid
      differs from the one it started with (the daemon died and the
      worker was reparented), the next depth exits 1 with no result file
      and no ledger row: the daemon that comes back redelivers the job.
      An idle worker of a dead daemon sees EOF and exits 0. *)
end

(** The supervisor loop: owns the socket, the worker pool and the
    queue; drives {!Machine} and performs its actions. *)
module Daemon : sig
  type config = {
    d_dir : string;  (** service directory (created if missing) *)
    d_workers : int;
    d_lease_s : float;
    d_max_crashes : int;
    d_shed : int;
    d_retry : Retry.policy;
    d_exe : string;  (** binary to start workers from, as [<exe> worker --dir DIR] *)
    d_cache_dir : string option;  (** exported to workers as [AUTOCC_CACHE_DIR] *)
    d_metrics_file : string option;  (** Prometheus snapshot ticker *)
    d_quiet : bool;
  }

  val default : dir:string -> exe:string -> config

  val run : config -> int
  (** Serve until drained (SIGTERM/SIGINT or a [drain] request): bind
      [<dir>/serve.sock], reload any persisted queue (leases revert to
      pending; a pending job whose result file already exists is
      absorbed without re-solving), then loop: accept, dispatch, read
      the workers' done pipes, reap, tail [<dir>/events.jsonl] for the
      workers' [Heartbeat] events, tick.

      Workers start lazily, at a [Start] with no idle worker, and at
      most [d_workers] run at once apart from a SIGKILLed one not yet
      reaped. Each has a job pipe (the daemon writes ["<id> <attempt>"]
      and feeds [Spawned {id; pid}]) and a done pipe (the worker answers
      ["done <id>"] and the daemon feeds [Exited] with the result file).
      A worker that dies with a job in flight is reaped and its job fed
      [Exited] the same way; a hand-over whose write fails (EPIPE: the
      worker died before its reap) counts as a failed start, a crash of
      that attempt. The loop wakes on a done line and on a worker's
      exit: a SIGCHLD handler writes to a self-pipe in the [select] set,
      so the job is recorded and answered in the same iteration; the
      50 ms [select] timeout is only the idle tick for lease expiry,
      backoff gates and drain. When the loop ends the daemon closes
      every job pipe and reaps every worker, SIGKILLing one still
      running after 1 s, so no worker outlives it.

      Each [Persist] marks a job; the loop appends the marked jobs'
      records to the queue journal once per iteration, and a [submit] is
      answered only after that append, so a daemon killed after the
      reply restarts with the job and never reissues its id. The queue
      is compacted ({!Store.compact}) at start, at drain and whenever
      the journal outgrows it. A heartbeat renews the lease of the job
      in flight on its pid's worker; the tail starts at the stream's
      end, since no beat written before the daemon started can renew a
      lease. The
      same pid-stamped stream lets [autocc top] render service jobs like
      campaign entries. Refuses to start (exit 1) when a live daemon
      already owns the directory. Exit 0 on a clean drain. *)
end
