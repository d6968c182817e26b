(** Unified telemetry for the whole FPV pipeline, all off by default and
    all safe to leave compiled into hot paths:

    - {b spans} ({!span}): nestable, domain-safe timed regions exported
      as Chrome/Perfetto trace-event JSON ({!trace_to_file}), so a whole
      [prove] run — elaborate, opt passes, per-depth unroll, blast, SAT
      solve — is visible on one timeline;
    - {b metrics} ({!Metrics}): a registry of counters, gauges and
      series (append-only float sequences, used for per-depth timings),
      snapshotted into reports and campaign indexes;
    - {b events} ({!Bus}): one typed event per milestone (a depth
      solved, a CEX found, a retry, a job done), appended to a JSONL
      file and, while tracing, marked on the trace timeline.

    {b Overhead contract.} With telemetry disabled (no trace, no bus
    file, metrics off — the default), {!span} is one atomic load and a
    closure call, {!Bus.publish} is two atomic loads, and every
    {!Metrics} recorder is one atomic load; the end-to-end budget is
    <= 2%. With tracing enabled, each span records one heap-allocated
    event under a mutex at exit, and [bench gates] bounds the cost of
    every face on at 1.25x.

    {b Clocks.} Timestamps come from [Unix.gettimeofday] rebased to the
    process start (the toolchain has no monotonic clock; an NTP step
    mid-run can skew a trace, which we accept).

    {b Domain safety.} Every entry point may be called from any domain
    concurrently. Sinks are guarded by one mutex each; counters are
    atomics. *)

(** {1 JSON}

    A minimal JSON value type with a printer and a parser — shared by
    the trace exporter, the event bus, the run ledger, the campaign
    artifacts and the [bench] counter rows (the toolchain has no JSON
    library). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_buffer : Buffer.t -> t -> unit
  val to_string : t -> string

  val parse : string -> (t, string) result
  (** Strict recursive-descent parser for the subset this module prints
      (all of JSON minus surrogate-pair escapes, which decode to
      U+FFFD). Numbers with [.], [e] or [E] parse as [Float], others as
      [Int]. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on missing field or non-object. *)

  val str : string -> t -> string option
  (** [str key j] is the string field [key] of [j]; [None] when the
      field is missing or not a string. *)

  val int : string -> t -> int option
  (** The integer field [key]; [None] when missing or not an [Int]. *)

  val num : string -> t -> float option
  (** The number field [key]: a [Float], or an [Int] widened to float;
      [None] when missing or not a number. *)

  val write_file : path:string -> t -> unit
  (** Write the value plus a trailing newline. *)
end

(** {1 Files} *)
module Files : sig
  val mkdir_p : string -> unit
  (** Create a directory and any missing parents (mode [0o755]). An
      existing directory is not an error. Raises [Sys_error] on
      failure. *)

  val write_atomic : path:string -> string -> unit
  (** Replace [path] with the given contents by writing [path ^ ".tmp"]
      and renaming it over [path], so a concurrent reader sees the old
      file or the new one, never a torn one. Raises [Sys_error] on
      failure. *)
end

(** {1 Clocks} *)
module Clock : sig
  val wall_s : unit -> float
  (** Seconds since the Unix epoch ([Unix.gettimeofday]). *)

  val elapsed_us : unit -> float
  (** Microseconds since this module was initialized — the trace
      timestamp base. *)
end

val domain_id : unit -> int
(** The calling domain's id — the [tid] of every event it records. *)

(** {1 Atomic line appends}

    Multi-process-safe jsonl emission. The ledger ([runs.jsonl]) and the
    bus file sink ([events.jsonl]) are appended by the service's worker
    processes concurrently with the daemon and any one-shot CLI runs;
    buffered channels can split one line across several [write(2)] calls
    and interleave the halves. An {!Appender} opens the file [O_APPEND]
    and emits each line (payload + newline) as a single [write(2)],
    which POSIX lands contiguously at the end of file — concurrent
    writers can reorder whole lines but never tear one. *)

module Appender : sig
  type t

  val open_path : string -> t
  (** Open (creating if absent) for append-only line emission. The
      descriptor is close-on-exec: a serve worker that the daemon
      forks opens its own. *)

  val line : t -> string -> unit
  (** Append [s ^ "\n"] in one [write(2)]. [s] must not itself contain
      newlines (jsonl payloads never do). Raises [Invalid_argument]
      after {!close}. *)

  val json_line : t -> Json.t -> unit
  (** {!line} of the compact rendering of a JSON value. *)

  val close : t -> unit
  (** Idempotent. *)

  val with_path : string -> (t -> 'a) -> 'a
  (** Open, run, close (also on exception). *)
end

(** {1 Tracing} *)

val trace_to_file : string -> unit
(** Start collecting trace events; {!close_trace} writes them to [path]
    as [{"traceEvents": [...]}] — loadable by Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and [chrome://tracing].
    Clears any previously collected events. *)

val tracing : unit -> bool

val span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when tracing, records a complete ("X")
    event named [name] with the span's wall duration, the calling
    domain as [tid], and [attrs] as [args]. The category is the part of
    [name] before the first ['.']. Exceptions propagate (with their
    backtrace) after the event is recorded, so an aborted solve still
    closes its span. When tracing is off: one atomic load, then
    [f ()]. *)

val counter_event : string -> (string * float) list -> unit
(** A counter ("C") sample: Perfetto renders each key as a stacked
    track under [name]. Used for solver-progress and CNF-size curves.
    No-op when tracing is off. *)

val close_trace : unit -> unit
(** Stop tracing and write the collected events to the path given to
    {!trace_to_file} (no-op if tracing was never started). *)

val trace_json : unit -> Json.t
(** The trace collected so far, as the object {!close_trace} would
    write. For tests and in-memory consumers. *)

(** {1 Metrics} *)
module Metrics : sig
  type counter
  type gauge
  type series

  val enable : unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool
  (** Recording is gated on this flag (default off) so that fully
      disabled telemetry costs one atomic load per call site. Handles
      may be created, and {!snapshot} read, regardless. *)

  val counter : string -> counter
  (** Get or create. Raises [Invalid_argument] if [name] exists with a
      different kind (same for the other constructors). *)

  val add : counter -> int -> unit

  val gauge : string -> gauge
  val set : gauge -> float -> unit

  val series : string -> series
  val record : series -> float -> unit
  (** Append one value — e.g. seconds spent at each BMC depth, in depth
      order. *)

  (** A read-only snapshot of one metric. *)
  type value =
    | Counter of int
    | Gauge of float
    | Series of float array

  val snapshot : unit -> (string * value) list
  (** Every registered metric, sorted by name. *)

  val find : string -> value option

  val reset : unit -> unit
  (** Zero every metric (registrations survive). *)

  val json_of_snapshot : unit -> Json.t
  (** The snapshot as one JSON object keyed by metric name — the
      ["telemetry"] field of a channel artifact. *)
end

(** {1 Event bus}

    Typed, structured events: each milestone of a run is published once,
    here. Publishers (the BMC depth loops, the retry loop, the verdict
    cache and the campaign driver) call {!Bus.publish}; with no file
    attached and tracing off (the default) that costs two atomic loads.
    When attached, each event is stamped — monotone per-process sequence
    number, wall-clock timestamp, domain id, writer pid, current
    {!Bus.with_label} scope — and appended as one JSON line to an
    [events.jsonl], so another process ([autocc top], the [serve]
    daemon) can follow a live run by tailing the file with no IPC and a
    crash loses at most one partial line. The stream is also the only
    liveness signal: a silent row whose writer pid is gone has crashed,
    and serve workers renew their lease by publishing {!Heartbeat}.
    While tracing ({!trace_to_file}), each event is also recorded as a
    Chrome instant, so the trace timeline carries the same markers. *)
module Bus : sig
  type event =
    | Depth_solved of { depth : int; seconds : float }
        (** One BMC depth closed without a CEX; [seconds] is the wall
            time spent at that depth. *)
    | Cex_found of { depth : int }
    | Cache_hit
    | Cache_miss
    | Retry of { attempt : int; reason : string }
    | Unknown of { reason : string }
    | Fault_injected of { site : string }
    | Job_start of { goal_depth : int }  (** [-1] when unknown. *)
    | Job_done of { verdict : string; wall_s : float }
    | Solver_progress of {
        conflicts : int;
        learnts : int;
        conflicts_per_s : float;
      }  (** Periodic sample from the solver health watchdog. *)
    | Solver_stalled of { conflicts_per_s : float; learnts_per_s : float }
    | Heartbeat  (** A serve worker's lease renewal, once per depth. *)

  type stamped = {
    seq : int;
    ts : float;
    tid : int;
    pid : int;
    label : string;
    ev : event;
  }
  (** [seq] is monotone within one publishing process (a resumed
      campaign restarts it); [ts] is [Clock.wall_s]; [pid] is the
      publishing process. *)

  val attach : file:string -> unit -> unit
  (** Turn the bus on, appending to [file] (one [write] per event).
      Replaces any previous attachment. *)

  val detach : unit -> unit
  (** Turn the bus off and close the file sink. Idempotent. *)

  val enabled : unit -> bool
  (** A file sink is attached. *)

  val publish : ?label:string -> event -> unit
  (** Append the stamped event to the attached file, and, while tracing,
      record it as an instant ("i") event named [bus.<type>] (the
      ["type"] of its JSON line, e.g. [bus.cex_found]) whose [args] are
      the event's payload fields plus ["label"]. Two atomic loads when
      neither is on. [label] defaults to the innermost {!with_label}
      scope, or [""]. *)

  val with_label : string -> (unit -> 'a) -> 'a
  (** Run [f] with the domain-local label scope set — campaign entries
      use their label, [check_each] nests [entry/assertion]. A newly
      spawned domain starts with no scope. *)

  val sub_label : string -> string
  (** [sub_label n] is ["scope/n"], or just [n] at top level. *)

  val json_of_stamped : stamped -> Json.t
  val stamped_of_json : Json.t -> (stamped, string) result

  val pid_alive : int -> bool
  (** [kill 0] probe of an event writer: [true] while the process
      exists ([EPERM] counts as alive), [false] for pids [<= 0]. *)
end

(** {1 Solver health watchdog}

    Slope detection over the solver's periodic conflict-driven samples
    ([Sat.Solver.on_sample]): the BMC layer feeds cumulative conflict
    and learnt-clause counts; the watchdog computes their rates over a
    sliding window and, after [p_patience] consecutive windows with both
    rates below threshold, latches "stalled", publishes
    {!Bus.Solver_stalled} once, and invokes [on_stall] (which the BMC
    layer uses to trip the solver's budget early when [p_rebudget] is
    set, handing the query to the retry schedule). Sampling is
    conflict-driven, so a query wedged inside one propagation never
    samples again — that case is left to the budget deadline. *)
module Watchdog : sig
  type policy = {
    p_every : int;  (** sample every N conflicts *)
    p_window : int;  (** slope window, in samples (>= 2) *)
    p_patience : int;  (** consecutive below-threshold windows to stall *)
    p_min_conflicts_per_s : float;
    p_min_learnts_per_s : float;
    p_rebudget : bool;  (** trip the solver budget on stall *)
  }

  val default_policy : policy
  val policy : unit -> policy
  val set_policy : policy -> unit

  val policy_of_string : string -> (policy, string) result
  (** ["every=64,window=4,patience=2,min_cps=100,min_lps=0,rebudget=1"];
      unset keys keep their defaults. *)

  val arm_from_env : unit -> unit
  (** Install the policy from [AUTOCC_WATCHDOG] if set; raises [Failure]
      on a malformed value. *)

  type t

  val create :
    ?policy:policy -> ?on_stall:(cps:float -> lps:float -> unit) -> unit -> t
  (** One instance per solver query ([policy] defaults to the global
      one). *)

  val feed : t -> conflicts:int -> learnts:int -> now:float -> unit
  val stalled : t -> bool
  val conflicts_per_s : t -> float
  (** [nan] until the window fills (same for {!learnts_per_s}). *)

  val learnts_per_s : t -> float
end

(** {1 Prometheus text exposition} *)
module Prometheus : sig
  val sanitize : string -> string
  (** Metric-name mangling: non-[[a-zA-Z0-9_]] becomes ['_'], and
      everything is prefixed [autocc_]. *)

  val render : unit -> string
  (** The whole {!Metrics.snapshot} in Prometheus text format: counters
      and gauges verbatim, series reduced to [_count]/[_sum]/[_last]
      gauges. *)

  val of_snapshot : (string * Metrics.value) list -> string

  val write_file : string -> unit
  (** Atomic replace (write to [path ^ ".tmp"], then rename), so a
      scraper never observes a torn snapshot. *)
end

(** A background ticker rewriting the Prometheus snapshot — the
    [--metrics-file] flag. *)
module Exposition : sig
  val start : ?interval_s:float -> string -> unit
  (** Write the snapshot now and then every [interval_s] (default 2.0)
      seconds from a dedicated domain, until {!stop}. Replaces any
      previous ticker. *)

  val stop : unit -> unit
  (** Join the ticker and write one final snapshot. Idempotent; wired to
      {!shutdown}. *)

  val running : unit -> bool
end

(** {1 Cockpit}

    The aggregation model behind [autocc top]: a fold over stamped
    events (normally parsed back from a campaign's [events.jsonl]) into
    one row per label — current depth, verdict, cache hit ratio,
    conflict rate, and an ETA extrapolated from the per-depth solve
    times. Pure state + renderer, so tests drive it by feeding lines. *)
module Cockpit : sig
  type row = {
    ro_label : string;
    mutable ro_goal : int;  (** target depth; [-1] unknown *)
    mutable ro_depth : int;  (** deepest solved depth; [-1] none *)
    mutable ro_times : float list;  (** per-depth seconds, newest first *)
    mutable ro_verdict : string;
        (** ["running"] until a [Job_done]/[Cex_found]/[Unknown] *)
    mutable ro_hits : int;
    mutable ro_misses : int;
    mutable ro_retries : int;
    mutable ro_faults : int;
    mutable ro_cps : float;
    mutable ro_stalled : bool;
    mutable ro_first_ts : float;
    mutable ro_last_ts : float;
    mutable ro_wall : float;
    mutable ro_pid : int;  (** writer pid of the row's latest event *)
  }

  type t

  val create : unit -> t
  val feed : t -> Bus.stamped -> unit

  val feed_line : t -> string -> unit
  (** Parse one [events.jsonl] line and fold it in; malformed lines are
      counted ({!bad_lines}), not fatal — the file's last line may be
      mid-write. *)

  val rows : t -> row list
  (** Sorted by label. *)

  val events : t -> int
  val bad_lines : t -> int

  val eta_s : row -> float option
  (** Remaining-time estimate for a running row: geometric extrapolation
      of the recorded per-depth times with a clamped growth ratio.
      [None] when the row is finished or has no depth data yet. *)

  val render :
    ?now:float -> ?stale:float -> ?alive:(int -> bool) -> t -> string
  (** The terminal table: a header (event/cache totals) and one line per
      row. A running row silent for more than [stale] seconds (default
      10) is noted [CRASHED (pid N gone)] when [alive] (default
      {!Bus.pid_alive}) says its latest writer is gone, and
      [silent Ns] otherwise. Settled rows are never annotated. *)

  val render_json :
    ?now:float -> ?stale:float -> ?alive:(int -> bool) -> t -> Json.t
  (** The same snapshot as an [autocc.top/1] JSON object (one element of
      ["rows"] per cockpit row, raw numbers, [null] for unknowns, the
      liveness note of {!render} under ["note"]) — the
      [autocc top --json] payload for scripting. *)
end

(** {1 File tailing}

    Follow an append-only JSONL file by byte offset — the cross-process
    half of [autocc top] and of the serve daemon's lease renewals. Torn
    trailing lines (a writer mid-append) are carried to the next poll; a
    file that shrank (a fresh campaign truncated it) restarts the tail
    from byte zero. *)
module Tail : sig
  type t

  val create : ?at_end:bool -> string -> t
  (** [create path] starts a tail at offset 0; with [~at_end:true] it
      starts after the file's last complete line, so {!poll} returns
      only lines completed after the call ([autocc top] replays a file
      from the start, the serve daemon skips the history its beats
      cannot renew). The file need not exist yet. *)

  val poll : t -> string list
  (** Newly completed lines since the last poll (empty lines filtered),
      or [[]] when the file is absent or unchanged. *)

  val offset : t -> int
  (** The byte offset consumed so far. *)
end

(** {1 Numeric regression diffing}

    The ratio+floor regression gate of [autocc diff-runs]: JSON
    documents are flattened to dotted-path numeric leaves and only
    duration ([*_s], lower is better) paths are gated. *)
module Numdiff : sig
  val leaves : Json.t -> (string * float) list
  (** Numeric leaves keyed by dotted path (["asserts.0.wall_s"]), in
      document order. *)

  val gated : string -> bool
  (** Whether a path is gated, decided by its last segment: only a
      duration ([*_s]) is; every other leaf is informational. *)

  val thresholds : unit -> float * float
  (** [(ratio, floor_s)] from [AUTOCC_DIFF_RATIO] (default 1.5) and
      [AUTOCC_DIFF_FLOOR_S] (default 0.02); raises [Failure] on a
      malformed value. *)

  val regressed : ratio:float -> floor:float -> base:float -> fresh:float -> bool
  (** Worse by more than [ratio] AND by more than [floor] — both gates,
      so microsecond leaves don't trip the ratio on scheduler noise. *)
end

(** {1 Run ledger}

    Append-only cross-run provenance: one [autocc.run/1] JSON line per
    CLI/bench invocation in [<dir>/runs.jsonl] (line-flushed; a crash
    loses at most the trailing partial line). Verdict-cache provenance
    records cite {!Ledger.run_id}, so [autocc why] can resolve a cache
    hit back to the producing run's row here. *)
module Ledger : sig
  val schema : string
  (** ["autocc.run/1"]. *)

  type assert_record = {
    a_name : string;
    a_verdict : string;
        (** ["cex"], ["proof"], ["proved"], ["refuted"],
            ["unknown:<reason>"], or a campaign entry status. *)
    a_depth : int;  (** CEX/proof depth; [-1] unknown. *)
    a_wall_s : float;  (** [-1.] unknown. *)
    a_cached : bool;
  }

  type run = {
    r_id : string;
    r_tool : string;  (** [analyze], [prove], [campaign] or [bench]. *)
    r_subject : string;  (** DUT name(s) or bench subcommand. *)
    r_config : string;  (** the {!Bmc.cache_config}-shaped fingerprint *)
    r_dut_hash : string;  (** {!Cache.canon} structural digest, or [""] *)
    r_ts : float;
    r_wall_s : float;
    r_cpu_s : float;
    r_cache_hits : int;
    r_cache_misses : int;
    r_cache_stores : int;
    r_asserts : assert_record list;
    r_artifacts : string list;
  }

  val run_id : unit -> string
  (** This process's run id — generated once, stable for the process
      lifetime (time + pid). *)

  val resolve_dir : ?explicit:string -> unit -> string option
  (** Where the ledger lives: [explicit] if given, else
      [AUTOCC_LEDGER_DIR], else [AUTOCC_CACHE_DIR] (the ledger defaults
      to living beside the verdict cache), else [None]. *)

  val path : string -> string
  (** [path dir] is [dir ^ "/runs.jsonl"]. *)

  val json_of_run : run -> Json.t
  val run_of_json : Json.t -> (run, string) result

  val append : dir:string -> run -> unit
  (** Append one line (creating [dir] and the file as needed) and flush. *)

  val load : string -> run list * int
  (** [load dir] is all parseable runs of [path dir] in file
      (= chronological) order, plus the count of rejected lines.
      Missing file is [([], 0)]. *)

  val find : string -> ref:string -> run option
  (** Resolve a run reference in [dir]: ["~N"] is the Nth newest run
      (["~1"] = latest), anything else an id prefix (newest match
      wins). *)
end

(** {1 Span profiler}

    Fold a recorded Chrome-trace file back into a merged span tree —
    children with the same name at the same stack position aggregate
    their durations — and attribute self time per category (the part of
    the span name before the first ['.']: [sat], [cnf], [opt], [bmc],
    [cache], [explain], ...). Rendered by [autocc profile] as a text
    table or a self-contained flamegraph SVG. *)
module Profile : sig
  type node = {
    pn_name : string;
    mutable pn_total_us : float;
    mutable pn_self_us : float;  (** total minus children (clamped >= 0) *)
    mutable pn_count : int;
    mutable pn_children : node list;
  }

  type t = {
    p_roots : node list;
    p_total_us : float;
        (** Sum of root totals — the attributed time; within 5% of the
            run's wall when the CLI's root span covers the command. *)
    p_wall_us : float;  (** Trace extent: max span end - min span start. *)
    p_categories : (string * float) list;  (** self us per category, desc *)
    p_events : int;
  }

  val of_trace : Json.t -> (t, string) result
  (** Fold a [{"traceEvents": [...]}] document (only ["X"] spans are
      read; instants and counter samples are ignored). *)

  val of_file : string -> (t, string) result

  val table : t -> string
  (** Text rendering: an ["attributed ... of ... wall"] headline, the
      indented span tree, and the per-category self-time breakdown. *)

  val flamegraph_svg : t -> string
  (** A self-contained icicle-layout SVG (no external scripts or fonts);
      hover titles carry exact totals. *)
end

val enabled : unit -> bool
(** True when any face is on (tracing, metrics, or the event bus's file
    sink) — the gate instrumented layers use before installing sampling
    hooks. *)

val shutdown : unit -> unit
(** [Exposition.stop], [close_trace], [Bus.detach], [Metrics.disable] —
    idempotent; wired to CLI exit. *)
