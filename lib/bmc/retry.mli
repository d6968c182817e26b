(** Retry policies for inconclusive verification jobs.

    When a job comes back [Unknown] because a budget fired or a fault
    was injected, the runtime may try again with an escalated budget
    and/or an alternate solver configuration, after a capped exponential
    backoff. The schedule is a set of {e pure} functions of their
    arguments ({!scale} to {!should_retry}), unit-testable without
    clocks or solvers; {!run} is the effectful half that sleeps and
    re-runs.

    Attempts are numbered from 0 (the original try); a policy with
    [max_attempts = 1] never retries. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first; >= 1 *)
  growth : float;  (** budget multiplier per retry; >= 1 *)
  cap : float;  (** ceiling on the cumulative multiplier *)
  backoff_base_s : float;  (** delay before the first retry *)
  backoff_cap_s : float;  (** ceiling on the retry delay *)
  alternate_configs : Sat.Solver.config list;
      (** solver configurations rotated through on retries; empty means
          every attempt keeps the caller's configuration *)
}

val default : policy
(** [max_attempts = 1] — no retries, zero behaviour change. *)

val policy :
  ?max_attempts:int ->
  ?growth:float ->
  ?cap:float ->
  ?backoff_base_s:float ->
  ?backoff_cap_s:float ->
  ?alternate_configs:Sat.Solver.config list ->
  unit ->
  policy
(** Defaults: [max_attempts = 3], [growth = 4.], [cap = 64.],
    [backoff_base_s = 0.05], [backoff_cap_s = 2.], alternates drawn from
    {!Sat.Solver.portfolio}[ 4] minus its head (the default config).
    Raises [Invalid_argument] on [max_attempts < 1], [growth < 1.], or
    negative delays. *)

val scale : policy -> attempt:int -> float
(** The budget multiplier for [attempt]: [min (growth ^ attempt) cap].
    [scale ~attempt:0 = 1.] always. *)

val budget_for : policy -> Bmc.budget -> attempt:int -> Bmc.budget
(** [budget] with every set limit multiplied by [scale ~attempt]
    (integer limits rounded down, kept >= 1). Unset limits stay unset. *)

val config_for : policy -> attempt:int -> Sat.Solver.config option
(** [None] for attempt 0 (keep the caller's configuration) or when
    [alternate_configs] is empty; otherwise the alternates cycled in
    order starting from the first retry. *)

val backoff_s : policy -> attempt:int -> float
(** Delay to wait before launching [attempt] (>= 1):
    [min (backoff_base_s *. 2. ^ (attempt - 1)) backoff_cap_s]. *)

val should_retry : policy -> attempt:int -> Bmc.unknown_reason -> bool
(** True iff another attempt is allowed ([attempt + 1 < max_attempts])
    and the reason is transient: budget exhaustion or an injected fault.
    [Bound_exhausted] is never retried — a deeper bound needs a
    different [max_depth], not a bigger budget. *)

val run :
  policy ->
  budget:Bmc.budget ->
  reason_of:('a -> Bmc.unknown_reason option) ->
  (budget:Bmc.budget -> solver_config:Sat.Solver.config option -> 'a) ->
  'a
(** [run p ~budget ~reason_of f] calls [f] until its result is
    conclusive ([reason_of] gives [None]) or {!should_retry} says stop,
    and returns the last result. Attempt 0 gets [budget] itself and no
    solver configuration, so under {!default} [run] is exactly one call
    of [f]. Each retry publishes {!Obs.Bus.Retry}, adds one to the
    [bmc.retries] counter, sleeps {!backoff_s}, then calls [f] with
    {!budget_for} and {!config_for} of its attempt. *)

val count : int -> unit
(** Add [n] retries to the [bmc.retries] counter (registered on the
    first retry, so a run without one shows no such metric). For retry
    loops that do not go through {!run}, such as a campaign's
    per-assertion retry rounds. *)
