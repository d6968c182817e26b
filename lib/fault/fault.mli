(** Deterministic fault injection for test builds.

    The recovery paths of the resource-governed runtime (budget
    exhaustion, crash isolation, campaign resume) are only trustworthy if
    they are exercised, so the verification layers carry named {e fault
    points} — cheap probes that do nothing in production but, when the
    harness is {e armed}, deterministically raise {!Injected} or fire a
    simulated stop at seeded points. Tests arm the harness, run the
    ordinary pipeline, and assert the contract that faults may only
    downgrade a verdict to [Unknown], never flip Sat<->Unsat.

    Determinism: whether the [n]-th hit of a site fires is a pure
    function of [(seed, site, n)] (a splitmix-style hash against the
    armed rate), so a single-domain run replays identically for a given
    seed. Under multiple domains the interleaving of hits is scheduling-
    dependent, but every individual decision is still drawn from the same
    deterministic die — the verdict-monotonicity contract must hold for
    {e any} interleaving.

    When disarmed (the default) every probe is a single [Atomic.get]. *)

exception Injected of string
(** Raised by {!point} when the die fires; carries the site name. The
    governed engines ({!Bmc}, {!Explain.Campaign}) catch this and
    downgrade the result rather than crash. *)

val arm : ?sites:string list -> ?rate:float -> seed:int -> unit -> unit
(** Arm the harness. [rate] (default 0.01) is the per-hit firing
    probability in [0, 1]; [sites] (default: all) restricts injection to
    the named fault points. Raises [Invalid_argument] on a rate outside
    [0, 1]. Re-arming resets all hit counters. *)

val arm_from_env : unit -> unit
(** Arm from the [AUTOCC_FAULT] environment variable, a comma-separated
    [key=value] list: [seed=42,rate=0.05,sites=sat.stop;opt.pass]. Does
    nothing when the variable is unset or empty — the hook production
    binaries call at startup so harnesses can inject without code
    changes. Raises [Failure] on a malformed specification. *)

val disarm : unit -> unit
(** Return to the zero-cost disarmed state and reset counters. *)

val reseed : offset:int -> unit
(** Roll the dice of seed [armed + offset], where [armed] is the seed
    given to {!arm}, and reset the counters; no-op when disarmed.
    Offsets do not compound: [reseed ~offset:n] always gives the fire
    sequence of a fresh [arm] at [armed + n], and [reseed ~offset:0]
    that of the armed seed. Fault decisions are a pure function of
    [(seed, site, n)], so a redelivered job would otherwise replay the
    exact fault sequence that killed its previous attempt, crash forever
    and quarantine. The service worker calls [reseed ~offset:attempt]
    before every job it runs, attempt 0 included, so each job rolls the
    dice of its delivery attempt however many jobs the worker ran
    before.

    Known process-level sites probed by the serve worker at every
    depth: ["serve.worker"] (worker self-[SIGKILL] mid-job),
    ["serve.lease"] (a heartbeat lease renewal silently dropped) and
    ["serve.stall"] (the worker sleeps 0.2 s after renewing, holding its
    job without depending on solver speed). *)

val armed : unit -> bool

val point : string -> unit
(** [point site] raises {!Injected site} when armed and the seeded die
    fires for this hit of [site]; otherwise does nothing. *)

val fire : string -> bool
(** Boolean form of {!point} for contexts where raising is wrong (e.g.
    simulating a spurious stop-hook firing): [true] when the die fires. *)

val hits : unit -> int
(** Total probe evaluations since arming (armed only) — lets tests check
    that the instrumented path actually passed through fault points. *)

val fired : unit -> int
(** Total faults fired since arming. *)
