(** Bounded model checking of safety properties.

    A {!property} is a set of 1-bit [assume] signals, required to hold on
    every cycle, and named 1-bit [assert] signals, checked on every cycle.
    [check] searches for the shallowest execution in which some assertion
    fails at a cycle while all assumptions hold up to and including that
    cycle, unrolling one cycle at a time on a single incremental SAT
    solver. This mirrors the single-cycle SVA properties AutoCC generates
    ([assume property (spy_mode |-> input_eq)] becomes an unconditional
    1-bit implication signal).

    Counterexamples carry the full primary-input trace and are replayed on
    the {!Sim} interpreter before being reported, so a returned CEX is
    always simulation-validated. *)

type property = {
  assumes : Rtl.Signal.t list;
  asserts : (string * Rtl.Signal.t) list;
}

type cex = {
  cex_depth : int;  (** 0-based cycle at which an assertion failed *)
  cex_inputs : (string * Bitvec.t) list array;
      (** per-cycle assignment of every primary input *)
  cex_failed : string list;  (** names of the assertions that failed *)
  cex_circuit : Rtl.Circuit.t;
}

type stats = {
  depth_reached : int;  (** deepest cycle index fully checked *)
  solve_time : float;  (** seconds spent in the SAT solver *)
  vars : int;
  clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;  (** Luby restart periods completed *)
  opt : Opt.stats option;
      (** netlist-optimization counters when running at [-O2];
          [None] at [-O0] *)
}

(** {1 Resource budgets and the [Unknown] verdict}

    Industrial FPV flows treat {e inconclusive} as a first-class verdict
    with per-property budgets; so does this engine. A {!budget} bounds
    one [check]/[prove] call (and each sub-check of [check_each]), and
    exhaustion yields an [Unknown] verdict carrying a structured
    {!unknown_reason} instead of hanging or raising — exhaustion while
    exploring depth [k] still reports a result whose
    [stats.depth_reached] is [k - 1] ("clean up to [k - 1]"; [-1] when
    nothing completed).

    Soundness: [Unknown] is only ever a {e downgrade}. A budget or an
    injected fault ({!Fault}) can turn a would-be [Cex]/[Bounded_proof]
    into [Unknown], but never a [Cex] into a proof or vice versa —
    counterexamples are still simulation-replayed and proofs still
    require an exhaustive search of the bound. *)

type budget = {
  bud_wall_s : float option;  (** wall-clock budget in seconds *)
  bud_conflicts : int option;  (** SAT conflict budget per solver *)
  bud_learnts : int option;
      (** live learnt-clause watermark per solver (memory proxy) *)
}
(** Pure data (relative limits), so retry policies ({!Retry}) can scale
    it without touching a clock; the engine converts it into an absolute
    {!Sat.Solver.budget} at call entry. *)

val no_budget : budget

val budget :
  ?wall_s:float -> ?conflicts:int -> ?learnts:int -> unit -> budget
(** Raises [Invalid_argument] on a non-positive limit. *)

type case =
  | Base  (** reset-rooted search: all of [check], or [prove]'s base *)
  | Step  (** the arbitrary-start inductive step of [prove] *)

type unknown_reason =
  | Bound_exhausted
      (** [prove] reached [max_depth] without an answer — the
          completeness threshold was not reached *)
  | Budget_exhausted of {
      ub_budget : Sat.Solver.budget_kind;  (** which budget fired *)
      ub_depth : int;  (** the depth being explored when it fired *)
      ub_case : case;  (** base vs step *)
    }
  | Faulted of string
      (** an injected or internal failure (the {!Fault} site name)
          downgraded the run instead of crashing it *)

val unknown_reason_to_string : unknown_reason -> string
(** Stable machine-readable rendering, e.g.
    ["budget:conflicts@4:base"], ["bound"], ["fault:opt.pass"]. *)

type outcome =
  | Cex of cex * stats
  | Bounded_proof of stats
      (** no assertion can fail within [max_depth] cycles *)
  | Unknown of unknown_reason * stats
      (** gave up; clean up to [stats.depth_reached] *)

exception Replay_mismatch of string
(** Raised if a SAT counterexample fails to reproduce in simulation —
    indicates a bug in the blasting or solving layer. *)

val cache_config :
  engine:string ->
  max_depth:int ->
  opt:Opt.level ->
  incremental:bool ->
  solver_config:Sat.Solver.config option ->
  budget:budget ->
  string
(** The configuration fingerprint folded into every cache key:
    everything beyond the property's structure that can influence a
    verdict ([engine|d=..|o=..|i=..|s=..|b=..]). Also recorded verbatim
    in run-ledger rows and provenance records, so `autocc why` can show
    which configuration earned a cached verdict. *)

val cache_fingerprint :
  engine:string ->
  ?max_depth:int ->
  ?opt:Opt.level ->
  ?incremental:bool ->
  ?solver_config:Sat.Solver.config ->
  ?budget:budget ->
  property ->
  string * string * string
(** [(structural digest, cache key, config fingerprint)] — exactly the
    triple {!check} (engine ["check"]) or {!prove} (engine ["prove"])
    would address the verdict cache with for [property] under this
    configuration (defaults match theirs: depth 30, [O0], incremental,
    no solver config, no budget). [autocc why] uses this to locate and
    audit entries without running any engine; per-assertion entries of
    {!check_each} use the same shape on the single-assertion
    sub-property with [~incremental:true]. *)

val check :
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?solver_config:Sat.Solver.config ->
  ?opt:Opt.level ->
  ?budget:budget ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  property ->
  outcome
(** [check circuit property] with [max_depth] defaulting to 30 cycles.

    [incremental] (default [true]) selects the engine. Incrementally,
    [check] is one query of {!check_each}'s loop, asked over all
    assertions at once ("some assertion fails at depth [k]"): ONE solver
    session lives for the whole run, the transition relation is blasted
    once as a template and stamped out per depth, and each depth's
    query is guarded by a fresh activation literal
    ({!Sat.Solver.new_act}) that the answer retires — learnt clauses
    and branching activity survive across depths. With
    [~incremental:false] every depth gets a fresh solver and a fresh
    direct re-blast of cycles [0..k]: slower (quadratic in depth) but
    with an independent CNF shape and search trajectory, which is what
    makes it the differential oracle the incremental engine is fuzzed
    against (the [--no-incremental] escape hatch of the CLI). Both
    engines report the same verdicts, counterexample depths, and
    [Unknown] reasons; under a budget, exhaustion mid-sequence still
    reports clean up to depth [k - 1] in either mode (the conflict cap
    is cumulative across the scratch engine's per-depth solvers).

    [budget] (default {!no_budget}) bounds the whole call: its wall
    deadline is pinned once, when [check] is entered, before the
    optimizer runs. Exhaustion returns [Unknown (Budget_exhausted _,
    stats)] with [stats] honest about the deepest fully-checked cycle.
    An injected fault ({!Fault.Injected}) likewise returns
    [Unknown (Faulted _, stats)].

    [opt] (default {!Opt.O0}) runs the {!Opt} netlist pipeline over the
    instrumented circuit, restricted to the property's
    cone-of-influence, before blasting. Verdicts and counterexample
    depths are unchanged by construction; any counterexample found on
    the optimized circuit is widened (cone-dropped inputs are zero) and
    replayed on the {e unoptimized} circuit, so [cex_circuit] and
    [cex_inputs] always describe the original instrumented design.

    [progress] is invoked with each depth just before it is solved. The
    callback must not call back into this [check] run. Each depth that
    closes without a CEX publishes one {!Obs.Bus.Depth_solved}, and the
    CEX depth one {!Obs.Bus.Cex_found}.

    [solver_config] selects the SAT heuristics (see
    {!Sat.Solver.config}).

    [sym] (default none; incremental engine only) declares symmetric
    node pairs of a two-universe miter — see {!Cnf.Blast.create}. The
    pairs are remapped through the optimizer's node map (pairs the
    optimizer breaks or merges are dropped) and handed to the template
    blaster, which encodes one universe and derives the other by
    variable renaming. Verdicts and counterexample depths are
    unchanged by construction; the flag only shortens template
    construction. The scratch engine ignores it, which keeps
    [~incremental:false] a differential oracle for the symmetric path
    too.

    [cache] (default none) memoizes conclusive verdicts behind a
    content-addressed key (see {!Cache}): the canonical structural hash
    of the property cone plus a fingerprint of [max_depth], [opt],
    [incremental], [solver_config] and [budget]. Only [Cex] and
    [Bounded_proof] outcomes are stored — never [Unknown]. A cached
    counterexample is re-materialized by canonical input ordinal and
    replayed on the simulator before being trusted; entries that fail
    replay (or are structurally malformed) are evicted and recomputed,
    so a hit can never flip a verdict a fresh run would produce. *)

val check_each :
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?solver_config:Sat.Solver.config ->
  ?opt:Opt.level ->
  ?budget:budget ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  property ->
  (string * outcome) list
(** [check_each circuit property] runs one bounded check per assertion
    (all assumptions kept), in declaration order. Where {!check} stops
    at the shallowest failure of {e any} assertion, this sweep returns a
    witness (or bounded proof) for {e every} assertion — the raw
    counterexample pool a campaign deduplicates into distinct covert
    channels. Optional arguments behave as in {!check}; in particular
    [budget] is granted {e per assertion} (the per-property timeout
    discipline of industrial FPV runners), so one diverging assertion
    degrades to [Unknown] without starving the rest of the sweep.

    Incrementally (the default) the sweep asks one query per assertion
    on one shared solver session, through the same depth loop as
    {!check}: the circuit is optimized once over the union of the
    assertion cones, the unrolling is shared, and each per-assertion
    "holds at cycle [c]" verdict is asserted as a unit fact for every
    later query — sound because such verdicts are unconditional
    theorems under the assumptions. The per-assertion budget grant is
    re-based on the session's current counters (a deadline pinned when
    the assertion's query starts, [current + cap] conflict/learnt
    limits); a budget abort or injected fault poisons the session,
    which is dropped and rebuilt for the next assertion. The [stats] of
    each assertion count only its own query's solver work. With
    [~incremental:false] each assertion runs a fully
    independent scratch {!check} restricted to its own cone — the
    historical semantics, kept as the differential oracle.

    [sym] and [cache] behave as in {!check}. Cache entries are {e per
    assertion} — keyed on the single-assertion cone, with the same key
    shape as a one-assertion [check] — so a campaign resuming after a
    DUT edit re-verifies only the assertions whose cones actually
    changed; a hit skips the shared session entirely for that
    assertion. *)

val instrument : Rtl.Circuit.t -> property -> Rtl.Circuit.t
(** The extended circuit [check] verifies: the original outputs plus one
    output per assumption ([__bmc_assume_<i>]) and per assertion
    ([__bmc_assert_<name>]). Allocates no new signal nodes. Idempotent:
    property ports from an earlier instrumentation are replaced, not
    duplicated. *)

val preoptimize :
  ?opt:Opt.level ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  Rtl.Circuit.t ->
  property ->
  Rtl.Circuit.t * property * (Rtl.Signal.t * Rtl.Signal.t) list
  * Opt.stats option
(** [preoptimize circuit property] runs the same instrument-and-optimize
    front end {!check} runs (at [opt], default {!Opt.O2}), and returns
    the optimized circuit, the remapped property, the surviving
    symmetric pairs, and the optimizer statistics. Feeding the result
    back into {!check} at [~opt:O0] reproduces the optimized run while
    keeping the optimization cost out of the measured interval — the
    benchmark harness uses it to share one O2 setup between the arms it
    compares. *)

val validate :
  Rtl.Circuit.t ->
  property ->
  (string * Bitvec.t) list array ->
  int ->
  string list
(** [validate circuit property inputs depth] replays a candidate
    counterexample on a fresh {!Sim} interpreter from reset: all
    assumptions must hold on every cycle of [inputs] and some assertion
    must be false at [depth]. Returns the names of every failing
    assertion at [depth]; raises {!Replay_mismatch} otherwise.
    [circuit] must carry the property signals (use {!instrument}). It
    is {!validate_on} a fresh simulator. *)

val validate_on :
  Sim.t -> property -> (string * Bitvec.t) list array -> int -> string list
(** [validate_on sim property inputs depth] applies {!validate}'s rule
    to the cycles [Sim.cycle sim ..] of [inputs] only, running [sim]
    from the state it holds. If that state is a {!Sim.snapshot} of a
    trace that agrees with [inputs] on every earlier cycle and passed
    the assumption check on them, the result is [validate]'s. A [sim]
    already past [depth] never sees the failures there, so it raises
    {!Replay_mismatch}. *)

val replay_values : cex -> Rtl.Signal.t list -> (Rtl.Signal.t * Bitvec.t array) list
(** Per-cycle values (combinationally settled, cycles [0 .. cex_depth]) of
    the given signals along the counterexample trace. *)

val pp_cex : Format.formatter -> cex -> unit
(** Print the trace: per-cycle inputs and the failing assertions. *)

val equiv :
  ?max_depth:int ->
  ?opt:Opt.level ->
  ?incremental:bool ->
  Rtl.Circuit.t ->
  Rtl.Circuit.t ->
  outcome
(** [equiv a b] checks that two circuits with identical port interfaces
    are cycle-for-cycle observationally equal: a miter drives both with
    the same inputs and asserts every output pair equal, bounded to
    [max_depth]. Used to validate the Verilog round-trip (emit, parse,
    re-elaborate). Raises [Invalid_argument] if the interfaces differ. *)

(** {1 Unbounded proofs by k-induction}

    Bounded model checking only refutes; to {e prove} a property for
    executions of any length (the paper's "full proof" on the AES
    accelerator) the standard strengthening is k-induction: the base case
    is ordinary BMC from reset, and the inductive step asks whether a
    loop-free path of [k] good states starting {e anywhere} can reach a
    bad state. If the step is unsatisfiable at some [k] (and the base
    holds to [k]), the property holds at every depth. *)

type induction_outcome =
  | Proved of int * stats  (** property holds unboundedly; [k] reached *)
  | Refuted of cex * stats  (** genuine counterexample from reset *)
  | Unknown of unknown_reason * stats
      (** neither proved nor refuted: [Bound_exhausted] when [max_depth]
          was reached without an answer, or a budget/fault downgrade *)

val prove :
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?solver_config:Sat.Solver.config ->
  ?opt:Opt.level ->
  ?budget:budget ->
  ?incremental:bool ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  ?cache:Cache.t ->
  Rtl.Circuit.t ->
  property ->
  induction_outcome
(** [prove circuit property] interleaves the base case and the inductive
    step, deepening [k] until one of them answers. [progress],
    [solver_config], [opt] and [incremental] behave exactly as in
    {!check}. Each round asks {!check}'s query on two sessions: a
    reset-rooted base session, then a step session whose registers start
    free. Incrementally both persist across rounds (template frames,
    per-round activation literals, the accumulated loop-free condition);
    the scratch oracle rebuilds both instances per round with direct
    unrollings and the full pairwise uniqueness constraint. One wall
    deadline, pinned when [prove] is entered, is shared by every solver
    of the call. Every {!Opt} pass is a combinational rewrite that
    holds in every state, so the optimized circuit is sound under the
    arbitrary-start-state encoding of the step case. [sym] and [cache]
    behave as in {!check} ([Proved] joins the cacheable verdict set;
    [Unknown] is still never stored). Each [k]
    whose base case is clean publishes {!Obs.Bus.Depth_solved}, the
    proving [k] included; a refuting base case publishes
    {!Obs.Bus.Cex_found}. *)
