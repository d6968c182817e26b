(** A CDCL SAT solver.

    Conflict-driven clause learning in the MiniSat lineage: two-watched-
    literal propagation, first-UIP conflict analysis, VSIDS variable
    activities with phase saving, Luby restarts, and activity-based
    deletion of learned clauses.

    The solver is incremental: clauses and variables may be added between
    {!solve} calls, and each call may carry a list of assumption literals
    that hold only for that call — the mechanism {!Bmc} uses to activate
    per-depth constraints. The root-level trail is propagated once; later
    calls resume from where the previous one stopped.

    Storage: every clause lives inline in one growable [int array] arena
    (a header word with its length and learnt/deleted bits, an activity
    slot, then its literals), and each literal has one flat watch list
    of (clause, blocker literal) pairs, so a clause whose blocker is
    true is skipped without being read. A watch entry flags a binary
    clause, whose blocker is always its other literal: when that
    literal is not true the clause is a unit or a conflict, again
    without being read. Learnt-clause reduction compacts the arena in
    place, sliding live clauses down in address order and re-pointing
    reasons and watches in the same pass. The decision heap sifts by
    moving a hole, and its tie rule is fixed: a variable rises only when
    strictly more active, and sinking takes the left child on a tie.
    That rule orders variables of equal activity, and so the
    decisions. *)

type t

type lit = private int
(** A literal; obtain with {!lit} or {!neg}. *)

type result = Sat | Unsat

type config = {
  cfg_name : string;  (** label, e.g. in retry logs *)
  var_decay : float;  (** VSIDS activity decay, in (0, 1) *)
  restart_first : int;  (** conflicts in the first Luby restart period *)
  default_polarity : bool;  (** initial saved phase of fresh variables *)
}
(** Search-heuristic knobs, none of which affect soundness. A solver's
    behaviour is a deterministic function of its configuration and the
    clause/solve sequence it is fed, so two solvers with equal
    configurations run identical searches — which is what lets a
    [Retry] escalation re-run a query under a known alternate search. *)

val default_config : config

val portfolio : int -> config list
(** [portfolio k] is [k] diverse configurations (varying decay, restart
    cadence and default polarity). The first is always
    {!default_config}; [Retry.policy] draws its alternates from the
    rest. *)

exception Stopped
(** Raised from inside {!solve} when the [stop] hook passed to {!create}
    returns true. After [Stopped] the solver's search state is undefined
    and the instance must be discarded. *)

(** {1 Resource budgets}

    Long unattended campaigns need a solver that {e gives up} instead of
    hanging: a budget bounds one solver instance by wall-clock deadline,
    cumulative conflicts, and a live learnt-clause watermark (the memory
    proxy — learnt clauses are where an incremental CDCL instance's
    footprint grows without bound). Budgets compose with the [stop]
    hook, and exhaustion is distinguishable from external cancellation:
    a fired budget raises {!Out_of_budget} (never {!Stopped}) and leaves
    its cause in {!stats}[.s_interrupt]. *)

type budget_kind =
  | Wall_clock  (** the deadline passed *)
  | Conflicts  (** the cumulative conflict cap was hit *)
  | Memory  (** the live learnt-clause watermark was crossed *)

type budget = {
  b_deadline : float option;
      (** absolute time on the [b_clock] axis after which {!solve}
          aborts; checked at the propagation poll point *)
  b_conflicts : int option;  (** cap on this instance's total conflicts *)
  b_learnts : int option;  (** watermark on live learnt clauses *)
  b_clock : unit -> float;
      (** the clock [b_deadline] is measured against — supplied by the
          caller so this library stays dependency-free (and so tests can
          mock time); consulted only when a deadline is set *)
}

val no_budget : budget
(** No limits; [b_clock] is never called. *)

exception Out_of_budget of budget_kind
(** Raised from inside {!solve} when a budget is exhausted. Exactly like
    {!Stopped}, the search state is afterwards undefined and the
    instance must be discarded; unlike {!Stopped}, the cause is a
    resource limit, not an external cancellation. *)

val budget_kind_to_string : budget_kind -> string
(** ["wall_clock" | "conflicts" | "memory"] — the machine-readable names
    used in reports and JSON artifacts. *)

val create : ?config:config -> ?stop:(unit -> bool) -> unit -> t
(** [create ()] uses {!default_config} and a never-firing stop hook.
    [stop] is polled from the propagation loop (roughly once per thousand
    propagations); it must be cheap and safe to call from the domain
    running the solve. *)

val set_budget : t -> budget -> unit
(** Install (or replace, between [solve]s) the instance's budget.
    Freshly-created solvers carry {!no_budget}. *)

val trip_budget : t -> budget_kind -> unit
(** Request early budget exhaustion: the next budget poll inside
    {!solve} aborts with [Out_of_budget kind] exactly as if the real
    limit had fired. Safe to call from an {!on_sample} hook (which must
    not raise into the search loop itself) — this is how a solver-health
    watchdog hands a stalled query to the retry schedule without the
    solver depending on the telemetry layer. The request is consumed by
    the abort, so a later [solve] (e.g. a retry with a fresh budget)
    starts clean. *)

val config : t -> config

val new_var : t -> int
(** Allocate a fresh variable; returns its id (>= 0). *)

val num_vars : t -> int

val lit : int -> bool -> lit
(** [lit v sign] is [v] when [sign], [¬v] otherwise. *)

val neg : lit -> lit
val var_of_lit : lit -> int
val lit_sign : lit -> bool

val add_clause : t -> lit list -> unit
(** Add a clause. Adding the empty clause (or a clause that simplifies to
    it) makes the instance permanently unsatisfiable. All variables must
    have been allocated. *)

val solve : ?assumptions:lit list -> t -> result
(** Solve under the given assumptions. After [Sat], {!value} reads the
    model. After [Unsat] under assumptions, the solver remains usable. *)

(** {1 Activation literals}

    The protocol behind incremental BMC: a clause group guarded by a
    fresh activation literal [a] is dormant until a {!solve} call
    carries [a] as an assumption, and is permanently disabled by
    {!retire} — the unit clause [¬a]. Learnt clauses derived while [a]
    was assumed mention [¬a] wherever they depend on the group, so they
    remain sound (and become satisfied, then collectable) once the
    group is retired. *)

val new_act : t -> lit
(** A fresh activation literal (a positive literal over a fresh
    variable). *)

val add_clause_act : t -> act:lit -> lit list -> unit
(** [add_clause_act s ~act c] adds the guarded clause [¬act ∨ c]: inert
    until [act] is assumed, indistinguishable from a plain clause while
    it is. *)

val retire : t -> lit -> unit
(** [retire s act] adds the unit clause [¬act], permanently disabling
    every clause guarded by [act]. The guarded clauses stay in the
    clause database, satisfied at level 0. *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. Unconstrained
    variables read [false]. Raises [Failure] if the last call was not
    satisfiable. *)

val num_clauses : t -> int
val num_propagations : t -> int

(** {1 Statistics and sampling}

    The solver keeps this library dependency-free: it exposes a plain
    stats struct and a periodic callback, and the telemetry layer
    ({!Obs}) is wired in by callers ({!Bmc}) that can see both. *)

type interrupt =
  | I_stopped  (** the external [stop] hook fired *)
  | I_budget of budget_kind  (** a resource budget was exhausted *)

type stats = {
  s_vars : int;
  s_clauses : int;  (** problem clauses *)
  s_learnts : int;  (** currently-live learnt clauses *)
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;  (** Luby restart periods completed *)
  s_reduces : int;  (** learnt-database reductions *)
  s_learned_total : int;  (** learnt clauses ever recorded (incl. units) *)
  s_interrupt : interrupt option;
      (** why the last {!solve} was aborted, if it was — the field that
          keeps budget exhaustion distinguishable from external
          cancellation in merged reports *)
}

val stats : t -> stats
(** A consistent snapshot; callable between (not during) [solve]s from
    the owning domain, and from the sampling hook. *)

val last_solve : t -> stats
(** Like {!stats}, but the counter fields ([s_conflicts],
    [s_decisions], [s_propagations], [s_restarts], [s_reduces],
    [s_learned_total]) cover only the most recent {!solve} call: each
    call snapshots the cumulative counters on entry and this view
    subtracts the snapshot. Size fields ([s_vars], [s_clauses],
    [s_learnts]) remain absolute. The per-query cost view an
    incremental caller wants when one instance serves many queries. *)

val on_sample : t -> every:int -> (stats -> unit) -> unit
(** Install a hook called every [every] conflicts from inside [solve],
    on the domain running the solve. The hook must be cheap and must not
    call back into the solver. Raises [Invalid_argument] when
    [every <= 0]. With no hook installed the per-conflict overhead is a
    single comparison. *)

val pp_stats : Format.formatter -> t -> unit
