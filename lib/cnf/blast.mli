(** Tseitin bit-blasting of circuits into CNF.

    A blaster incrementally unrolls a circuit's transition relation into a
    SAT solver, one cycle at a time: primary inputs get fresh variables
    per cycle, registers take their initial value at cycle 0 and the
    literals of their next-state function from the previous cycle
    afterwards. Combinational operators are encoded with standard Tseitin
    clauses, with local constant propagation.

    One reserved variable represents the constant true so that constant
    bits are plain literals. *)

type t

type mode =
  | Direct
      (** Re-encode every cycle from the circuit graph. Constant folding
          sees the concrete reset state, so early frames are smaller;
          each cycle costs a full topological walk. The encoding used by
          the scratch (non-incremental) differential oracle. *)
  | Template
      (** Blast the transition cone once, symbolically, and stamp it out
          per cycle with a variable-offset substitution (registers bind
          to the previous frame's next-state literals, inputs and gate
          outputs take a fresh block). Cycle 0 is still encoded
          directly. The two universes of a two-universe miter circuit
          live inside one transition cone, so the single template covers
          both and is instantiated with distinct substitutions per
          cycle. *)

val create :
  ?free_init:bool ->
  ?mode:mode ->
  ?sym:(Rtl.Signal.t * Rtl.Signal.t) list ->
  Sat.Solver.t ->
  Rtl.Circuit.t ->
  t
(** Attach to a solver. The solver may be shared with other constraints;
    the blaster allocates its own variables.

    With [free_init] (default false), registers take fresh variables at
    cycle 0 instead of their reset values — the arbitrary-start-state
    encoding used by the inductive step of k-induction.

    [mode] (default [Direct]) selects the per-cycle encoding strategy;
    the two produce equisatisfiable unrollings with identical node
    semantics but different CNF shapes.

    [sym] (Template mode only; ignored by [Direct]) declares pairs of
    nodes that compute the same function of corresponding operands —
    the two universes of a symmetric miter. The template encoder blasts
    one member of each pair and derives the other's encoding as a pure
    variable renaming of the recorded clauses, roughly halving template
    construction on a two-universe circuit. Every pair is re-verified
    structurally (operator, width, operands pairwise shared-or-paired)
    before being used; pairs the optimizer broke fall back to direct
    encoding. The instantiated CNF is variable-for-variable isomorphic
    to the unshared build, so verdicts and counterexample depths are
    unchanged by construction — the [cnf.sym_substituted] /
    [cnf.sym_direct] metrics record how much of the cone was shared. *)

val solver : t -> Sat.Solver.t
val circuit : t -> Rtl.Circuit.t

val cycles : t -> int
(** Number of cycles unrolled so far. *)

val unroll_cycle : t -> unit
(** Encode one more cycle of the circuit. *)

val lits : t -> cycle:int -> Rtl.Signal.t -> Sat.Solver.lit array
(** Per-bit literals (lsb first) of a node at an unrolled cycle. Raises
    [Invalid_argument] if the cycle is not yet unrolled or the node is not
    part of the circuit. *)

val lit1 : t -> cycle:int -> Rtl.Signal.t -> Sat.Solver.lit
(** The single literal of a 1-bit node. *)

val node_value : t -> cycle:int -> Rtl.Signal.t -> Bitvec.t
(** Read a node's value out of the solver model after a [Sat] answer. *)

val input_value : t -> cycle:int -> string -> Bitvec.t

val state_distinct : t -> int -> int -> Sat.Solver.lit
(** [state_distinct t i j] is a literal that is true iff the register
    state vectors at cycles [i] and [j] differ — the loop-free-path
    (uniqueness) constraint of k-induction. For a circuit without
    registers this is the false literal. *)
