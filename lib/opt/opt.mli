(** Word-level netlist optimization, run between FT construction and
    bit-blasting.

    The two-universe miter AutoCC builds duplicates every DUT gate, and
    the BMC loop re-encodes the whole signal DAG at every unrolled depth,
    so netlist reductions are paid back [max_depth] times per run. The
    pipeline applies, in order:

    + {b structural hash-consing (strash/CSE)}: structurally identical
      gates (commutative operands normalized) collapse to one node;
    + {b constant folding and algebraic rewrites}: identity/annihilator
      operands, double negation, muxes with equal arms, slice-of-slice
      and slice-of-concat collapsing, nested-concat flattening;
    + {b cone-of-influence restriction}: only the outputs named in
      [keep_outputs] (for BMC: the property signals) are kept as roots —
      logic feeding no assumption or assertion is never encoded.

    {b Soundness.} Every pass is a local, semantics-preserving graph
    rewrite, so the optimized circuit is cycle-accurate against the
    original on the simulator, and BMC verdicts {e and counterexample
    depths} are unchanged. {!Bmc} additionally replays every
    counterexample found on an optimized circuit against the
    {e unoptimized} instrumented circuit, so optimizer bugs surface as
    {!Bmc.Replay_mismatch} rather than as wrong answers. The pipeline
    is a deterministic function of its input: no SAT queries, no clock
    and no randomness decide what it produces. *)

type level = O0 | O2
(** [O0] disables the pipeline; [O2] runs it: strash, rewrites and
    cone-of-influence. *)

val level_of_int : int -> level
(** [0 -> O0], any positive level [-> O2] (the command line still
    accepts [-O1], which runs the same pipeline). Raises
    [Invalid_argument] on negatives. *)

val level_to_int : level -> int

type stats = {
  o_nodes_before : int;  (** nodes of the input circuit *)
  o_nodes_after : int;  (** nodes of the optimized circuit *)
  o_coi_dropped : int;  (** nodes outside the kept outputs' cones *)
  o_cse_merged : int;  (** structural-hash hits *)
  o_rewrites : int;  (** algebraic-rewrite hits *)
  o_sweep_merged : int;
      (** always 0: the pipeline has no SAT sweep; kept because the
          repository benchmark still reads it *)
  o_sat_queries : int;
      (** always 0: the pipeline issues no SAT queries; kept because the
          repository benchmark still reads it *)
  o_time : float;  (** seconds spent optimizing *)
}

val empty_stats : stats

val pp_stats : Format.formatter -> stats -> unit

val cone : Rtl.Circuit.t -> roots:Rtl.Signal.t list -> Rtl.Signal.t list
(** Backward fan-in cone-of-influence: every node of the circuit reachable
    from [roots] through operator arguments and register next-state
    functions, returned in the circuit's topological order. This is the
    same reachability the [keep_outputs] restriction of {!optimize} prunes
    by; exposed so trace slicing ({!Explain}) can watch exactly the nodes
    that can affect a failing assertion. Roots outside the circuit are
    ignored. *)

type result = {
  opt_circuit : Rtl.Circuit.t;
  opt_map : Rtl.Signal.t -> Rtl.Signal.t;
      (** Maps a node of the input circuit (within the kept cones) to
          its optimized counterpart. Raises [Not_found] for nodes whose
          cone was dropped. *)
  opt_stats : stats;
}

val optimize :
  ?level:level -> ?keep_outputs:string list -> Rtl.Circuit.t -> result
(** [optimize circuit] runs the pipeline (default level {!O2}) over the
    outputs named in [keep_outputs] (default: all outputs). At {!O0} the
    circuit is returned unchanged with the identity map. *)
