(** AutoCC FPV-testbench (FT) generation — the paper's core contribution.

    Given a DUT circuit, [generate] builds the two-universe wrapper of
    Fig. 2 and the property set of Listing 1:

    - the DUT is instantiated twice (universes α and β) with independent
      copies of every input, except inputs marked common;
    - a [transfer_cond] wire conjoins architectural-state equality,
      input equality and output equality (payloads gated by their
      transaction valids);
    - an [eq_cnt] counter tracks consecutive transfer cycles after
      [flush_done]; when it reaches the threshold, the registered
      [spy_mode] flag sets and stays set;
    - one assumption per DUT input: [spy_mode |-> input_eq];
    - one assertion per DUT output: [spy_mode |-> output_eq].

    A counterexample to any assertion is an execution pair in which the
    victim's pre-switch behaviour causes an observable difference in the
    spy's execution — a covert channel (or an RTL bug).

    The architectural-state condition and the flush-done condition default
    to the weakest choice (constant true, and a free symbolic input,
    respectively) and are refined by the user as counterexamples are
    found, exactly as in Sec. 4.1 of the paper. *)

type mapping = Rtl.Signal.t -> Rtl.Signal.t
(** Maps a DUT signal into one universe of the wrapper. *)

type t = {
  wrapper : Rtl.Circuit.t;  (** both universes plus the monitor logic *)
  dut : Rtl.Circuit.t;  (** the (possibly blackboxed) DUT *)
  map_a : mapping;
  map_b : mapping;
  spy_mode : Rtl.Signal.t;  (** registered spy-mode flag (1 bit) *)
  transfer_cond : Rtl.Signal.t;
  eq_cnt : Rtl.Signal.t;
  flush_done : Rtl.Signal.t;
  property : Bmc.property;
  sym : (Rtl.Signal.t * Rtl.Signal.t) list;
      (** symmetric (α, β) node pairs — the image of every DUT node
          under the two universe mappings, minus nodes the universes
          physically share. Fed to the blaster's symmetric template
          encoder (see {!Cnf.Blast.create}). *)
}

type sync = Flush_end | Flush_start
(** Which point of the flush event synchronizes the two universes
    (Sec. 3.2, "Measuring Context Switch Latency"). [Flush_end] (the
    default) takes the completion of the flush as the synchronization
    point: the transfer period is counted after [flush_done] and latency
    differences of the flush itself are invisible. [Flush_start] counts
    the transfer period {e before} the flush and starts the spy at the
    flush-start edge, making the flush part of the spy's observation —
    a Trojan-modulated flush latency then produces a CEX. *)

val generate :
  ?threshold:int ->
  ?sync:sync ->
  ?common:string list ->
  ?blackbox:string list ->
  ?arch_regs:string list ->
  ?arch_eq:(Rtl.Circuit.t -> mapping -> mapping -> Rtl.Signal.t) ->
  ?flush_done:(Rtl.Circuit.t -> mapping -> mapping -> Rtl.Signal.t) ->
  ?assumes:(Rtl.Circuit.t -> mapping -> mapping -> Rtl.Signal.t list) ->
  Rtl.Circuit.t ->
  t
(** [generate dut] builds the FT.

    @param threshold length of the transfer period (default 4; the
      heuristic in the paper is the longest path through the pipeline).
    @param common inputs shared verbatim between the two universes, in
      addition to those the DUT circuit itself marks common (the
      [//AutoCC Common] annotation).
    @param blackbox submodule boundaries to cut before wrapping.
    @param arch_regs DUT register names whose equality joins
      [architectural_state_eq] — the refinement knob of Sec. 4.
    @param arch_eq additional custom architectural-state condition over
      the two universes; it receives the final (post-blackbox) DUT
      circuit and the two universe mappings.
    @param flush_done condition indicating the microarchitectural flush
      has finished in both universes; default: a free symbolic 1-bit
      input, i.e. "anytime", as in Listing 1.
    @param assumes extra 1-bit environment assumptions, required to hold
      on {e every} cycle — the Sec. 3.4 mechanism for constraining the
      FPV tool to legal input sequences (e.g. "no memory response without
      an outstanding request") when spurious CEXs appear. *)

val check :
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?opt:Opt.level ->
  ?incremental:bool ->
  ?symmetric:bool ->
  ?cache:Cache.t ->
  t ->
  Bmc.outcome
(** Run BMC over the generated property set ({!Bmc.check}). [budget]
    bounds the solver run; exhaustion yields {!Bmc.outcome.Unknown}
    rather than an exception. [retry] (default {!Retry.default}, no
    retries) re-runs a transient Unknown through {!Retry.run}; the first
    attempt is the same call as without it. [opt] (default {!Opt.O2} —
    this is the product path) runs the {!Opt} netlist pipeline on the
    miter before blasting; verdicts and CEX depths are unchanged by
    construction.

    [symmetric] (default [true]) hands the two-universe pairing to the
    incremental engine's template blaster, which encodes the shared
    transition cone once and mirrors it — a pure construction-time
    saving; verdicts and CEX depths are identical by construction, and
    [~symmetric:false] (the CLI's [--no-symmetric]) is the differential
    oracle for that claim. [cache] memoizes conclusive verdicts across
    runs (see {!Cache} and {!Bmc.check}). *)

val prove :
  ?max_depth:int ->
  ?progress:(int -> unit) ->
  ?budget:Bmc.budget ->
  ?retry:Retry.policy ->
  ?opt:Opt.level ->
  ?incremental:bool ->
  ?symmetric:bool ->
  ?cache:Cache.t ->
  t ->
  Bmc.induction_outcome
(** Attempt an unbounded proof of the property set by k-induction
    ({!Bmc.prove}) — the "full proof" the paper reaches on the AES
    accelerator. The optional arguments behave as in {!check}. *)

val spy_start_cycle : t -> Bmc.cex -> int option
(** First cycle at which [spy_mode] is set along a counterexample
    trace. *)

val state_diff : t -> Bmc.cex -> cycle:int -> (string * Bitvec.t * Bitvec.t) list
(** Registers of the DUT whose two universes hold different values at the
    given cycle of a counterexample: (register name, value in α, value in
    β). This is the [FindCause] primitive of Algorithm 1. *)
