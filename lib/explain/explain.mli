(** Counterexample provenance and campaign observability.

    A {!Bmc.cex} prints as a flat input trace; root-causing it is a
    manual waveform walk, exactly as Sec. 4 of the paper narrates. This
    module turns a raw CEX into the paper's actual deliverable — a
    {e classified covert channel} (Tables 1 and 2: culprit state element,
    divergence path, observable output) — in three steps:

    - {b backward trace slicing} ({!slice}): starting from the failing
      output at [cex_depth], walk the DUT's fan-in cone (via {!Opt.cone})
      cycle by cycle, keeping only signal pairs whose α/β values actually
      differ along the replayed trace. The walk yields a {e provenance
      chain} from the culprit register at the context switch, through
      the combinational/sequential logic that propagated the difference,
      to the observable output — the UPEC-style propagation analysis
      that turns a counterexample into a security finding;
    - {b minimization} ({!minimize}): greedily truncate the witness
      depth and rewrite don't-care input bits to zero, accepting a
      rewrite only if the trace, replayed on the interpreter
      ({!Bmc.validate_on}), still violates the same assertion under all
      assumptions — so every minimized witness is replay-verified;
    - {b clustering} ({!cluster}): fingerprint each CEX by (culprit
      register, register-level divergence-path signature) and
      deduplicate a whole run's CEX pool into distinct named channels,
      Table-1 style.

    {!Campaign} sweeps a list of DUT configurations, runs the
    per-assertion CEX sweep ({!Bmc.check_each}), explains and clusters
    every witness, and persists one JSON artifact per channel plus a
    self-contained static HTML report with a waveform strip per channel
    rendered from the sliced trace.

    All passes are instrumented with {!Obs} spans and metrics
    ([explain.slice], [explain.minimize], [explain.cluster]; slice width
    per cycle, minimization iterations, cluster count), so [--trace]
    covers explanation time too. *)

(** {1 Trace slicing} *)

type link_kind = Reg | Input | Output | Node

type link = {
  link_cycle : int;  (** cycle at which this hop's divergence is observed *)
  link_label : string;  (** register/port/debug name, or an op label *)
  link_kind : link_kind;
  link_a : Bitvec.t;  (** value in universe α at [link_cycle] *)
  link_b : Bitvec.t;  (** value in universe β at [link_cycle] *)
}

type slice = {
  sl_assert : string;  (** failing assertion the slice explains *)
  sl_output : string option;  (** DUT output port behind the assertion *)
  sl_chain : link list;
      (** provenance chain, origin first and observable output last; only
          named hops (registers, inputs, outputs, debug-named nodes) are
          kept *)
  sl_culprit : string option;
      (** the culprit register: the chain's earliest register still
          diverging when spy mode begins — {!Synthesis.find_cause} on the
          sliced register set *)
  sl_spy_start : int option;  (** first spy-mode cycle along the trace *)
  sl_depth : int;  (** [cex_depth] of the sliced witness *)
  sl_widths : int array;
      (** per-cycle count of diverging cone signals — the slice width,
          also recorded as the [explain.slice_width] metric series *)
  sl_trace : (string * link_kind * Bitvec.t array * Bitvec.t array) list;
      (** per-cycle α/β values of every chain hop plus the monitor
          signals, cycles [0 .. sl_depth] — the waveform strip the HTML
          report renders *)
}

val slice : Autocc.Ft.t -> Bmc.cex -> slice
(** Slice one counterexample. The failing assertion is
    [List.hd cex.cex_failed]; use {!slice_assert} to target another. *)

val slice_assert : Autocc.Ft.t -> Bmc.cex -> string -> slice
(** Slice with respect to a specific failing assertion name
    (["as__<output>_eq"]). *)

val pp_slice : Format.formatter -> slice -> unit
(** Human rendering: the provenance chain with per-hop α/β values, the
    culprit, and the slice width profile. *)

(** {1 Minimization} *)

type minimized = {
  mn_cex : Bmc.cex;  (** the minimized, replay-verified witness *)
  mn_depth_delta : int;  (** cycles removed from the original depth *)
  mn_zeroed_bits : int;  (** input bits rewritten from 1 to 0 *)
  mn_iterations : int;  (** replay trials performed *)
}

val minimize : Autocc.Ft.t -> Bmc.cex -> minimized
(** Greedy replay-checked reduction: first shrink [cex_depth] (BMC
    already returns shallowest-first, so this usually holds the depth),
    then rewrite whole input words and then individual set bits to zero,
    cycle by cycle. Every trial is checked by {!Bmc.validate_on} — the
    assumptions must hold on every cycle and the {e original} failing
    assertion must still fail at the final depth, so the result provably
    witnesses the same channel.

    All trials of one witness share one simulator. The original witness
    and the depth-prefix trials replay from reset; a word or bit trial
    at cycle [c] restores a {!Sim.snapshot} of the accepted trace at the
    start of [c] and replays from there, which gives the outcome a full
    replay from reset would, because the trial differs from the
    accepted trace only at [c]. The result is replayed once more from
    reset with {!Bmc.validate} (not counted in [mn_iterations]); raises
    {!Bmc.Replay_mismatch} if the input witness, or that final check,
    fails to replay. *)

(** {1 Clustering} *)

type channel = {
  ch_name : string;  (** ["<culprit> -> <output>"], unique per campaign entry *)
  ch_fingerprint : string;  (** culprit + register-path signature *)
  ch_culprit : string option;
  ch_asserts : string list;  (** failing assertions merged into this channel *)
  ch_raw_cexs : int;  (** raw CEXs deduplicated into this channel *)
  ch_slice : slice;  (** representative (shallowest) slice *)
  ch_min : minimized;  (** minimized representative witness *)
}

val fingerprint : slice -> string
(** The dedup key: culprit register plus the ordered register hops of the
    provenance chain (observable outputs excluded, so the same stale
    state read through two output ports is one channel). *)

val cluster : Autocc.Ft.t -> Bmc.cex list -> channel list
(** Slice + minimize every CEX and group them by {!fingerprint},
    shallowest representative first. *)

(** {1 Campaign driver} *)

module Campaign : sig
  type entry = {
    e_label : string;  (** e.g. ["maple/m3"] *)
    e_dut : string;
    e_ft : unit -> Autocc.Ft.t;  (** fresh FT per run *)
    e_max_depth : int;
  }

  type channel_ref = {
    cr_name : string;
    cr_culprit : string option;
    cr_min_depth : int;  (** [cex_depth] of the minimized witness *)
    cr_artifact : string;  (** artifact basename in the campaign directory *)
  }
  (** What [campaign.json] records per channel — enough to index and
      link the per-channel artifact without re-solving. Resumed entries
      carry only these refs (their full {!channel} values live in the
      persisted artifacts). *)

  type entry_result = {
    r_label : string;
    r_dut : string;
    r_status : [ `Done | `Failed of string ];
        (** [`Failed msg]: the entry raised; the campaign recorded the
            failure and moved on (crash isolation). *)
    r_channels : channel list;
        (** empty for a bounded proof, a failed entry, or a resumed
            entry (see {!field-r_index}) *)
    r_index : channel_ref list;  (** one ref per channel, fresh or resumed *)
    r_raw_cexs : int;  (** size of the per-assertion CEX pool *)
    r_asserts : int;  (** assertions swept *)
    r_unknowns : int;
        (** assertions still inconclusive after all retry rounds *)
    r_depth : int;  (** max depth checked *)
    r_wall_ms : int;
    r_resumed : bool;  (** reused from a previous run's artifacts *)
  }

  type t = {
    c_results : entry_result list;
    c_artifacts : string list;  (** paths written, campaign.json first *)
  }

  val run :
    ?opt:Opt.level ->
    ?incremental:bool ->
    ?symmetric:bool ->
    ?cache:Cache.t ->
    ?budget:Bmc.budget ->
    ?retry:Retry.policy ->
    ?resume:bool ->
    ?out_dir:string ->
    ?should_stop:(unit -> bool) ->
    entry list ->
    t
  (** Sweep the entries: per entry, run {!Bmc.check_each} over the FT's
      property set ([budget] granted per assertion; [incremental]
      forwarded to the engine — [false] selects the scratch differential
      oracle), explain and
      {!cluster} every counterexample. Assertions left [Unknown] by a
      transient cause (budget, fault) are re-swept under [retry]'s
      escalated budgets / alternate solver configs with capped backoff;
      whatever remains inconclusive is counted in [r_unknowns]. An
      exception inside one entry downgrades it to a [`Failed] record
      instead of aborting the campaign. [symmetric] (default [true])
      enables the two-universe symmetric template encoding inside each
      sweep; [cache] memoizes per-assertion verdicts content-addressed
      by cone structure (see {!Cache}), so a resumed or re-run campaign
      over an edited DUT re-solves only the assertions whose cones
      changed — complementary to [resume], which reuses whole-entry
      artifacts only when {e nothing} changed.

      With [out_dir] set, persist the artifacts: [campaign.json]
      (index), one [channel_<entry>_<n>.json] per channel
      ({!json_of_channel}, schema ["autocc.channel/1"]) and a
      self-contained [report.html] with a waveform strip per channel.
      The index and report are rewritten after {e every} entry, so a
      killed campaign keeps all completed work. The directory is
      created if missing; an unwritable directory raises [Failure]
      before any solving starts.

      With [resume] set (requires [out_dir]), entries whose persisted
      record is conclusive — status ["done"], zero unknowns, same DUT
      and depth, every channel artifact present and valid — are reused
      without re-solving ([r_resumed = true]); all others are
      recomputed. Resuming an already-complete campaign rewrites
      [campaign.json] byte-identically. [run] does not check for a
      concurrent writer of the directory; callers ask {!live_writer}
      first.

      [should_stop] (default: never) is polled at each entry boundary;
      when it returns [true] the remaining entries are skipped and the
      already-checkpointed results returned — the hook signal handlers
      use to turn SIGTERM/SIGINT into a clean, resumable checkpoint
      instead of a mid-entry kill. *)

  val live_writer : string -> int option
  (** [live_writer dir] is the pid that wrote the last complete event of
      [dir/events.jsonl], when that process is still alive and is not
      this one: a resume of [dir] would then most likely race a
      concurrent campaign on the same state. [None] for an absent or
      empty stream. A recycled pid can make this a false alarm, so it
      is for warnings, not refusals. *)

  val json_of_channel : label:string -> dut:string -> channel -> Obs.Json.t
  (** The per-channel artifact: schema tag, channel naming, provenance
      chain, minimized witness (inputs as hex), slice widths, spy start
      and a telemetry snapshot. *)

  val json_of_campaign : t -> Obs.Json.t
  (** The [campaign.json] index: schema ["autocc.campaign/2"], one entry
      per result with status, counters and channel refs. Values are
      integers and strings only (wall time as [wall_ms]) with a fixed
      field order, so re-emitting a parsed index is byte-identical —
      the property [--resume] relies on. *)

  val html_report : t -> string
  (** The self-contained static HTML report. *)

  val pp : Format.formatter -> t -> unit
  (** Table-1-style text rendering: one line per entry, channels with
      culprit → output provenance and minimized depth. *)
end
