(** Human-readable counterexample analysis.

    The paper highlights that AutoCC counterexamples are short and easy to
    root-cause; this module renders a CEX the way Sec. 4 walks through
    them: which assertion fired, at what depth, when spy mode began, which
    microarchitectural state differed between the universes at that
    moment, and the per-cycle input trace. *)

val explain : Format.formatter -> Ft.t -> Bmc.cex -> unit

val summary : Ft.t -> Bmc.cex -> string
(** One-line summary: failing assertions, depth, and the differing state
    at spy start. *)

val first_divergence : Ft.t -> Bmc.cex -> (string * int) list
(** For every DUT register that ever differs between the universes along
    the counterexample trace, the first cycle at which it does —
    earliest first. The head of this list is usually the true root cause;
    registers that diverge later are downstream effects. *)

val pp_first_divergence : Format.formatter -> Ft.t -> Bmc.cex -> unit
(** One line per diverging register, earliest first:
    ["first divergence: stash@3, echo@4"]. The rendering every
    CEX-producing CLI command prints (analyze, prove, stats,
    campaign). *)

val dump_vcd : path:string -> Ft.t -> Bmc.cex -> unit
(** Write the counterexample as a VCD waveform: the monitor signals
    (spy_mode, transfer_cond, eq_cnt, flush_done), every DUT output in
    both universes, and every DUT register pair — the signal set one
    loads into the waveform viewer in the paper's appendix walkthrough. *)
