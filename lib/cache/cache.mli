(** Content-addressed verdict cache.

    A verification query is a pure function of the property cone's
    {e structure} and of the engine configuration: two queries whose
    netlist DAGs are isomorphic (same operators, same wiring, same
    constants — names are immaterial) and whose configuration
    fingerprints match must produce the same verdict. This module
    exploits that: {!canon} computes a canonical, order-independent
    digest of the cone reachable from a property's roots, {!key} folds
    in the configuration, and {!t} memoizes conclusive verdicts behind
    that key — in memory, and optionally on disk as append-only JSONL
    with a per-entry integrity digest, so repeated proofs and re-runs
    of edited DUTs skip straight to the verdict.

    Only conclusive verdicts are cacheable: a bounded proof at exactly
    the queried depth, a full inductive proof, or a counterexample.
    [Unknown] verdicts (budget exhaustion, faults, bound exhaustion of
    [prove]) are never stored — they depend on transient resource state,
    not on the query.

    Soundness does not rest on the hash alone: the BMC layer re-validates
    every cached counterexample against the fresh circuit on the
    simulator before trusting it, and rejects (and recomputes) entries
    whose replay fails. Disk entries additionally carry an MD5 digest of
    their payload; a corrupted or torn line is rejected at load time and
    counted, never surfaced. *)

(** {1 Canonical structural hashing} *)

type canon = {
  c_digest : string;
      (** Hex digest of the canonical serialization of the cone. Equal
          for alpha-renamed or reordered-but-isomorphic DAGs; different
          whenever any reachable operator, wiring, width or constant
          differs. *)
  c_inputs : Rtl.Signal.t array;
      (** The [Input] nodes of the cone, in canonical (deterministic
          traversal) order. A counterexample is serialized against these
          ordinals, so it re-materializes correctly on any isomorphic
          circuit regardless of input names. *)
  c_nasserts : int;  (** Number of assertion roots hashed. *)
}

val canon :
  assumes:Rtl.Signal.t list -> asserts:Rtl.Signal.t list -> canon
(** [canon ~assumes ~asserts] walks the DAG reachable from the property
    roots (assumptions first, then assertions, both positional) —
    through register next-state functions — assigning canonical indices
    in traversal order, and digests the per-node records (operator,
    width, constant payloads, canonical argument indices). Input {e
    names} are deliberately excluded: inputs are identified by their
    structural position only. *)

val key : canon -> config:string -> string
(** Final cache key: the structural digest combined with an opaque
    configuration fingerprint (engine, depth bound, opt level, solver
    config, budget, …) built by the caller. Distinct configurations
    never share entries. *)

(** {1 Verdicts} *)

type cex = {
  v_depth : int;
  v_inputs : (int * Bitvec.t) list array;
      (** Per cycle: assignments keyed by canonical input ordinal (an
          index into {!canon.c_inputs} of the cone the entry was stored
          against). *)
  v_failed : int list;
      (** Ordinals (positions in the assert list) of the failing
          assertions — advisory; the replaying engine recomputes them. *)
}

type verdict =
  | Bounded of int  (** no assertion fails up to (inclusive) this depth *)
  | Proved of int  (** k-induction succeeded at this k *)
  | Cex of cex

(** {1 Provenance}

    Who earned a verdict. The record is attached at store time, rides
    the JSONL line as an optional field {e outside} the integrity digest
    (pre-provenance stores still load; they answer [None]), and is
    surfaced by [autocc why] to audit a warm hit back to the run that
    carried the solve. Provenance is descriptive only — no verdict
    decision ever reads it. *)

type prov = {
  p_run : string;  (** producing process's {!Obs.Ledger.run_id} *)
  p_engine : string;  (** ["check"] or ["prove"] *)
  p_config : string;  (** the full config fingerprint behind the key *)
  p_key : string;  (** the cache key itself (self-describing lines) *)
  p_ts : float;  (** store time, seconds since the epoch *)
}

(** {1 Store} *)

type t
(** A verdict store: an in-memory table, optionally backed by an
    append-only [verdicts.jsonl] in a cache directory. One instance may
    be shared by concurrent domains (operations are mutex-guarded). *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  rejects : int;
      (** everything ever distrusted: load-time parse/digest failures
          plus live evictions *)
  evictions : int;  (** live {!remove}s alone (a subset of [rejects]) *)
  size : int;  (** entries currently in the table *)
}

val create : ?dir:string -> unit -> t
(** [create ()] is a purely in-memory cache. [create ~dir ()] loads any
    existing [dir/verdicts.jsonl] (creating [dir] if needed) — rejecting
    and counting lines that fail to parse or whose integrity digest does
    not match — and appends every subsequent store to it. The disk store
    is best-effort: I/O errors (and injected [cache.store] faults)
    degrade to memory-only operation and can never affect verdicts. *)

val close : t -> unit
(** Close the disk store: later stores stay in memory. A process that
    opens a store per job, like a serve worker running job after job,
    closes each one, or it keeps one descriptor open per job. *)

val find : t -> string -> verdict option
(** Guarded lookup; counts a hit or a miss, under a [cache.lookup]
    telemetry span. *)

val peek : t -> string -> (verdict * prov option) option
(** Audit lookup for [autocc why]: the entry plus its provenance,
    without touching the hit/miss counters or publishing bus events. *)

val add : ?prov:prov -> t -> string -> verdict -> unit
(** Memoize a conclusive verdict, appending it to the disk store when
    one is attached. The write path contains the [cache.store] fault
    site: an injected fault simulates a torn write (a truncated line
    that load-time integrity checking must reject) instead of raising. *)

val remove : t -> string -> unit
(** Drop an entry whose payload failed downstream validation (e.g. a
    cached counterexample that no longer replays); counted as both a
    reject and an eviction. The recomputed verdict's subsequent {!add}
    supersedes the stale disk line (last write wins at load). *)

val stats : t -> stats
(** Counters since [create] (loads count neither hits nor misses;
    load-time corruption counts as rejects). *)

val dir : t -> string option
(** The attached cache directory, if any. *)
