(** Cycle-accurate interpreter for elaborated circuits.

    The usage protocol per cycle is: drive inputs with {!set_input}, read
    combinational results with {!peek} / {!out} (which evaluate lazily),
    then {!step} to latch registers and advance time. {!reset} returns all
    registers to their initial values.

    {!create} compiles the circuit once into slot-indexed arrays (one
    slot per node of {!Rtl.Circuit.topo}, each operand a slot number),
    so evaluating a cycle walks the combinational slots in order and
    looks nothing up. A slot at most [Sys.int_size - 1] bits wide (62
    on a 64-bit host) is narrow and holds its value as an OCaml [int]:
    a slot whose result and operands are all narrow is computed with
    masked integer operations that allocate nothing. Any other slot
    runs its {!Bitvec} operation, converting narrow operands. Values
    still enter and leave as {!Bitvec.t}. {!snapshot} and {!restore}
    save and reload the state a trace has reached, so a caller can
    replay many traces that share a prefix from the end of that prefix
    instead of from reset. *)

type t

val create : Rtl.Circuit.t -> t
(** A fresh simulator, in reset state, all inputs zero. *)

val circuit : t -> Rtl.Circuit.t

val reset : t -> unit
(** Registers to their initial values, inputs to zero, cycle to 0, and
    the watch logs emptied. *)

type snapshot
(** The state {!step} carries from one cycle to the next: the register
    values, the driven input values and the cycle counter. Inputs are
    part of it because an input keeps its value across cycles until
    {!set_input} assigns it again. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** [restore t s] puts back the registers, inputs and cycle counter of
    [s], which must come from a simulator of the same circuit (raises
    [Invalid_argument] on a size mismatch). Stepping on from there
    reproduces, cycle for cycle, what stepping on from the moment of
    the snapshot did. Watch logs are left untouched. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Raises [Failure] on unknown input or width mismatch. The value holds
    for every later cycle until the input is assigned again. *)

val set_input_int : t -> string -> int -> unit

val peek : t -> Rtl.Signal.t -> Bitvec.t
(** Combinational value of any node of the circuit in the current cycle,
    given the currently driven inputs. *)

val out : t -> string -> Bitvec.t
(** Value of an output port. *)

val out_int : t -> string -> int

val reg_value : t -> string -> Bitvec.t
(** Current (pre-step) value of a register looked up by name. *)

val step : t -> unit
(** Latch all registers with their next-state values and advance one
    cycle. *)

val cycle : t -> int
(** Number of [step]s since the last reset (or the cycle of the last
    restored {!snapshot} plus the steps since). *)

val run : t -> (string * Bitvec.t) list array -> unit
(** [run t inputs] drives a recorded input trace: for each cycle, apply
    the per-cycle assignments with {!set_input}, then {!step}. This is
    the shape of a BMC counterexample's input trace; watched signals
    record one sample per cycle as usual. *)

val watch : t -> Rtl.Signal.t list -> unit
(** Record the values of the given signals at every subsequent {!step};
    used for waveform output. Raises [Not_found] if a signal is not a
    node of the circuit. *)

val waveform : t -> (Rtl.Signal.t * Bitvec.t array) list
(** Recorded values, one array entry per stepped cycle. *)

val pp_waveform : Format.formatter -> t -> unit
(** Render the recorded waveform as an ASCII table, one signal per row. *)
