(* Test-driven development of a flush mechanism (Sec. 3.5): use AutoCC
   counterexamples to construct the set of microarchitectural registers
   that must be flushed for full temporal partitioning.

   Algorithm 1 grows the flush set from nothing, adding the register that
   each counterexample identifies; Algorithm 2 starts from a full flush
   and removes registers whose flush is unnecessary.

   Run with: dune exec examples/flush_tdd.exe *)

module Signal = Rtl.Signal
open Signal

(* A small engine with three hidden registers: two leak (a stashed value
   and a mode flag that changes response timing), one is harmless. *)
let engine () =
  let din = input "din" 8 in
  let cap = input "cap" 1 in
  let set_mode = input "set_mode" 1 in
  let query = input "query" 8 in
  let stash = reg "stash" 8 in
  let mode = reg "mode" 1 in
  let heartbeat = reg "heartbeat" 4 in
  reg_set_next stash (mux2 cap din stash);
  reg_set_next mode (mux2 set_mode (bit din 0) mode);
  reg_set_next heartbeat (heartbeat +: one 4);
  (* Hit reporting is only enabled in the right mode, so both the stash
     contents and the mode flag are hidden state that can leak. *)
  let hit = query ==: stash in
  Rtl.Circuit.create ~name:"engine"
    ~outputs:[ ("hit", mux2 mode hit gnd); ("beat", bit heartbeat 3) ]
    ()

let pp_steps steps =
  List.iter
    (fun step ->
      match step.Autocc.Synthesis.step_result with
      | `Cex (culprit, depth) ->
          Format.printf "  flush {%s}: CEX at depth %d -> add/keep %s@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            depth culprit
      | `Proof depth ->
          Format.printf "  flush {%s}: bounded proof to depth %d@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            depth
      | `Unknown reason ->
          Format.printf "  flush {%s}: inconclusive (%s)@."
            (String.concat ", " step.Autocc.Synthesis.step_flush)
            reason)
    steps

let () =
  let dut = engine () in
  Format.printf "Engine: %a@.@." Rtl.Circuit.pp_stats dut;

  Format.printf "Algorithm 1 — incremental flush construction:@.";
  let r1 =
    Autocc.Synthesis.incremental ~max_depth:10 ~threshold:2
      ~candidates:[ "stash"; "mode"; "heartbeat" ]
      dut
  in
  pp_steps r1.Autocc.Synthesis.steps;
  Format.printf "  => flush set: {%s} (proved: %b)@.@."
    (String.concat ", " r1.Autocc.Synthesis.flush_set)
    r1.Autocc.Synthesis.proved;

  Format.printf "Algorithm 2 — decremental flush minimization:@.";
  let r2 =
    Autocc.Synthesis.decremental ~max_depth:10 ~threshold:2
      ~candidates:[ "heartbeat"; "stash"; "mode" ]
      dut
  in
  pp_steps r2.Autocc.Synthesis.steps;
  Format.printf "  => minimal flush set: {%s} (proved: %b)@."
    (String.concat ", " r2.Autocc.Synthesis.flush_set)
    r2.Autocc.Synthesis.proved
