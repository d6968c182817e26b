(* Random circuit generation shared by the RTL, simulator and CNF test
   suites. Circuits draw from every operator of the IR, contain registers
   (with feedback), and expose a handful of fixed-width inputs/outputs so
   that differential testing (simulator vs clone, simulator vs SAT model)
   is straightforward. *)

module Signal = Rtl.Signal

let input_specs = [ ("a", 4); ("b", 4); ("c", 1); ("d", 7) ]

(* Build a random combinational/sequential DAG over the inputs. *)
let random_circuit st ~num_nodes ~num_regs =
  let inputs = List.map (fun (n, w) -> Signal.input n w) input_specs in
  let regs =
    List.init num_regs (fun i ->
        let w = 1 + Random.State.int st 8 in
        let init = Bitvec.random st w in
        Signal.reg ~init (Printf.sprintf "r%d" i) w)
  in
  let pool = ref (inputs @ regs) in
  let pick () =
    let l = !pool in
    List.nth l (Random.State.int st (List.length l))
  in
  let pick_width w =
    let candidates = List.filter (fun s -> Signal.width s = w) !pool in
    match candidates with
    | [] -> Signal.uresize (pick ()) w
    | l -> List.nth l (Random.State.int st (List.length l))
  in
  let add s = pool := s :: !pool in
  for _ = 1 to num_nodes do
    let a = pick () in
    let w = Signal.width a in
    let b = pick_width w in
    let node =
      match Random.State.int st 14 with
      | 0 -> Signal.( ~: ) a
      | 1 -> Signal.( &: ) a b
      | 2 -> Signal.( |: ) a b
      | 3 -> Signal.( ^: ) a b
      | 4 -> Signal.( +: ) a b
      | 5 -> Signal.( -: ) a b
      | 6 -> Signal.( *: ) a b
      | 7 -> Signal.( ==: ) a b
      | 8 -> Signal.( <: ) a b
      | 9 -> Signal.slt a b
      | 10 ->
          let sel = pick_width 1 in
          Signal.mux2 sel a b
      | 11 -> Signal.concat [ a; b ]
      | 12 ->
          let hi = Random.State.int st w in
          let lo = Random.State.int st (hi + 1) in
          Signal.select a hi lo
      | _ -> Signal.const (Bitvec.random st w)
    in
    if Signal.width node <= 16 then add node
  done;
  (* Close register feedback with arbitrary pool values. *)
  List.iter
    (fun r -> Signal.reg_set_next r (pick_width (Signal.width r)))
    regs;
  let outputs =
    List.init 3 (fun i -> (Printf.sprintf "out%d" i, pick ()))
  in
  Rtl.Circuit.create ~name:"random" ~outputs ()

let random_inputs st =
  List.map (fun (n, w) -> (n, Bitvec.random st w)) input_specs

(* A random multi-assert property over an existing circuit, for
   differential testing of the engines. Assertion shapes are
   mixed so that counterexample depths vary within one property:

   - "reachable": simulate one random execution and assert a node never
     takes a value it was just observed to take — refutable within the
     sampled depth (unless an assumption happens to block the trace);
   - "random constant": the node never equals a random value — sometimes
     shallow, sometimes unreachable within the bound;
   - a raw low bit, failing immediately on many traces;
   - [s ==: s], never failing, so shards also exercise bounded proofs.

   Occasionally one 1-bit assumption over an input bit is added, which
   every engine must apply on every cycle. *)
let random_property st circuit ~num_asserts =
  let module Circuit = Rtl.Circuit in
  let pool =
    List.map (fun p -> p.Circuit.signal) (Circuit.outputs circuit)
    @ Circuit.regs circuit
  in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let samples =
    let sim = Sim.create circuit in
    let depth = 1 + Random.State.int st 5 in
    List.concat
      (List.init depth (fun _ ->
           List.iter
             (fun p ->
               Sim.set_input sim p.Circuit.port_name
                 (Bitvec.random st (Signal.width p.Circuit.signal)))
             (Circuit.inputs circuit);
           let here = List.map (fun s -> (s, Sim.peek sim s)) pool in
           Sim.step sim;
           here))
  in
  let asserts =
    List.init num_asserts (fun i ->
        let body =
          match Random.State.int st 6 with
          | 0 | 1 ->
              let s, v = pick samples in
              Signal.( ~: ) (Signal.( ==: ) s (Signal.const v))
          | 2 | 3 ->
              let s = pick pool in
              Signal.( ~: )
                (Signal.( ==: ) s (Signal.const (Bitvec.random st (Signal.width s))))
          | 4 -> Signal.select (pick pool) 0 0
          | _ ->
              let s = pick pool in
              Signal.( ==: ) s s
        in
        (Printf.sprintf "p%d" i, body))
  in
  let assumes =
    (* The cone of a random circuit's outputs may touch no input at all,
       in which case there is nothing to assume over. *)
    if Circuit.inputs circuit <> [] && Random.State.int st 3 = 0 then
      let p = pick (Circuit.inputs circuit) in
      let b = Signal.select p.Circuit.signal 0 0 in
      [ (if Random.State.bool st then b else Signal.( ~: ) b) ]
    else []
  in
  { Bmc.assumes; asserts }

(* Drive a simulator with per-cycle input assignments and collect output
   values after combinational settling in each cycle. *)
let run_outputs sim cycles_inputs =
  let known n =
    List.exists
      (fun p -> p.Rtl.Circuit.port_name = n)
      (Rtl.Circuit.inputs (Sim.circuit sim))
  in
  List.map
    (fun assignments ->
      List.iter (fun (n, v) -> if known n then Sim.set_input sim n v) assignments;
      let outs =
        List.map
          (fun p -> (p.Rtl.Circuit.port_name, Sim.out sim p.Rtl.Circuit.port_name))
          (Rtl.Circuit.outputs (Sim.circuit sim))
      in
      Sim.step sim;
      outs)
    cycles_inputs
