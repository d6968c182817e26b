module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* The circuit is compiled once, at [create], into slot-indexed arrays:
   slot [i] is node [i] of [Circuit.topo], which lists the sources
   (constants, inputs, registers) first. A source slot holds its
   current value (an input's driven value, a register's state) and is
   written only by [set_input], [step], [reset] and [restore]; [eval]
   recomputes the combinational slots [first_comb ..] in order. *)
type t = {
  circuit : Circuit.t;
  ops : Signal.op array;
  args : int array array; (* operand slots *)
  first_comb : int;
  values : Bitvec.t array;
  reg_slots : int array; (* in [Circuit.regs] order *)
  next_slots : int array;
  inits : Bitvec.t array;
  latch : Bitvec.t array; (* next-state values read before latching *)
  input_slots : int array; (* in [Circuit.inputs] order *)
  input_slot : (string, int) Hashtbl.t; (* port name -> slot, for [set_input] *)
  mutable dirty : bool; (* sources changed since last evaluation *)
  mutable cycle : int;
  mutable watched : (Signal.t * int * Bitvec.t list ref) list; (* latest-first *)
}

type snapshot = { sn_regs : Bitvec.t array; sn_inputs : Bitvec.t array; sn_cycle : int }

let m_sim_steps = lazy (Obs.Metrics.counter "sim.steps")

let is_source s =
  match Signal.op s with
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> true
  | _ -> false

let create circuit =
  Obs.span "sim.create"
    ~attrs:[ ("circuit", Obs.Json.Str (Circuit.name circuit)) ]
  @@ fun () ->
  let topo = Circuit.topo circuit in
  let slot = Circuit.node_index circuit in
  let n = Array.length topo in
  let first_comb =
    let rec go i = if i < n && is_source topo.(i) then go (i + 1) else i in
    go 0
  in
  let values =
    Array.map
      (fun s ->
        match Signal.op s with
        | Signal.Const v -> v
        | _ -> Bitvec.zero (Signal.width s))
      topo
  in
  let regs = Array.of_list (Circuit.regs circuit) in
  let inits = Array.map (fun r -> (Signal.reg_of r).Signal.init) regs in
  let reg_slots = Array.map slot regs in
  Array.iteri (fun i s -> values.(s) <- inits.(i)) reg_slots;
  let inputs = Array.of_list (Circuit.inputs circuit) in
  let input_slots = Array.map (fun p -> slot p.Circuit.signal) inputs in
  let input_slot = Hashtbl.create (Array.length inputs) in
  Array.iteri
    (fun i p -> Hashtbl.replace input_slot p.Circuit.port_name input_slots.(i))
    inputs;
  {
    circuit;
    ops = Array.map Signal.op topo;
    args = Array.map (fun s -> Array.map slot (Signal.args s)) topo;
    first_comb;
    values;
    reg_slots;
    next_slots =
      Array.map (fun r -> slot (Option.get (Signal.reg_of r).Signal.next)) regs;
    inits;
    latch = Array.copy inits;
    input_slots;
    input_slot;
    dirty = true;
    cycle = 0;
    watched = [];
  }

let circuit t = t.circuit

let reset t =
  Array.iteri (fun i s -> t.values.(s) <- t.inits.(i)) t.reg_slots;
  Array.iter
    (fun s -> t.values.(s) <- Bitvec.zero (Bitvec.width t.values.(s)))
    t.input_slots;
  t.cycle <- 0;
  t.dirty <- true;
  List.iter (fun (_, _, log) -> log := []) t.watched

let snapshot t =
  {
    sn_regs = Array.map (fun s -> t.values.(s)) t.reg_slots;
    sn_inputs = Array.map (fun s -> t.values.(s)) t.input_slots;
    sn_cycle = t.cycle;
  }

let restore t sn =
  if
    Array.length sn.sn_regs <> Array.length t.reg_slots
    || Array.length sn.sn_inputs <> Array.length t.input_slots
  then invalid_arg "Sim.restore: snapshot of another circuit";
  Array.iteri (fun i s -> t.values.(s) <- sn.sn_regs.(i)) t.reg_slots;
  Array.iteri (fun i s -> t.values.(s) <- sn.sn_inputs.(i)) t.input_slots;
  t.cycle <- sn.sn_cycle;
  t.dirty <- true

let set_input t name v =
  match Hashtbl.find_opt t.input_slot name with
  | None -> failwith ("Sim.set_input: unknown input " ^ name)
  | Some s ->
      let w = Bitvec.width t.values.(s) in
      if Bitvec.width v <> w then
        failwith
          (Printf.sprintf "Sim.set_input(%s): width mismatch (%d vs %d)" name
             (Bitvec.width v) w);
      t.values.(s) <- v;
      t.dirty <- true

let set_input_int t name n =
  match Hashtbl.find_opt t.input_slot name with
  | None -> failwith ("Sim.set_input_int: unknown input " ^ name)
  | Some s ->
      set_input t name (Bitvec.of_int ~width:(Bitvec.width t.values.(s)) n)

let eval t =
  if t.dirty then begin
    let values = t.values in
    for i = t.first_comb to Array.length values - 1 do
      let a = t.args.(i) in
      values.(i) <-
        (match t.ops.(i) with
        | Signal.Not -> Bitvec.lognot values.(a.(0))
        | Signal.And -> Bitvec.logand values.(a.(0)) values.(a.(1))
        | Signal.Or -> Bitvec.logor values.(a.(0)) values.(a.(1))
        | Signal.Xor -> Bitvec.logxor values.(a.(0)) values.(a.(1))
        | Signal.Add -> Bitvec.add values.(a.(0)) values.(a.(1))
        | Signal.Sub -> Bitvec.sub values.(a.(0)) values.(a.(1))
        | Signal.Mul -> Bitvec.mul values.(a.(0)) values.(a.(1))
        | Signal.Eq -> Bitvec.of_bool (Bitvec.equal values.(a.(0)) values.(a.(1)))
        | Signal.Ult -> Bitvec.of_bool (Bitvec.ult values.(a.(0)) values.(a.(1)))
        | Signal.Slt -> Bitvec.of_bool (Bitvec.slt values.(a.(0)) values.(a.(1)))
        | Signal.Mux ->
            if Bitvec.bit values.(a.(0)) 0 then values.(a.(1)) else values.(a.(2))
        | Signal.Concat ->
            Bitvec.concat_list (Array.to_list (Array.map (fun k -> values.(k)) a))
        | Signal.Slice (hi, lo) -> Bitvec.extract ~hi ~lo values.(a.(0))
        | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false)
    done;
    t.dirty <- false
  end

let peek t s =
  eval t;
  t.values.(Circuit.node_index t.circuit s)

let out t name = peek t (Circuit.find_output t.circuit name)
let out_int t name = Bitvec.to_int (out t name)

let reg_value t name =
  t.values.(Circuit.node_index t.circuit (Circuit.find_reg t.circuit name))

let step t =
  eval t;
  List.iter (fun (_, s, log) -> log := t.values.(s) :: !log) t.watched;
  (* Read every next value before latching: updates must be simultaneous. *)
  Array.iteri (fun i s -> t.latch.(i) <- t.values.(s)) t.next_slots;
  Array.iteri (fun i s -> t.values.(s) <- t.latch.(i)) t.reg_slots;
  t.cycle <- t.cycle + 1;
  t.dirty <- true;
  if Obs.Metrics.enabled () then Obs.Metrics.add (Lazy.force m_sim_steps) 1

let cycle t = t.cycle

let run t inputs =
  Array.iter
    (fun assignments ->
      List.iter (fun (n, v) -> set_input t n v) assignments;
      step t)
    inputs

let watch t signals =
  t.watched <-
    t.watched
    @ List.map (fun s -> (s, Circuit.node_index t.circuit s, ref [])) signals

let waveform t =
  List.map (fun (s, _, log) -> (s, Array.of_list (List.rev !log))) t.watched

let pp_waveform fmt t =
  let wf = waveform t in
  let label s =
    match Signal.name s with
    | Some n -> n
    | None -> Format.asprintf "%a" Signal.pp s
  in
  let width = List.fold_left (fun m (s, _) -> max m (String.length (label s))) 0 wf in
  List.iter
    (fun (s, vs) ->
      Format.fprintf fmt "%-*s |" width (label s);
      Array.iter (fun v -> Format.fprintf fmt " %s" (Bitvec.to_hex_string v)) vs;
      Format.fprintf fmt "@.")
    wf
