module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* A slot at most this wide is narrow: it keeps its value as an OCaml
   [int], and the masked sum, difference or product of two such values
   is exact, because [int] arithmetic wraps modulo 2^[Sys.int_size]. *)
let narrow_bits = Sys.int_size - 1

(* How [eval] computes a combinational slot. A slot whose result and
   operands are all narrow gets the kernel of its op, which reads and
   writes [ints] only and allocates nothing; operands are always held
   masked to their width, so only ops that can carry bits past it mask
   their result. Any other slot is [Wide]: the slot's [Bitvec] op, with
   narrow operands converted on the way in. *)
type kernel =
  | Not of int (* result mask *)
  | And
  | Or
  | Xor
  | Add of int (* result mask *)
  | Sub of int (* result mask *)
  | Mul of int (* result mask *)
  | Eq
  | Ult
  | Slt of int (* the operands' sign bit *)
  | Mux
  | Concat
  | Slice of int * int (* lo, result mask *)
  | Wide

(* The circuit is compiled once, at [create], into slot-indexed arrays:
   slot [i] is node [i] of [Circuit.topo], which lists the sources
   (constants, inputs, registers) first. A narrow slot's value is
   [ints.(i)], a wide slot's [wides.(i)]. A source slot holds its
   current value (an input's driven value, a register's state) and is
   written only by [set_input], [step] and [restore]; [eval] recomputes
   the combinational slots [first_comb ..] in order. *)
type t = {
  circuit : Circuit.t;
  widths : int array;
  ops : Signal.op array;
  kernels : kernel array; (* [Wide] for the sources, which are not evaluated *)
  args : int array array; (* operand slots *)
  first_comb : int;
  ints : int array; (* 0 in wide slots *)
  wides : Bitvec.t array; (* a placeholder in narrow slots; empty if none is wide *)
  wide_sources : int array; (* the wide input and register slots *)
  regs : int array; (* narrow registers' slots *)
  nexts : int array; (* their next-state slots *)
  latch : int array; (* next-state values read before latching *)
  wide_regs : int array;
  wide_nexts : int array;
  wide_latch : Bitvec.t array;
  input_slot : (string, int) Hashtbl.t; (* port name -> slot, for [set_input] *)
  initial : snapshot; (* what [reset] restores *)
  mutable dirty : bool; (* sources changed since last evaluation *)
  mutable cycle : int;
  mutable watched : (Signal.t * int * Bitvec.t list ref) list; (* latest-first *)
}

(* The source slots' values: [sn_ints] is [ints.(0 .. first_comb - 1)],
   constants included (they never change), and [sn_wides] the values of
   [wide_sources]. *)
and snapshot = { sn_ints : int array; sn_wides : Bitvec.t array; sn_cycle : int }

let m_sim_steps = lazy (Obs.Metrics.counter "sim.steps")

let is_source s =
  match Signal.op s with
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> true
  | _ -> false

let kernel widths op args i =
  let narrow k = widths.(k) <= narrow_bits in
  if not (narrow i && Array.for_all narrow args) then Wide
  else
    let mask = (1 lsl widths.(i)) - 1 in
    match op with
    | Signal.Not -> Not mask
    | Signal.And -> And
    | Signal.Or -> Or
    | Signal.Xor -> Xor
    | Signal.Add -> Add mask
    | Signal.Sub -> Sub mask
    | Signal.Mul -> Mul mask
    | Signal.Eq -> Eq
    | Signal.Ult -> Ult
    | Signal.Slt -> Slt (1 lsl (widths.(args.(0)) - 1))
    | Signal.Mux -> Mux
    | Signal.Concat -> Concat
    | Signal.Slice (_, lo) -> Slice (lo, mask)
    | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> Wide

let narrow t s = t.widths.(s) <= narrow_bits

(* A slot's value as a [Bitvec.t], and the write of one. *)
let value t s =
  if narrow t s then Bitvec.of_int ~width:t.widths.(s) t.ints.(s) else t.wides.(s)

let store t s v = if narrow t s then t.ints.(s) <- Bitvec.to_int v else t.wides.(s) <- v

let snapshot t =
  {
    sn_ints = Array.sub t.ints 0 t.first_comb;
    sn_wides = Array.map (fun s -> t.wides.(s)) t.wide_sources;
    sn_cycle = t.cycle;
  }

let restore t sn =
  if
    Array.length sn.sn_ints <> t.first_comb
    || Array.length sn.sn_wides <> Array.length t.wide_sources
  then invalid_arg "Sim.restore: snapshot of another circuit";
  Array.blit sn.sn_ints 0 t.ints 0 t.first_comb;
  Array.iteri (fun j s -> t.wides.(s) <- sn.sn_wides.(j)) t.wide_sources;
  t.cycle <- sn.sn_cycle;
  t.dirty <- true

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
  let widths = Array.map Signal.width topo in
  let ops = Array.map Signal.op topo in
  let args = Array.map (fun s -> Array.map slot (Signal.args s)) topo in
  let is_wide s = widths.(s) > narrow_bits in
  let placeholder = Bitvec.zero 1 in
  let ints = Array.make n 0 in
  let wides =
    if Array.exists (fun w -> w > narrow_bits) widths then Array.make n placeholder
    else [||]
  in
  let set s v = if is_wide s then wides.(s) <- v else ints.(s) <- Bitvec.to_int v in
  Array.iteri
    (fun s node ->
      match Signal.op node with
      | Signal.Const v -> set s v
      | Signal.Reg r -> set s r.Signal.init
      | Signal.Input _ -> set s (Bitvec.zero widths.(s))
      | _ -> ())
    topo;
  let wide_sources = Array.of_list (List.filter is_wide (List.init first_comb Fun.id)) in
  let wide_regs, regs = List.partition (fun r -> is_wide (slot r)) (Circuit.regs circuit) in
  let slots l = Array.of_list (List.map slot l) in
  let next_slots l =
    Array.of_list (List.map (fun r -> slot (Option.get (Signal.reg_of r).Signal.next)) l)
  in
  let input_slot = Hashtbl.create 16 in
  List.iter
    (fun p -> Hashtbl.replace input_slot p.Circuit.port_name (slot p.Circuit.signal))
    (Circuit.inputs circuit);
  {
    circuit;
    widths;
    ops;
    kernels = Array.init n (fun i -> kernel widths ops.(i) args.(i) i);
    args;
    first_comb;
    ints;
    wides;
    wide_sources;
    regs = slots regs;
    nexts = next_slots regs;
    latch = Array.make (List.length regs) 0;
    wide_regs = slots wide_regs;
    wide_nexts = next_slots wide_regs;
    wide_latch = Array.make (List.length wide_regs) placeholder;
    input_slot;
    initial =
      {
        sn_ints = Array.sub ints 0 first_comb;
        sn_wides = Array.map (Array.get wides) wide_sources;
        sn_cycle = 0;
      };
    dirty = true;
    cycle = 0;
    watched = [];
  }

let circuit t = t.circuit

let reset t =
  restore t t.initial;
  List.iter (fun (_, _, log) -> log := []) t.watched

let input_slot t fn name =
  match Hashtbl.find_opt t.input_slot name with
  | None -> failwith (Printf.sprintf "Sim.%s: unknown input %s" fn name)
  | Some s -> s

let set_input t name v =
  let s = input_slot t "set_input" name in
  let w = t.widths.(s) in
  if Bitvec.width v <> w then
    failwith
      (Printf.sprintf "Sim.set_input(%s): width mismatch (%d vs %d)" name
         (Bitvec.width v) w);
  store t s v;
  t.dirty <- true

let set_input_int t name n =
  let s = input_slot t "set_input_int" name in
  let w = t.widths.(s) in
  if narrow t s then t.ints.(s) <- n land ((1 lsl w) - 1)
  else t.wides.(s) <- Bitvec.of_int ~width:w n;
  t.dirty <- true

(* A slot with a wide result or a wide operand. A Mux select is one bit
   wide, so it is read from [ints]. *)
let eval_wide t i =
  let a = t.args.(i) in
  let v k = value t a.(k) in
  store t i
    (match t.ops.(i) with
    | Signal.Not -> Bitvec.lognot (v 0)
    | Signal.And -> Bitvec.logand (v 0) (v 1)
    | Signal.Or -> Bitvec.logor (v 0) (v 1)
    | Signal.Xor -> Bitvec.logxor (v 0) (v 1)
    | Signal.Add -> Bitvec.add (v 0) (v 1)
    | Signal.Sub -> Bitvec.sub (v 0) (v 1)
    | Signal.Mul -> Bitvec.mul (v 0) (v 1)
    | Signal.Eq -> Bitvec.of_bool (Bitvec.equal (v 0) (v 1))
    | Signal.Ult -> Bitvec.of_bool (Bitvec.ult (v 0) (v 1))
    | Signal.Slt -> Bitvec.of_bool (Bitvec.slt (v 0) (v 1))
    | Signal.Mux -> if t.ints.(a.(0)) land 1 = 1 then v 1 else v 2
    | Signal.Concat -> Bitvec.concat_list (Array.to_list (Array.map (value t) a))
    | Signal.Slice (hi, lo) -> Bitvec.extract ~hi ~lo (v 0)
    | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false)

let eval t =
  if t.dirty then begin
    let ints = t.ints and args = t.args and widths = t.widths and kernels = t.kernels in
    for i = t.first_comb to Array.length ints - 1 do
      let a = args.(i) in
      match kernels.(i) with
      | Not m -> ints.(i) <- lnot ints.(a.(0)) land m
      | And -> ints.(i) <- ints.(a.(0)) land ints.(a.(1))
      | Or -> ints.(i) <- ints.(a.(0)) lor ints.(a.(1))
      | Xor -> ints.(i) <- ints.(a.(0)) lxor ints.(a.(1))
      | Add m -> ints.(i) <- (ints.(a.(0)) + ints.(a.(1))) land m
      | Sub m -> ints.(i) <- (ints.(a.(0)) - ints.(a.(1))) land m
      | Mul m -> ints.(i) <- (ints.(a.(0)) * ints.(a.(1))) land m
      | Eq -> ints.(i) <- Bool.to_int (ints.(a.(0)) = ints.(a.(1)))
      | Ult -> ints.(i) <- Bool.to_int (ints.(a.(0)) < ints.(a.(1)))
      | Slt sign ->
          (* Flipping the sign bit maps signed order onto unsigned. *)
          ints.(i) <- Bool.to_int (ints.(a.(0)) lxor sign < ints.(a.(1)) lxor sign)
      | Mux -> ints.(i) <- ints.(a.(if ints.(a.(0)) land 1 = 1 then 1 else 2))
      | Concat ->
          (* Operands are most-significant first. *)
          let v = ref 0 in
          for j = 0 to Array.length a - 1 do
            v := (!v lsl widths.(a.(j))) lor ints.(a.(j))
          done;
          ints.(i) <- !v
      | Slice (lo, m) -> ints.(i) <- (ints.(a.(0)) lsr lo) land m
      | Wide -> eval_wide t i
    done;
    t.dirty <- false
  end

let peek t s =
  eval t;
  value t (Circuit.node_index t.circuit s)

let out t name = peek t (Circuit.find_output t.circuit name)

let out_int t name =
  eval t;
  let s = Circuit.node_index t.circuit (Circuit.find_output t.circuit name) in
  if narrow t s then t.ints.(s) else Bitvec.to_int t.wides.(s)

let reg_value t name =
  value t (Circuit.node_index t.circuit (Circuit.find_reg t.circuit name))

let step t =
  eval t;
  List.iter (fun (_, s, log) -> log := value t s :: !log) t.watched;
  (* Read every next value before latching: updates must be simultaneous. *)
  Array.iteri (fun j s -> t.latch.(j) <- t.ints.(s)) t.nexts;
  Array.iteri (fun j s -> t.wide_latch.(j) <- t.wides.(s)) t.wide_nexts;
  Array.iteri (fun j s -> t.ints.(s) <- t.latch.(j)) t.regs;
  Array.iteri (fun j s -> t.wides.(s) <- t.wide_latch.(j)) t.wide_regs;
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
