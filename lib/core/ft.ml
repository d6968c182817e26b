module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
open Signal

type mapping = Signal.t -> Signal.t

type t = {
  wrapper : Circuit.t;
  dut : Circuit.t;
  map_a : mapping;
  map_b : mapping;
  spy_mode : Signal.t;
  transfer_cond : Signal.t;
  eq_cnt : Signal.t;
  flush_done : Signal.t;
  property : Bmc.property;
  sym : (Signal.t * Signal.t) list;
}

let clog2 n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (2 * v) in
  go 0 1

let and_list = function
  | [] -> vdd
  | s :: rest -> List.fold_left ( &: ) s rest

(* Equality of one port between the two universes, with transaction
   payloads gated by the α valid (valids themselves are compared
   strictly, so gating by either valid is equivalent under the
   assumptions). Returns [(label, eq_signal)] pairs. *)
let port_eqs ~txs ~ports map_a map_b =
  let find_tx name =
    List.find_opt (fun tx -> List.mem name tx.Circuit.payloads) txs
  in
  List.map
    (fun p ->
      let name = p.Circuit.port_name in
      let a = map_a p.Circuit.signal and b = map_b p.Circuit.signal in
      match find_tx name with
      | None -> (name, a ==: b)
      | Some tx ->
          (* Payload compared only while the transaction is valid. *)
          let va =
            map_a
              (List.find
                 (fun q -> q.Circuit.port_name = tx.Circuit.valid)
                 ports)
                .Circuit.signal
          in
          (name, ~:va |: (a ==: b)))
    ports

type sync = Flush_end | Flush_start

let generate ?(threshold = 4) ?(sync = Flush_end) ?(common = []) ?(blackbox = [])
    ?(arch_regs = []) ?arch_eq ?flush_done ?assumes dut =
  Obs.span "ft.generate"
    ~attrs:[ ("dut", Obs.Json.Str (Circuit.name dut)) ]
  @@ fun () ->
  let dut = if blackbox = [] then dut else Blackbox.cut dut blackbox in
  let common = List.sort_uniq compare (common @ Circuit.common dut) in
  List.iter
    (fun n -> ignore (Circuit.find_input dut n))
    common;
  (* Shared (common) inputs appear once; every other input is duplicated
     with an a_/b_ prefix. *)
  let shared =
    List.filter_map
      (fun p ->
        if List.mem p.Circuit.port_name common then
          Some
            ( p.Circuit.port_name,
              Signal.input p.Circuit.port_name (Signal.width p.Circuit.signal) )
        else None)
      (Circuit.inputs dut)
  in
  let map_input prefix ~name ~width =
    match List.assoc_opt name shared with
    | Some s -> s
    | None -> Signal.input (prefix ^ name) width
  in
  let outs_a, map_a =
    Rtl.Transform.clone_outputs dut
      ~map_input:(map_input "a_")
      ~map_reg_name:(fun n -> "ua." ^ n)
  in
  let outs_b, map_b =
    Rtl.Transform.clone_outputs dut
      ~map_input:(map_input "b_")
      ~map_reg_name:(fun n -> "ub." ^ n)
  in
  (* Equality conditions per interface signal. *)
  let dup_inputs =
    List.filter (fun p -> not (List.mem p.Circuit.port_name common)) (Circuit.inputs dut)
  in
  let input_eqs =
    port_eqs ~txs:(Circuit.in_tx dut) ~ports:dup_inputs map_a map_b
  in
  let output_eqs =
    port_eqs ~txs:(Circuit.out_tx dut) ~ports:(Circuit.outputs dut) map_a map_b
  in
  (* Architectural-state equality: named registers plus a custom hook. *)
  let arch_reg_eq =
    List.map
      (fun name ->
        let r = Circuit.find_reg dut name in
        map_a r ==: map_b r)
      arch_regs
  in
  let arch_custom =
    match arch_eq with Some f -> [ f dut map_a map_b ] | None -> []
  in
  let architectural_state_eq =
    and_list (arch_reg_eq @ arch_custom) -- "architectural_state_eq"
  in
  let transfer_cond =
    (architectural_state_eq
    &: and_list (List.map snd input_eqs)
    &: and_list (List.map snd output_eqs))
    -- "transfer_cond"
  in
  (* flush_done: user condition or a free symbolic input ("anytime"). *)
  let flush_done_sig =
    match flush_done with
    | Some f -> f dut map_a map_b -- "flush_done"
    | None -> Signal.input "flush_done" 1
  in
  if Signal.width flush_done_sig <> 1 then
    invalid_arg "Ft.generate: flush_done must be 1 bit";
  (* eq_cnt counts consecutive transfer cycles since the flush finished;
     it saturates at the threshold. *)
  let cnt_width = clog2 (threshold + 1) + 1 in
  let eq_cnt = reg "autocc.eq_cnt" cnt_width in
  let threshold_c = of_int ~width:cnt_width threshold in
  let spy_mode_r = reg "autocc.spy_mode" 1 in
  (* Flush_end: the transfer period starts when the flush completes, as
     in Listing 1. Flush_start: the transfer period precedes the flush
     and the spy begins at the flush-start edge, so the flush itself is
     observed. *)
  let spy_starts =
    (match sync with
    | Flush_end -> transfer_cond &: (eq_cnt >=: threshold_c)
    | Flush_start -> transfer_cond &: (eq_cnt >=: threshold_c) &: flush_done_sig)
    -- "spy_starts"
  in
  reg_set_next spy_mode_r (spy_starts |: spy_mode_r);
  let counting =
    match sync with
    | Flush_end -> (flush_done_sig |: (eq_cnt >: zero cnt_width)) &: transfer_cond
    | Flush_start -> transfer_cond
  in
  let saturated = mux2 (eq_cnt >=: threshold_c) eq_cnt (eq_cnt +: one cnt_width) in
  reg_set_next eq_cnt (mux2 counting saturated (zero cnt_width));
  let spy_mode = spy_mode_r -- "spy_mode" in
  (* Properties of Listing 1. *)
  let implies a b = ~:a |: b in
  let user_assumes =
    match assumes with Some f -> f dut map_a map_b | None -> []
  in
  List.iter
    (fun a ->
      if Signal.width a <> 1 then invalid_arg "Ft.generate: assumptions must be 1 bit")
    user_assumes;
  let assumes =
    user_assumes @ List.map (fun (_, eq) -> implies spy_mode eq) input_eqs
  in
  let asserts =
    List.map
      (fun (name, eq) -> ("as__" ^ name ^ "_eq", implies spy_mode eq))
      output_eqs
  in
  let wrapper_outputs =
    List.map (fun (n, s) -> ("a_" ^ n, s)) outs_a
    @ List.map (fun (n, s) -> ("b_" ^ n, s)) outs_b
    @ [
        ("spy_mode", spy_mode);
        ("transfer_cond", transfer_cond);
        ("eq_cnt", eq_cnt);
        ("flush_done_w", flush_done_sig);
      ]
  in
  let wrapper =
    Circuit.create
      ~name:("ft_" ^ Circuit.name dut)
      ~outputs:wrapper_outputs ()
  in
  (* The two universes are clones of one circuit, so every DUT node
     yields a symmetric (α, β) pair — except nodes the clones physically
     share (common inputs and anything fed only by them), which need no
     pair. Handed to the blaster so the transition-relation template is
     encoded once and mirrored. *)
  let sym =
    List.filter_map
      (fun n ->
        match (map_a n, map_b n) with
        | a, b when a != b -> Some (a, b)
        | _ -> None
        | exception Not_found -> None)
      (Array.to_list (Circuit.topo dut))
  in
  {
    wrapper;
    dut;
    map_a;
    map_b;
    spy_mode;
    transfer_cond;
    eq_cnt;
    flush_done = flush_done_sig;
    property = { Bmc.assumes; asserts };
    sym;
  }

(* [opt] defaults to O2 here — the product path always optimizes the
   miter; engines keep their raw O0 default for direct callers. *)
let sym_of ~symmetric ft = if symmetric then ft.sym else []

let check ?max_depth ?progress ?(budget = Bmc.no_budget)
    ?(retry = Retry.default) ?(opt = Opt.O2) ?incremental ?(symmetric = true)
    ?cache ft =
  Retry.run retry ~budget
    ~reason_of:(function
      | (Bmc.Unknown (r, _) : Bmc.outcome) -> Some r | _ -> None)
    (fun ~budget ~solver_config ->
      Bmc.check ?max_depth ?progress ?solver_config ~budget ~opt ?incremental
        ~sym:(sym_of ~symmetric ft) ?cache ft.wrapper ft.property)

let prove ?max_depth ?progress ?(budget = Bmc.no_budget)
    ?(retry = Retry.default) ?(opt = Opt.O2) ?incremental ?(symmetric = true)
    ?cache ft =
  Retry.run retry ~budget
    ~reason_of:(function
      | (Bmc.Unknown (r, _) : Bmc.induction_outcome) -> Some r | _ -> None)
    (fun ~budget ~solver_config ->
      Bmc.prove ?max_depth ?progress ?solver_config ~budget ~opt ?incremental
        ~sym:(sym_of ~symmetric ft) ?cache ft.wrapper ft.property)

let spy_start_cycle ft cex =
  match Bmc.replay_values cex [ ft.spy_mode ] with
  | [ (_, values) ] ->
      let n = Array.length values in
      let rec find i =
        if i >= n then None
        else if not (Bitvec.is_zero values.(i)) then Some i
        else find (i + 1)
      in
      find 0
  | _ -> None

let state_diff ft cex ~cycle =
  let dut_regs = Circuit.regs ft.dut in
  let pairs =
    List.map (fun r -> ((Signal.reg_of r).Signal.reg_name, ft.map_a r, ft.map_b r)) dut_regs
  in
  let watched = List.concat_map (fun (_, a, b) -> [ a; b ]) pairs in
  let values = Bmc.replay_values cex watched in
  let value s = Array.get (List.assq s values) cycle in
  List.filter_map
    (fun (name, a, b) ->
      let va = value a and vb = value b in
      if Bitvec.equal va vb then None else Some (name, va, vb))
    pairs
