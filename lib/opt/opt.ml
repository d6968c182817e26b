module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

type level = O0 | O2

let level_of_int = function
  | n when n < 0 -> invalid_arg "Opt.level_of_int: negative level"
  | 0 -> O0
  | _ -> O2

let level_to_int = function O0 -> 0 | O2 -> 2

type stats = {
  o_nodes_before : int;
  o_nodes_after : int;
  o_coi_dropped : int;
  o_cse_merged : int;
  o_rewrites : int;
  o_sweep_merged : int;
  o_sat_queries : int;
  o_time : float;
}

let empty_stats =
  {
    o_nodes_before = 0;
    o_nodes_after = 0;
    o_coi_dropped = 0;
    o_cse_merged = 0;
    o_rewrites = 0;
    o_sweep_merged = 0;
    o_sat_queries = 0;
    o_time = 0.;
  }

let add_stats a b =
  {
    o_nodes_before = a.o_nodes_before + b.o_nodes_before;
    o_nodes_after = a.o_nodes_after + b.o_nodes_after;
    o_coi_dropped = a.o_coi_dropped + b.o_coi_dropped;
    o_cse_merged = a.o_cse_merged + b.o_cse_merged;
    o_rewrites = a.o_rewrites + b.o_rewrites;
    o_sweep_merged = a.o_sweep_merged + b.o_sweep_merged;
    o_sat_queries = a.o_sat_queries + b.o_sat_queries;
    o_time = a.o_time +. b.o_time;
  }

let pp_stats fmt s =
  Format.fprintf fmt "%d -> %d nodes (coi -%d, cse %d, rw %d) %.3fs"
    s.o_nodes_before s.o_nodes_after s.o_coi_dropped s.o_cse_merged s.o_rewrites
    s.o_time

type result = {
  opt_circuit : Circuit.t;
  opt_map : Signal.t -> Signal.t;
  opt_stats : stats;
}

(* Backward reachability from [roots] through args and register
   next-state functions — the same closure the [keep_outputs] restriction
   computes implicitly during the rebuild pass, exposed for trace
   slicing. *)
let cone circuit ~roots =
  let seen = Hashtbl.create 256 in
  let rec visit s =
    if Circuit.mem_node circuit s && not (Hashtbl.mem seen (Signal.uid s))
    then begin
      Hashtbl.replace seen (Signal.uid s) ();
      Array.iter visit (Signal.args s);
      match Signal.op s with
      | Signal.Reg r -> Option.iter visit r.Signal.next
      | _ -> ()
    end
  in
  List.iter visit roots;
  Array.to_list (Circuit.topo circuit)
  |> List.filter (fun s -> Hashtbl.mem seen (Signal.uid s))

(* {1 Structural rebuild: hash-consing + algebraic rewrites}

   One bottom-up pass over the graph. Every rebuilt node is
   interned in a structural hash table keyed by operator, width and
   argument uids (commutative operands sorted), so structurally equal
   gates collapse; before a fresh gate is created the algebraic rules
   below get a chance to return an existing node instead. *)

type counters = { mutable cse : int; mutable rw : int }

let op_tag = function
  | Signal.Not -> "not"
  | Signal.And -> "and"
  | Signal.Or -> "or"
  | Signal.Xor -> "xor"
  | Signal.Add -> "add"
  | Signal.Sub -> "sub"
  | Signal.Mul -> "mul"
  | Signal.Eq -> "eq"
  | Signal.Ult -> "ult"
  | Signal.Slt -> "slt"
  | Signal.Mux -> "mux"
  | Signal.Concat -> "concat"
  | Signal.Slice (hi, lo) -> Printf.sprintf "slice:%d:%d" hi lo
  | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false

let key_of op args w =
  let uids = Array.to_list (Array.map Signal.uid args) in
  match op with
  | Signal.And | Signal.Or | Signal.Xor | Signal.Add | Signal.Mul | Signal.Eq ->
      (op_tag op, w, List.sort compare uids)
  | _ -> (op_tag op, w, uids)

(* The rebuild closure set: [clone] walks old nodes, [mk] interns and
   rewrites one operator application over already-rebuilt arguments. *)
let rebuild ~cnt roots =
  let memo : (int, Signal.t) Hashtbl.t = Hashtbl.create 1024 in
  let strash : (string * int * int list, Signal.t) Hashtbl.t = Hashtbl.create 1024 in
  let copy_name old fresh =
    match Signal.name old with
    | Some n -> ignore (Signal.( -- ) fresh n)
    | None -> ()
  in
  let const v =
    let key = ("const:" ^ Bitvec.to_hex_string v, Bitvec.width v, []) in
    match Hashtbl.find_opt strash key with
    | Some n -> n
    | None ->
        let n = Signal.const v in
        Hashtbl.replace strash key n;
        n
  in
  let cv = Signal.const_value in
  let is0 s = match cv s with Some v -> Bitvec.is_zero v | None -> false in
  let isF s = match cv s with Some v -> Bitvec.is_ones v | None -> false in
  let is_one s =
    match cv s with
    | Some v -> Bitvec.equal v (Bitvec.one (Bitvec.width v))
    | None -> false
  in
  let same a b = Signal.uid a = Signal.uid b in
  (* Concat normalization: splice nested concats in, merge adjacent
     constant parts (most-significant first). *)
  let normalize op args =
    match op with
    | Signal.Concat ->
        let parts =
          Array.to_list args
          |> List.concat_map (fun a ->
                 match Signal.op a with
                 | Signal.Concat -> Array.to_list (Signal.args a)
                 | _ -> [ a ])
        in
        let merged =
          List.fold_left
            (fun acc p ->
              match (acc, cv p) with
              | prev :: rest, Some v -> (
                  match cv prev with
                  | Some pv -> const (Bitvec.concat_list [ pv; v ]) :: rest
                  | None -> p :: acc)
              | _ -> p :: acc)
            [] parts
          |> List.rev
        in
        if List.length merged <> Array.length args then cnt.rw <- cnt.rw + 1;
        (op, Array.of_list merged)
    | _ -> (op, args)
  in
  let rec mk op args w =
    match op with
    | Signal.Const v -> const v
    | Signal.Input n -> (
        let key = ("input:" ^ n, w, []) in
        match Hashtbl.find_opt strash key with
        | Some s -> s
        | None ->
            let s = Signal.input n w in
            Hashtbl.replace strash key s;
            s)
    | Signal.Reg _ -> assert false (* handled in [clone] *)
    | _ -> (
        let op, args = normalize op args in
        let key = key_of op args w in
        match Hashtbl.find_opt strash key with
        | Some n ->
            cnt.cse <- cnt.cse + 1;
            n
        | None ->
            let node = rewrite op args w in
            Hashtbl.replace strash key node;
            node)
  and rewrite op args w =
    let hit n =
      cnt.rw <- cnt.rw + 1;
      n
    in
    let a i = args.(i) in
    match op with
    | Signal.Not -> (
        match Signal.op (a 0) with
        | Signal.Not -> hit (Signal.args (a 0)).(0)
        | _ -> Signal.( ~: ) (a 0))
    | Signal.And ->
        if same (a 0) (a 1) then hit (a 0)
        else if is0 (a 0) || is0 (a 1) then hit (const (Bitvec.zero w))
        else if isF (a 0) then hit (a 1)
        else if isF (a 1) then hit (a 0)
        else Signal.( &: ) (a 0) (a 1)
    | Signal.Or ->
        if same (a 0) (a 1) then hit (a 0)
        else if isF (a 0) || isF (a 1) then hit (const (Bitvec.ones w))
        else if is0 (a 0) then hit (a 1)
        else if is0 (a 1) then hit (a 0)
        else Signal.( |: ) (a 0) (a 1)
    | Signal.Xor ->
        if same (a 0) (a 1) then hit (const (Bitvec.zero w))
        else if is0 (a 0) then hit (a 1)
        else if is0 (a 1) then hit (a 0)
        else if isF (a 0) then hit (mk Signal.Not [| a 1 |] w)
        else if isF (a 1) then hit (mk Signal.Not [| a 0 |] w)
        else Signal.( ^: ) (a 0) (a 1)
    | Signal.Add ->
        if is0 (a 0) then hit (a 1)
        else if is0 (a 1) then hit (a 0)
        else Signal.( +: ) (a 0) (a 1)
    | Signal.Sub ->
        if is0 (a 1) then hit (a 0)
        else if same (a 0) (a 1) then hit (const (Bitvec.zero w))
        else Signal.( -: ) (a 0) (a 1)
    | Signal.Mul ->
        if is0 (a 0) || is0 (a 1) then hit (const (Bitvec.zero w))
        else if is_one (a 0) then hit (a 1)
        else if is_one (a 1) then hit (a 0)
        else Signal.( *: ) (a 0) (a 1)
    | Signal.Eq -> (
        if same (a 0) (a 1) then hit (const (Bitvec.one 1))
        else
          let x = a 0 and y = a 1 in
          (* An equality over a concatenation splits into part-wise
             equalities: constant parts fold away and unit propagation
             becomes local to each field (tag compares in caches, opcode
             fields in decoders). *)
          let split_concat c other =
            let parts_lsb = List.rev (Array.to_list (Signal.args c)) in
            let rec go off acc = function
              | [] -> acc
              | p :: rest ->
                  let pw = Signal.width p in
                  let o = mk (Signal.Slice (off + pw - 1, off)) [| other |] pw in
                  go (off + pw) (mk Signal.Eq [| p; o |] 1 :: acc) rest
            in
            match go 0 [] parts_lsb with
            | [] -> const (Bitvec.one 1)
            | e :: es ->
                List.fold_left (fun acc e -> mk Signal.And [| acc; e |] 1) e es
          in
          (* [mux(s,t,f) == c] with a constant [c] and a constant arm
             distributes the compare into the mux: the constant arm folds
             to a boolean and the whole equality collapses towards the
             selector (FSM state-compare chains). *)
          let mux_const_arm m =
            let ma = Signal.args m in
            cv ma.(1) <> None || cv ma.(2) <> None
          in
          let distribute m c =
            let ma = Signal.args m in
            mk Signal.Mux
              [|
                ma.(0);
                mk Signal.Eq [| ma.(1); c |] 1;
                mk Signal.Eq [| ma.(2); c |] 1;
              |]
              1
          in
          match (Signal.op x, Signal.op y) with
          | Signal.Concat, _ -> hit (split_concat x y)
          | _, Signal.Concat -> hit (split_concat y x)
          | Signal.Mux, Signal.Const _ when mux_const_arm x ->
              hit (distribute x y)
          | Signal.Const _, Signal.Mux when mux_const_arm y ->
              hit (distribute y x)
          | _ -> Signal.( ==: ) x y)
    | Signal.Ult ->
        (* a < a and a < 0 are never true; ones is the unsigned maximum. *)
        if same (a 0) (a 1) || is0 (a 1) || isF (a 0) then
          hit (const (Bitvec.zero 1))
        else Signal.( <: ) (a 0) (a 1)
    | Signal.Slt ->
        if same (a 0) (a 1) then hit (const (Bitvec.zero 1))
        else Signal.slt (a 0) (a 1)
    | Signal.Mux ->
        let s = a 0 and t = a 1 and f = a 2 in
        if same t f then hit t
        else if w = 1 && is_one t && is0 f then hit s
        else if w = 1 && is0 t && is_one f then hit (mk Signal.Not [| s |] 1)
        else begin
          (* Nested muxes on the same selector are redundant on one arm. *)
          let t' =
            match Signal.op t with
            | Signal.Mux when same (Signal.args t).(0) s -> (Signal.args t).(1)
            | _ -> t
          in
          let f' =
            match Signal.op f with
            | Signal.Mux when same (Signal.args f).(0) s -> (Signal.args f).(2)
            | _ -> f
          in
          if not (same t t') || not (same f f') then cnt.rw <- cnt.rw + 1;
          if same t' f' then t' else Signal.mux2 s t' f'
        end
    | Signal.Concat -> Signal.concat (Array.to_list args)
    | Signal.Slice (hi, lo) -> (
        let x = a 0 in
        if lo = 0 && hi = Signal.width x - 1 then x
        else
          match Signal.op x with
          | Signal.Slice (_, lo') ->
              hit (mk (Signal.Slice (lo' + hi, lo' + lo)) [| (Signal.args x).(0) |] w)
          | Signal.Concat ->
              (* Re-slice only the parts the range overlaps; parts are
                 stored most-significant first. *)
              let parts_lsb = List.rev (Array.to_list (Signal.args x)) in
              let rec collect off acc = function
                | [] -> acc (* built lsb-to-msb by prepending: msb first *)
                | p :: rest ->
                    let pw = Signal.width p in
                    let acc =
                      if off + pw <= lo || off > hi then acc
                      else
                        let phi = min (hi - off) (pw - 1)
                        and plo = max 0 (lo - off) in
                        mk (Signal.Slice (phi, plo)) [| p |] (phi - plo + 1)
                        :: acc
                    in
                    collect (off + pw) acc rest
              in
              hit (mk Signal.Concat (Array.of_list (collect 0 [] parts_lsb)) w)
          | _ -> Signal.select x hi lo)
    | Signal.Const _ | Signal.Input _ | Signal.Reg _ -> assert false
  in
  let rec clone s =
    match Hashtbl.find_opt memo (Signal.uid s) with
    | Some s' -> s'
    | None ->
        let s' =
          match Signal.op s with
          | Signal.Const v -> const v
          | Signal.Input n -> mk (Signal.Input n) [||] (Signal.width s)
          | Signal.Reg r ->
              let fresh =
                Signal.reg ~init:r.Signal.init r.Signal.reg_name (Signal.width s)
              in
              copy_name s fresh;
              (* Memoize before recursing: next-state functions refer back
                 to the register. *)
              Hashtbl.replace memo (Signal.uid s) fresh;
              Signal.reg_set_next fresh (clone (Option.get r.Signal.next));
              fresh
          | op -> mk op (Array.map clone (Signal.args s)) (Signal.width s)
        in
        copy_name s s';
        Hashtbl.replace memo (Signal.uid s) s';
        s'
  in
  let roots' = List.map (fun (n, s) -> (n, clone s)) roots in
  (roots', memo)

(* {1 Driver} *)

let run_optimize ~level ?keep_outputs circuit =
  let t0 = Unix.gettimeofday () in
  let nodes_before = Circuit.num_nodes circuit in
  match level with
  | O0 ->
      {
        opt_circuit = circuit;
        opt_map = (fun s -> s);
        opt_stats =
          {
            empty_stats with
            o_nodes_before = nodes_before;
            o_nodes_after = nodes_before;
          };
      }
  | O2 ->
      (* Fault-injection probe for the robustness tests: an armed
         [opt.pass] site makes the pipeline raise here, which the BMC
         engines downgrade to an Unknown verdict instead of crashing. *)
      Fault.point "opt.pass";
      let all_ports = Circuit.outputs circuit in
      let kept =
        match keep_outputs with
        | None -> all_ports
        | Some names -> (
            match
              List.filter
                (fun p -> List.mem p.Circuit.port_name names)
                all_ports
            with
            | [] -> all_ports
            | l -> l)
      in
      let roots =
        List.map (fun p -> (p.Circuit.port_name, p.Circuit.signal)) kept
      in
      let cnt = { cse = 0; rw = 0 } in
      let roots', memo = Obs.span "opt.strash" (fun () -> rebuild ~cnt roots) in
      let final = Circuit.create ~name:(Circuit.name circuit) ~outputs:roots' () in
      {
        opt_circuit = final;
        opt_map = (fun s -> Hashtbl.find memo (Signal.uid s));
        opt_stats =
          {
            empty_stats with
            o_nodes_before = nodes_before;
            o_nodes_after = Circuit.num_nodes final;
            o_coi_dropped = nodes_before - Hashtbl.length memo;
            o_cse_merged = cnt.cse;
            o_rewrites = cnt.rw;
            o_time = Unix.gettimeofday () -. t0;
          };
      }

let m_opt_nodes_removed = lazy (Obs.Metrics.counter "opt.nodes_removed")
let m_opt_cse = lazy (Obs.Metrics.counter "opt.cse_merged")
let m_opt_rewrites = lazy (Obs.Metrics.counter "opt.rewrites")
let m_opt_time = lazy (Obs.Metrics.series "opt.pass_seconds")

let level_name = function O0 -> "O0" | O2 -> "O2"

let optimize ?(level = O2) ?keep_outputs circuit =
  Obs.span "opt.optimize"
    ~attrs:
      [
        ("level", Obs.Json.Str (level_name level));
        ("nodes", Obs.Json.Int (Circuit.num_nodes circuit));
      ]
  @@ fun () ->
  let res = run_optimize ~level ?keep_outputs circuit in
  let st = res.opt_stats in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add (Lazy.force m_opt_nodes_removed)
      (st.o_nodes_before - st.o_nodes_after);
    Obs.Metrics.add (Lazy.force m_opt_cse) st.o_cse_merged;
    Obs.Metrics.add (Lazy.force m_opt_rewrites) st.o_rewrites;
    Obs.Metrics.record (Lazy.force m_opt_time) st.o_time
  end;
  res
