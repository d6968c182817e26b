module S = Sat.Solver
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* {1 Gate context}

   The Tseitin encoders are written once, over an abstract literal type:
   instantiated at [S.lit] they emit clauses straight into a solver
   (direct mode, and cycle 0 of every mode); instantiated at [int] they
   build the reusable transition-frame template that incremental mode
   stamps out per cycle with a variable substitution. *)

type 'l ctx = {
  ctrue : 'l;
  cfalse : 'l;
  cneg : 'l -> 'l;
  cfresh : unit -> 'l;
  cemit : 'l list -> unit;
}

type mode = Direct | Template

(* A template variable is either the constant-true variable, a variable
   fresh at every instantiation (primary inputs and gate outputs), or a
   placeholder for a previous-frame literal (a register reading its
   next-state function from the prior cycle). *)
type tkind = K_true | K_fresh | K_prev of int * int

(* Template literals use the solver's own encoding: [2v] positive,
   [2v+1] negative; variable 0 is the constant true. *)
type template = {
  tpl_nvars : int;
  tpl_kinds : tkind array;
  tpl_clauses : int array array;
  tpl_frame : int array array; (* node index -> per-bit template lits *)
}

type t = {
  solver : S.t;
  circuit : Circuit.t;
  t_lit : S.lit; (* literal that is constant true *)
  free_init : bool;
  mode : mode;
  sym : (Signal.t * Signal.t) list;
  mutable tpl : template option;
  mutable frames : S.lit array array list; (* per cycle, newest first *)
  mutable ncycles : int;
}

let solver t = t.solver
let circuit t = t.circuit
let cycles t = t.ncycles
let lit_true t = t.t_lit
let lit_false t = S.neg t.t_lit

let fresh_var t = S.lit (S.new_var t.solver) true

let scx t =
  {
    ctrue = t.t_lit;
    cfalse = S.neg t.t_lit;
    cneg = S.neg;
    cfresh = (fun () -> fresh_var t);
    cemit = S.add_clause t.solver;
  }

let create ?(free_init = false) ?(mode = Direct) ?(sym = []) solver circuit =
  let t_lit = S.lit (S.new_var solver) true in
  let t =
    {
      solver;
      circuit;
      t_lit;
      free_init;
      mode;
      sym;
      tpl = None;
      frames = [];
      ncycles = 0;
    }
  in
  S.add_clause solver [ t_lit ];
  t

(* {1 Gate helpers}

   Each returns a literal equivalent to the gate's output, adding Tseitin
   clauses as needed, with local simplification on constant or equal
   operands. *)

let is_true cx l = l = cx.ctrue
let is_false cx l = l = cx.cfalse

let gand cx a b =
  if is_false cx a || is_false cx b then cx.cfalse
  else if is_true cx a then b
  else if is_true cx b then a
  else if a = b then a
  else if a = cx.cneg b then cx.cfalse
  else begin
    let x = cx.cfresh () in
    cx.cemit [ cx.cneg x; a ];
    cx.cemit [ cx.cneg x; b ];
    cx.cemit [ x; cx.cneg a; cx.cneg b ];
    x
  end

let gor cx a b = cx.cneg (gand cx (cx.cneg a) (cx.cneg b))

let gxor cx a b =
  if is_false cx a then b
  else if is_false cx b then a
  else if is_true cx a then cx.cneg b
  else if is_true cx b then cx.cneg a
  else if a = b then cx.cfalse
  else if a = cx.cneg b then cx.ctrue
  else begin
    let x = cx.cfresh () in
    cx.cemit [ cx.cneg x; a; b ];
    cx.cemit [ cx.cneg x; cx.cneg a; cx.cneg b ];
    cx.cemit [ x; cx.cneg a; b ];
    cx.cemit [ x; a; cx.cneg b ];
    x
  end

let gmux cx sel a b =
  (* x = sel ? a : b *)
  if is_true cx sel then a
  else if is_false cx sel then b
  else if a = b then a
  else begin
    let x = cx.cfresh () in
    cx.cemit [ cx.cneg sel; cx.cneg x; a ];
    cx.cemit [ cx.cneg sel; x; cx.cneg a ];
    cx.cemit [ sel; cx.cneg x; b ];
    cx.cemit [ sel; x; cx.cneg b ];
    x
  end

let gand_list cx = function
  | [] -> cx.ctrue
  | l :: rest -> List.fold_left (gand cx) l rest

(* {1 Word-level encodings} *)

let enc_add cx a b =
  let n = Array.length a in
  let out = Array.make n cx.cfalse in
  let carry = ref cx.cfalse in
  for i = 0 to n - 1 do
    let axb = gxor cx a.(i) b.(i) in
    out.(i) <- gxor cx axb !carry;
    (* majority(a, b, c) = (a & b) | (c & (a ^ b)) *)
    carry := gor cx (gand cx a.(i) b.(i)) (gand cx !carry axb)
  done;
  out

let enc_neg cx a =
  let n = Array.length a in
  let inv = Array.map cx.cneg a in
  let one = Array.init n (fun i -> if i = 0 then cx.ctrue else cx.cfalse) in
  enc_add cx inv one

let enc_sub cx a b = enc_add cx a (enc_neg cx b)

let enc_eq cx a b =
  let bits = Array.to_list (Array.map2 (fun x y -> cx.cneg (gxor cx x y)) a b) in
  gand_list cx bits

let enc_ult cx a b =
  (* From lsb to msb: lt = (~a & b) | ((a xnor b) & lt_prev). *)
  let lt = ref cx.cfalse in
  Array.iteri
    (fun i ai ->
      let bi = b.(i) in
      let eq = cx.cneg (gxor cx ai bi) in
      lt := gor cx (gand cx (cx.cneg ai) bi) (gand cx eq !lt))
    a;
  !lt

let enc_slt cx a b =
  let n = Array.length a in
  let a' = Array.copy a and b' = Array.copy b in
  a'.(n - 1) <- cx.cneg a.(n - 1);
  b'.(n - 1) <- cx.cneg b.(n - 1);
  enc_ult cx a' b'

let enc_mul cx a b =
  let n = Array.length a in
  let acc = ref (Array.make n cx.cfalse) in
  for i = 0 to n - 1 do
    if not (is_false cx b.(i)) then begin
      (* Partial product: (a << i) masked by b_i. *)
      let partial =
        Array.init n (fun j -> if j < i then cx.cfalse else gand cx a.(j - i) b.(i))
      in
      acc := enc_add cx !acc partial
    end
  done;
  !acc

(* {1 Unrolling} *)

(* One topological pass over the circuit, encoding every node into the
   given context. [const], [input] and [reg] close over the per-mode
   policy (solver constants vs template kinds, previous-frame lookup vs
   placeholder variables); everything combinational is shared. [wrap],
   when given, intercepts each node with (index, node, frame accessor,
   default encoder) — the symmetric template uses it to replace the
   default encoding of one universe with a renamed image of the
   other's. *)
let encode_frame ?wrap cx circuit ~const ~input ~reg =
  let topo = Circuit.topo circuit in
  let f = Array.make (Array.length topo) [||] in
  Array.iteri
    (fun i s ->
      let get k = f.(Circuit.node_index circuit (Signal.args s).(k)) in
      let default () =
        match Signal.op s with
        | Signal.Const v -> const v
        | Signal.Input _ -> input s
        | Signal.Reg r -> reg s r
        | Signal.Not -> Array.map cx.cneg (get 0)
        | Signal.And -> Array.map2 (gand cx) (get 0) (get 1)
        | Signal.Or -> Array.map2 (gor cx) (get 0) (get 1)
        | Signal.Xor -> Array.map2 (gxor cx) (get 0) (get 1)
        | Signal.Add -> enc_add cx (get 0) (get 1)
        | Signal.Sub -> enc_sub cx (get 0) (get 1)
        | Signal.Mul -> enc_mul cx (get 0) (get 1)
        | Signal.Eq -> [| enc_eq cx (get 0) (get 1) |]
        | Signal.Ult -> [| enc_ult cx (get 0) (get 1) |]
        | Signal.Slt -> [| enc_slt cx (get 0) (get 1) |]
        | Signal.Mux ->
            let sel = (get 0).(0) in
            Array.map2 (gmux cx sel) (get 1) (get 2)
        | Signal.Concat ->
            (* Args are msb first; bit arrays are lsb first. *)
            let parts = Array.to_list (Array.mapi (fun k _ -> get k) (Signal.args s)) in
            Array.concat (List.rev parts)
        | Signal.Slice (hi, lo) -> Array.sub (get 0) lo (hi - lo + 1)
      in
      let encoded =
        match wrap with None -> default () | Some w -> w i s (fun j -> f.(j)) default
      in
      f.(i) <- encoded)
    topo;
  f

let const_lits t v =
  Array.init (Bitvec.width v) (fun i ->
      if Bitvec.bit v i then lit_true t else lit_false t)

let direct_frame t =
  let prev = if t.ncycles = 0 then None else Some (List.hd t.frames) in
  encode_frame (scx t) t.circuit
    ~const:(fun v -> const_lits t v)
    ~input:(fun s -> Array.init (Signal.width s) (fun _ -> fresh_var t))
    ~reg:(fun s r ->
      match prev with
      | None ->
          if t.free_init then Array.init (Signal.width s) (fun _ -> fresh_var t)
          else const_lits t r.Signal.init
      | Some pf ->
          let next = Option.get r.Signal.next in
          pf.(Circuit.node_index t.circuit next))

let m_sym_substituted = lazy (Obs.Metrics.counter "cnf.sym_substituted")
let m_sym_direct = lazy (Obs.Metrics.counter "cnf.sym_direct")

(* Blast the transition cone once, symbolically: registers become
   [K_prev] placeholders for the previous frame's next-state literals,
   inputs and gate outputs become [K_fresh]. Constants stay literal over
   template variable 0, so constant folding inside the template is as
   strong as in direct mode; what the template cannot fold is whatever
   would have required knowing the reset values — [S.add_clause]'s
   level-0 simplification recovers most of that at instantiation.

   [sym] lists pairs of nodes known to compute the same function of
   corresponding operands — the two universes of a miter. The template
   encodes the first (in topological order) member of each pair through
   the full Tseitin machinery and, where a structural check confirms
   the pairing, derives the second member's encoding as a pure variable
   renaming of the first's recorded clauses: fresh template variables
   get fresh twins, a paired register's placeholders map to placeholders
   over its *own* next-state node, and variables owned by shared
   operands map to themselves. Renaming preserves literal (in)equality
   both ways (the twin map is injective and sign-preserving), so the
   image is exactly what direct encoding of the second member would have
   produced — the per-cycle CNF is isomorphic to the unshared build,
   only cheaper to construct. Pairs that fail the check (optimizer
   merged the universes asymmetrically, widths differ, operands not
   pairwise shared-or-paired) silently fall back to direct encoding. *)
let build_template ?(sym = []) circuit =
  let topo = Circuit.topo circuit in
  let n = Array.length topo in
  (* Resolve pairs to node indices, oriented source-before-image in
     topological order (the relation is symmetric, the substitution is
     not: the image replays clauses the source has already emitted).
     First pairing of a node wins; conflicting re-pairings are dropped. *)
  let partner = Array.make n (-1) (* source -> image *)
  and rpartner = Array.make n (-1) (* image -> source *) in
  List.iter
    (fun (a, b) ->
      if Circuit.mem_node circuit a && Circuit.mem_node circuit b then begin
        let ia = Circuit.node_index circuit a
        and ib = Circuit.node_index circuit b in
        if ia <> ib then begin
          let ia, ib = if ia < ib then (ia, ib) else (ib, ia) in
          if
            partner.(ia) < 0 && rpartner.(ia) < 0 && partner.(ib) < 0
            && rpartner.(ib) < 0
          then begin
            partner.(ia) <- ib;
            rpartner.(ib) <- ia
          end
        end
      end)
    sym;
  (* A paired image node is substitutable iff it mirrors its source
     structurally: same operator (payloads included), same width, and
     every operand either physically shared or itself a substitutable
     pair in the same position. Operands precede their users in [topo],
     so one forward pass settles the predicate. Registers and inputs
     need only the width: their images are re-encoded faithfully from
     their own semantics (own next-state placeholder / fresh vars) and
     the pairing merely names the variable correspondence. *)
  let ok = Array.make n false in
  let arg_ok xa xb =
    let ka = Circuit.node_index circuit xa
    and kb = Circuit.node_index circuit xb in
    ka = kb || (partner.(ka) = kb && ok.(kb))
  in
  for ib = 0 to n - 1 do
    let ia = rpartner.(ib) in
    if ia >= 0 then begin
      let a = topo.(ia) and b = topo.(ib) in
      ok.(ib) <-
        Signal.width a = Signal.width b
        &&
        match (Signal.op a, Signal.op b) with
        | Signal.Input _, Signal.Input _ -> true
        | Signal.Reg ra, Signal.Reg rb ->
            ra.Signal.next <> None && rb.Signal.next <> None
        | Signal.Const va, Signal.Const vb -> Bitvec.equal va vb
        | opa, opb ->
            opa = opb
            &&
            let aa = Signal.args a and ab = Signal.args b in
            Array.length aa = Array.length ab
            && Array.for_all2 arg_ok aa ab
    end
  done;
  let nvars = ref 1 in
  let kinds = ref (Array.make 1024 K_true) in
  let owner = ref (Array.make 1024 (-1)) in
  let cur_node = ref (-1) in
  let fresh_kind k =
    let v = !nvars in
    incr nvars;
    if v >= Array.length !kinds then begin
      let bigger = Array.make (2 * v) K_true in
      Array.blit !kinds 0 bigger 0 v;
      kinds := bigger;
      let bigger_o = Array.make (2 * v) (-1) in
      Array.blit !owner 0 bigger_o 0 v;
      owner := bigger_o
    end;
    !kinds.(v) <- k;
    !owner.(v) <- !cur_node;
    2 * v
  in
  let clauses = ref (Array.make 1024 [||]) in
  let nclauses = ref 0 in
  let push_clause cl =
    if !nclauses >= Array.length !clauses then begin
      let bigger = Array.make (2 * !nclauses) [||] in
      Array.blit !clauses 0 bigger 0 !nclauses;
      clauses := bigger
    end;
    !clauses.(!nclauses) <- cl;
    incr nclauses
  in
  (* Per-node clause ranges, so an image node can replay exactly the
     clauses its source emitted (including ranges that are themselves
     replayed images, which is what makes substitution chains work). *)
  let cstart = Array.make n 0 and cstop = Array.make n 0 in
  let cx =
    {
      ctrue = 0;
      cfalse = 1;
      cneg = (fun l -> l lxor 1);
      cfresh = (fun () -> fresh_kind K_fresh);
      cemit = (fun ls -> push_clause (Array.of_list ls));
    }
  in
  (* var -> twin var. Variable 0 (constant true) is its own twin; a
     variable owned by the source being replayed gets a fresh twin
     (lazily, first time the renaming meets it); any other variable
     reached the source's clauses through a physically shared operand's
     frame and must stay itself. *)
  let twin : (int, int) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace twin 0 0;
  let substituted = ref 0 and direct_nodes = ref 0 in
  let wrap i s getf default =
    cur_node := i;
    if ok.(i) then begin
      incr substituted;
      let ia = rpartner.(i) in
      let fa = getf ia in
      let start = !nclauses in
      let res =
        match Signal.op s with
        | Signal.Reg r ->
            (* The image register is encoded from its own semantics —
               placeholders over its own next-state node — and each
               source placeholder is twinned to the matching bit. *)
            let nidx = Circuit.node_index circuit (Option.get r.Signal.next) in
            Array.mapi
              (fun b la ->
                let l = fresh_kind (K_prev (nidx, b)) in
                Hashtbl.replace twin (la lsr 1) (l lsr 1);
                l)
              fa
        | _ ->
            let twin_var v =
              match Hashtbl.find_opt twin v with
              | Some tv -> tv
              | None ->
                  let tv =
                    if !owner.(v) = ia then fresh_kind K_fresh lsr 1 else v
                  in
                  Hashtbl.replace twin v tv;
                  tv
            in
            let twin_lit l = (2 * twin_var (l lsr 1)) lor (l land 1) in
            for c = cstart.(ia) to cstop.(ia) - 1 do
              push_clause (Array.map twin_lit !clauses.(c))
            done;
            Array.map twin_lit fa
      in
      cstart.(i) <- start;
      cstop.(i) <- !nclauses;
      res
    end
    else begin
      incr direct_nodes;
      cstart.(i) <- !nclauses;
      let res = default () in
      cstop.(i) <- !nclauses;
      res
    end
  in
  let frame =
    encode_frame ~wrap cx circuit
      ~const:(fun v ->
        Array.init (Bitvec.width v) (fun i -> if Bitvec.bit v i then 0 else 1))
      ~input:(fun s -> Array.init (Signal.width s) (fun _ -> cx.cfresh ()))
      ~reg:(fun s r ->
        let next = Option.get r.Signal.next in
        let nidx = Circuit.node_index circuit next in
        Array.init (Signal.width s) (fun b -> fresh_kind (K_prev (nidx, b))))
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add (Lazy.force m_sym_substituted) !substituted;
    Obs.Metrics.add (Lazy.force m_sym_direct) !direct_nodes
  end;
  {
    tpl_nvars = !nvars;
    tpl_kinds = Array.sub !kinds 0 !nvars;
    tpl_clauses = Array.sub !clauses 0 !nclauses;
    tpl_frame = frame;
  }

(* Stamp the template out as cycle [ncycles]: allocate a block of fresh
   solver variables for the [K_fresh] kinds, substitute the previous
   frame's literals for the [K_prev] kinds, and replay the template
   clauses under the substitution. Two template variables may land on
   the same solver literal (two registers sharing one next-state
   signal); [S.add_clause] de-duplicates. *)
let instantiate t tpl prev =
  let map = Array.make tpl.tpl_nvars t.t_lit in
  Array.iteri
    (fun v k ->
      match k with
      | K_true -> ()
      | K_fresh -> map.(v) <- fresh_var t
      | K_prev (nidx, b) -> map.(v) <- prev.(nidx).(b))
    tpl.tpl_kinds;
  let subst l =
    let sv = map.(l lsr 1) in
    if l land 1 = 0 then sv else S.neg sv
  in
  Array.iter
    (fun cl -> S.add_clause t.solver (Array.to_list (Array.map subst cl)))
    tpl.tpl_clauses;
  Array.map (fun bits -> Array.map subst bits) tpl.tpl_frame

let frame t cycle =
  if cycle < 0 || cycle >= t.ncycles then
    invalid_arg (Printf.sprintf "Blast: cycle %d not unrolled (have %d)" cycle t.ncycles)
  else List.nth t.frames (t.ncycles - 1 - cycle)

let lits t ~cycle s =
  let f = frame t cycle in
  let idx =
    try Circuit.node_index t.circuit s
    with Not_found -> invalid_arg "Blast.lits: node not in circuit"
  in
  f.(idx)

let lit1 t ~cycle s =
  let l = lits t ~cycle s in
  if Array.length l <> 1 then invalid_arg "Blast.lit1: signal is not 1 bit";
  l.(0)

let m_cnf_vars = lazy (Obs.Metrics.gauge "cnf.vars")
let m_cnf_clauses = lazy (Obs.Metrics.gauge "cnf.clauses")
let m_cnf_cycles = lazy (Obs.Metrics.counter "cnf.cycles_unrolled")

let unroll_cycle t =
  Obs.span "cnf.unroll" ~attrs:[ ("cycle", Obs.Json.Int t.ncycles) ]
  @@ fun () ->
  let f =
    match (t.mode, t.ncycles) with
    | Direct, _ | Template, 0 ->
        (* Cycle 0 is always encoded directly: reset values are concrete
           (unless [free_init]), so constant folding prunes most of the
           cone — the template, which must stay symbolic in the state,
           could not. *)
        direct_frame t
    | Template, _ ->
        let tpl =
          match t.tpl with
          | Some tpl -> tpl
          | None ->
              let tpl = build_template ~sym:t.sym t.circuit in
              t.tpl <- Some tpl;
              tpl
        in
        instantiate t tpl (List.hd t.frames)
  in
  t.frames <- f :: t.frames;
  t.ncycles <- t.ncycles + 1;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set (Lazy.force m_cnf_vars) (float_of_int (S.num_vars t.solver));
    Obs.Metrics.set (Lazy.force m_cnf_clauses)
      (float_of_int (S.num_clauses t.solver));
    Obs.Metrics.add (Lazy.force m_cnf_cycles) 1
  end;
  if Obs.tracing () then
    Obs.counter_event "cnf"
      [
        ("vars", float_of_int (S.num_vars t.solver));
        ("clauses", float_of_int (S.num_clauses t.solver));
      ]

let reg_lits t ~cycle =
  Array.concat (List.map (fun r -> lits t ~cycle r) (Circuit.regs t.circuit))

let state_distinct t i j =
  let cx = scx t in
  let a = reg_lits t ~cycle:i and b = reg_lits t ~cycle:j in
  if Array.length a = 0 then lit_false t
  else
    let xors = Array.to_list (Array.map2 (gxor cx) a b) in
    (* One literal implied by the disjunction of the per-bit differences. *)
    let d = fresh_var t in
    S.add_clause t.solver (S.neg d :: xors);
    List.iter (fun x -> S.add_clause t.solver [ d; S.neg x ]) xors;
    d

let node_value t ~cycle s =
  let ls = lits t ~cycle s in
  Bitvec.of_bits
    (Array.map
       (fun l ->
         let v = S.value t.solver (S.var_of_lit l) in
         if S.lit_sign l then v else not v)
       ls)

let input_value t ~cycle name =
  node_value t ~cycle (Circuit.find_input t.circuit name)
