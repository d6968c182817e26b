type op =
  | Const of Bitvec.t
  | Input of string
  | Reg of reg
  | Not
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Eq
  | Ult
  | Slt
  | Mux
  | Concat
  | Slice of int * int

and reg = { reg_name : string; init : Bitvec.t; mutable next : t option }

and t = {
  s_uid : int;
  s_width : int;
  s_op : op;
  s_args : t array;
  mutable s_name : string option;
}

(* Atomic so that signal construction is domain-safe: uids stay unique
   even if several domains build nodes at once. *)
let counter = Atomic.make 1

let make width op args =
  {
    s_uid = Atomic.fetch_and_add counter 1;
    s_width = width;
    s_op = op;
    s_args = args;
    s_name = None;
  }

let uid s = s.s_uid
let width s = s.s_width
let op s = s.s_op
let args s = s.s_args
let name s = s.s_name

let ( -- ) s n =
  s.s_name <- Some n;
  s

let const v = make (Bitvec.width v) (Const v) [||]
let of_int ~width:w n = const (Bitvec.of_int ~width:w n)
let zero w = const (Bitvec.zero w)
let one w = const (Bitvec.one w)
let ones w = const (Bitvec.ones w)
let vdd = of_int ~width:1 1
let gnd = of_int ~width:1 0

let input nm w =
  if w < 1 then invalid_arg "Signal.input: width must be >= 1";
  make w (Input nm) [||]

let reg ?init nm w =
  if w < 1 then invalid_arg "Signal.reg: width must be >= 1";
  let init = match init with Some v -> v | None -> Bitvec.zero w in
  if Bitvec.width init <> w then invalid_arg "Signal.reg: init width mismatch";
  make w (Reg { reg_name = nm; init; next = None }) [||]

let reg_of s =
  match s.s_op with
  | Reg r -> r
  | _ -> invalid_arg "Signal.reg_of: not a register"

let reg_set_next r next =
  let payload = reg_of r in
  if next.s_width <> r.s_width then
    invalid_arg
      (Printf.sprintf "Signal.reg_set_next(%s): width mismatch (%d vs %d)"
         payload.reg_name r.s_width next.s_width);
  (match payload.next with
  | Some _ -> invalid_arg (Printf.sprintf "Signal.reg_set_next(%s): already set" payload.reg_name)
  | None -> ());
  payload.next <- Some next

let const_value s = match s.s_op with Const v -> Some v | _ -> None

let check_same op_name a b =
  if a.s_width <> b.s_width then
    invalid_arg
      (Printf.sprintf "Signal.%s: width mismatch (%d vs %d)" op_name a.s_width b.s_width)

(* Binary operator with constant folding. *)
let binop op_name op fold out_width a b =
  check_same op_name a b;
  match (const_value a, const_value b) with
  | Some va, Some vb -> const (fold va vb)
  | _ -> make (out_width a) op [| a; b |]

let same_width a = a.s_width
let bool_width _ = 1

let ( ~: ) a =
  match const_value a with
  | Some v -> const (Bitvec.lognot v)
  | None -> make a.s_width Not [| a |]

let ( &: ) a b = binop "(&:)" And Bitvec.logand same_width a b
let ( |: ) a b = binop "(|:)" Or Bitvec.logor same_width a b
let ( ^: ) a b = binop "(^:)" Xor Bitvec.logxor same_width a b
let ( +: ) a b = binop "(+:)" Add Bitvec.add same_width a b
let ( -: ) a b = binop "(-:)" Sub Bitvec.sub same_width a b
let ( *: ) a b = binop "(*:)" Mul Bitvec.mul same_width a b

let ( ==: ) a b =
  binop "(==:)" Eq (fun x y -> Bitvec.of_bool (Bitvec.equal x y)) bool_width a b

let ( <: ) a b =
  binop "(<:)" Ult (fun x y -> Bitvec.of_bool (Bitvec.ult x y)) bool_width a b

let slt a b =
  binop "slt" Slt (fun x y -> Bitvec.of_bool (Bitvec.slt x y)) bool_width a b

let ( <>: ) a b = ~:(a ==: b)
let ( <=: ) a b = ~:(b <: a)
let ( >: ) a b = b <: a
let ( >=: ) a b = ~:(a <: b)

let mux2 sel on_true on_false =
  if sel.s_width <> 1 then invalid_arg "Signal.mux2: selector must be 1 bit";
  check_same "mux2" on_true on_false;
  match const_value sel with
  | Some v -> if Bitvec.bit v 0 then on_true else on_false
  | None -> make on_true.s_width Mux [| sel; on_true; on_false |]

let concat = function
  | [] -> invalid_arg "Signal.concat: empty"
  | [ s ] -> s
  | parts ->
      if List.for_all (fun s -> const_value s <> None) parts then
        const (Bitvec.concat_list (List.map (fun s -> Option.get (const_value s)) parts))
      else
        let w = List.fold_left (fun acc s -> acc + s.s_width) 0 parts in
        make w Concat (Array.of_list parts)

let select s hi lo =
  if lo < 0 || hi >= s.s_width || hi < lo then
    invalid_arg
      (Printf.sprintf "Signal.select: bad range [%d:%d] of width %d" hi lo s.s_width);
  if lo = 0 && hi = s.s_width - 1 then s
  else
    match const_value s with
    | Some v -> const (Bitvec.extract ~hi ~lo v)
    | None -> make (hi - lo + 1) (Slice (hi, lo)) [| s |]

let bit s i = select s i i
let msb s = bit s (s.s_width - 1)
let lsb s = bit s 0

let uresize s w =
  if w = s.s_width then s
  else if w < s.s_width then select s (w - 1) 0
  else concat [ zero (w - s.s_width); s ]

let sresize s w =
  if w = s.s_width then s
  else if w < s.s_width then select s (w - 1) 0
  else
    (* Replicate the msb; a mux on the sign selects between all-ones and
       all-zeros padding, which avoids a repeat primitive. *)
    concat [ mux2 (msb s) (ones (w - s.s_width)) (zero (w - s.s_width)); s ]

let is_zero s = s ==: zero s.s_width
let reduce_or s = ~:(is_zero s)
let reduce_and s = s ==: ones s.s_width

let sll s k =
  if k < 0 then invalid_arg "Signal.sll: negative shift";
  if k = 0 then s
  else if k >= s.s_width then zero s.s_width
  else concat [ select s (s.s_width - 1 - k) 0; zero k ]

let srl s k =
  if k < 0 then invalid_arg "Signal.srl: negative shift";
  if k = 0 then s
  else if k >= s.s_width then zero s.s_width
  else concat [ zero k; select s (s.s_width - 1) k ]

let log_shift shift s amount =
  (* Barrel shifter: stage i shifts by 2^i when bit i of [amount] is set. *)
  let rec go acc i =
    if i >= amount.s_width then acc
    else
      let shifted = shift acc (1 lsl i) in
      go (mux2 (bit amount i) shifted acc) (i + 1)
  in
  go s 0

let log_shift_left s amount = log_shift sll s amount
let log_shift_right s amount = log_shift srl s amount

let mux sel cases =
  match cases with
  | [] -> invalid_arg "Signal.mux: empty case list"
  | first :: rest ->
      List.iter (check_same "mux" first) rest;
      let n = List.length cases in
      let arr = Array.of_list cases in
      (* Binary-decode the selector into a mux tree. *)
      let rec build lo count bit_idx =
        if count = 1 || bit_idx < 0 then arr.(min lo (n - 1))
        else
          let half = 1 lsl bit_idx in
          if half >= count then
            (* The whole upper half is out of range: clamp to the last case. *)
            mux2 (bit sel bit_idx) arr.(n - 1) (build lo count (bit_idx - 1))
          else
            mux2 (bit sel bit_idx)
              (build (lo + half) (count - half) (bit_idx - 1))
              (build lo (min half count) (bit_idx - 1))
      in
      build 0 n (sel.s_width - 1)

let onehot_mux pairs ~default =
  List.fold_right (fun (cond, v) acc -> mux2 cond v acc) pairs default

let pp fmt s =
  let opname =
    match s.s_op with
    | Const v -> Format.asprintf "const %a" Bitvec.pp v
    | Input n -> Printf.sprintf "input %s" n
    | Reg r -> Printf.sprintf "reg %s" r.reg_name
    | Not -> "not"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | Eq -> "eq"
    | Ult -> "ult"
    | Slt -> "slt"
    | Mux -> "mux"
    | Concat -> "concat"
    | Slice (hi, lo) -> Printf.sprintf "slice[%d:%d]" hi lo
  in
  Format.fprintf fmt "#%d:%d %s%s" s.s_uid s.s_width opname
    (match s.s_name with Some n -> " (" ^ n ^ ")" | None -> "")
