open Lexer

exception Parse_error of string * int

type state = { toks : (token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s (got %s)" msg (pp_token (peek st)), line st))

let eat st t = if peek st = t then advance st else fail st ("expected " ^ pp_token t)

let eat_kw st kw =
  match peek st with
  | KW k when k = kw -> advance st
  | _ -> fail st ("expected keyword " ^ kw)

let ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | _ -> fail st "expected identifier"

(* {1 Expressions}

   Precedence (loosest to tightest): ?: || && | ^ & ==/!= relational
   shift +- * unary primary. *)

let rec expr st = ternary st

and ternary st =
  let c = logor st in
  if peek st = QUESTION then begin
    advance st;
    let t = ternary st in
    eat st COLON;
    let f = ternary st in
    Ast.Ternary (c, t, f)
  end
  else c

and binop_level next ops st =
  let rec go lhs =
    match peek st with
    | OP o when List.mem_assoc o ops ->
        advance st;
        let rhs = next st in
        go (Ast.Binop (List.assoc o ops, lhs, rhs))
    | NONBLOCK when List.mem_assoc "<=" ops ->
        advance st;
        let rhs = next st in
        go (Ast.Binop (List.assoc "<=" ops, lhs, rhs))
    | _ -> lhs
  in
  go (next st)

and logor st = binop_level logand [ ("||", Ast.Logor) ] st
and logand st = binop_level bitor [ ("&&", Ast.Logand) ] st
and bitor st = binop_level bitxor [ ("|", Ast.Or) ] st
and bitxor st = binop_level bitand [ ("^", Ast.Xor) ] st
and bitand st = binop_level equality [ ("&", Ast.And) ] st
and equality st = binop_level relational [ ("==", Ast.Eq); ("!=", Ast.Neq) ] st

and relational st =
  binop_level shift
    [ ("<", Ast.Lt); ("<=", Ast.Le); (">", Ast.Gt); (">=", Ast.Ge) ]
    st

and shift st = binop_level additive [ ("<<", Ast.Shl); (">>", Ast.Shr) ] st
and additive st = binop_level multiplicative [ ("+", Ast.Add); ("-", Ast.Sub) ] st
and multiplicative st = binop_level unary [ ("*", Ast.Mul) ] st

and unary st =
  match peek st with
  | OP "~" ->
      advance st;
      Ast.Unop (Ast.Not, unary st)
  | OP "!" ->
      advance st;
      Ast.Unop (Ast.Lognot, unary st)
  | OP "-" ->
      advance st;
      Ast.Unop (Ast.Neg, unary st)
  | _ -> primary st

and primary st =
  match peek st with
  | NUMBER v ->
      advance st;
      Ast.Literal { width = None; value = Bitvec.of_int ~width:32 v }
  | BASED (w, v) ->
      advance st;
      Ast.Literal
        { width = (match w with Some w -> Some w | None -> None); value = v }
  | UNBASED b ->
      advance st;
      (* Context-sized; elaboration resolves the width. *)
      Ast.Literal { width = Some 0; value = Bitvec.of_bool b }
  | LPAREN ->
      advance st;
      let e = expr st in
      eat st RPAREN;
      e
  | LBRACE ->
      advance st;
      (* Either a concatenation or a replication {n{e}}. *)
      let first = expr st in
      if peek st = LBRACE then begin
        let count =
          match first with
          | Ast.Literal { value; _ } -> Bitvec.to_int value
          | _ -> fail st "replication count must be a literal"
        in
        advance st;
        let e = expr st in
        eat st RBRACE;
        eat st RBRACE;
        Ast.Repl (count, e)
      end
      else begin
        let parts = ref [ first ] in
        while peek st = COMMA do
          advance st;
          parts := expr st :: !parts
        done;
        eat st RBRACE;
        Ast.Concat (List.rev !parts)
      end
  | IDENT "$signed" ->
      advance st;
      eat st LPAREN;
      let e = expr st in
      eat st RPAREN;
      Ast.Signed e
  | IDENT name ->
      advance st;
      if peek st = LBRACKET then begin
        advance st;
        let hi = expr st in
        if peek st = COLON then begin
          advance st;
          let lo = expr st in
          eat st RBRACKET;
          match (hi, lo) with
          | Ast.Literal { value = h; _ }, Ast.Literal { value = l; _ } ->
              Ast.Slice (name, Bitvec.to_int h, Bitvec.to_int l)
          | _ -> fail st "slice bounds must be literals"
        end
        else begin
          eat st RBRACKET;
          Ast.Index (name, hi)
        end
      end
      else Ast.Ident name
  | _ -> fail st "expected expression"

(* {1 Declarations and statements} *)

let range_opt st =
  if peek st = LBRACKET then begin
    advance st;
    let msb = match peek st with NUMBER v -> advance st; v | _ -> fail st "msb" in
    eat st COLON;
    let lsb = match peek st with NUMBER v -> advance st; v | _ -> fail st "lsb" in
    eat st RBRACKET;
    Some { Ast.msb; lsb }
  end
  else None

let skip_net_type st =
  (* optional wire/reg/logic and signedness after a direction keyword *)
  (match peek st with
  | KW ("wire" | "reg" | "logic") -> advance st
  | _ -> ());
  match peek st with KW ("signed" | "unsigned") -> advance st | _ -> ()

let port st ~common =
  let dir =
    match peek st with
    | KW "input" ->
        advance st;
        Ast.Input
    | KW "output" ->
        advance st;
        Ast.Output
    | _ -> fail st "expected input or output"
  in
  skip_net_type st;
  let port_range = range_opt st in
  let port_name = ident st in
  { Ast.dir; port_range; port_name; common }

(* A non-blocking assignment: name <= expr ; *)
let nonblocking st =
  let name = ident st in
  (match peek st with
  | NONBLOCK -> advance st
  | _ -> fail st "expected <=");
  let e = expr st in
  eat st SEMI;
  (name, e)

let rec nonblocking_list st acc =
  match peek st with
  | KW "end" ->
      advance st;
      List.rev acc
  | IDENT _ -> nonblocking_list st (nonblocking st :: acc)
  | _ -> fail st "expected non-blocking assignment or end"

(* always_ff @(posedge clk) begin if (rst) begin ... end else begin ... end end
   Also accepted without a reset branch: begin <assignments> end. *)
let always_block st =
  eat st AT;
  eat st LPAREN;
  eat_kw st "posedge";
  let _clk = ident st in
  eat st RPAREN;
  eat_kw st "begin";
  match peek st with
  | KW "if" ->
      advance st;
      eat st LPAREN;
      let _rst = ident st in
      eat st RPAREN;
      eat_kw st "begin";
      let resets = nonblocking_list st [] in
      eat_kw st "else";
      eat_kw st "begin";
      let updates = nonblocking_list st [] in
      eat_kw st "end";
      Ast.Always { resets; updates }
  | _ ->
      let updates = nonblocking_list st [] in
      Ast.Always { resets = []; updates }

let item st =
  match peek st with
  | KW ("wire" | "logic") ->
      advance st;
      (match peek st with KW ("signed" | "unsigned") -> advance st | _ -> ());
      let range = range_opt st in
      let name = ident st in
      let init =
        if peek st = ASSIGN_EQ then begin
          advance st;
          Some (expr st)
        end
        else None
      in
      eat st SEMI;
      Some (Ast.Wire { range; name; init })
  | KW "reg" ->
      advance st;
      let range = range_opt st in
      let name = ident st in
      eat st SEMI;
      Some (Ast.Reg_decl { range; name })
  | KW ("localparam" | "parameter") ->
      advance st;
      let _ = range_opt st in
      let name = ident st in
      eat st ASSIGN_EQ;
      let e = expr st in
      eat st SEMI;
      Some (Ast.Localparam (name, e))
  | KW "assign" ->
      advance st;
      let name = ident st in
      eat st ASSIGN_EQ;
      let e = expr st in
      eat st SEMI;
      Some (Ast.Assign (name, e))
  | KW ("always_ff" | "always") ->
      advance st;
      Some (always_block st)
  | AUTOCC_COMMON ->
      advance st;
      None (* inside the body the annotation is meaningless; skip *)
  | IDENT _ ->
      (* Module instantiation: <type> <name> ( .port(expr), ... ); *)
      let mod_type = ident st in
      let inst_name = ident st in
      eat st LPAREN;
      let conns = ref [] in
      let rec conn_loop () =
        match peek st with
        | RPAREN -> advance st
        | COMMA ->
            advance st;
            conn_loop ()
        | DOT ->
            advance st;
            let p = ident st in
            eat st LPAREN;
            let e = expr st in
            eat st RPAREN;
            conns := (p, e) :: !conns;
            conn_loop ()
        | _ -> fail st "expected .port(expr) connection"
      in
      conn_loop ();
      eat st SEMI;
      Some (Ast.Instance { mod_type; inst_name; conns = List.rev !conns })
  | _ -> fail st "expected module item"

let parse_module st =
  eat_kw st "module";
  let mod_name = ident st in
  eat st LPAREN;
  let ports = ref [] in
  let rec ports_loop common =
    match peek st with
    | RPAREN -> advance st
    | AUTOCC_COMMON ->
        advance st;
        ports_loop true
    | COMMA ->
        advance st;
        ports_loop false
    | KW ("input" | "output") ->
        ports := port st ~common :: !ports;
        ports_loop false
    | _ -> fail st "expected port declaration"
  in
  ports_loop false;
  eat st SEMI;
  let items = ref [] in
  while peek st <> KW "endmodule" do
    match item st with Some it -> items := it :: !items | None -> ()
  done;
  eat_kw st "endmodule";
  { Ast.mod_name; ports = List.rev !ports; items = List.rev !items }

let parse_program source =
  let st = { toks = Array.of_list (tokenize source); pos = 0 } in
  let mods = ref [] in
  while peek st <> EOF do
    match peek st with
    | AUTOCC_COMMON -> advance st
    | _ -> mods := parse_module st :: !mods
  done;
  List.rev !mods

let parse source =
  match parse_program source with
  | [ m ] -> m
  | [] -> raise (Parse_error ("no module in source", 1))
  | m :: _ -> m

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_file path = parse (read_file path)
let parse_program_file path = parse_program (read_file path)
