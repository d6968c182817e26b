module Signal = Rtl.Signal
module J = Obs.Json

(* {1 Canonical structural hashing}

   One deterministic preorder walk from the property roots assigns
   canonical indices; a second pass serializes every node as (operator
   tag, width, payload, canonical argument indices). The digest of that
   serialization is equal exactly for isomorphic cones: input names
   never enter it (alpha-renaming invariance), and node allocation
   order / uid values never enter it (reordering invariance), while any
   semantic difference — a flipped gate, a changed width, a different
   constant, different wiring — lands in some node record. Register
   initial values are part of the record: they are semantics. *)

type canon = {
  c_digest : string;
  c_inputs : Signal.t array;
  c_nasserts : int;
}

let canon ~assumes ~asserts =
  let roots = assumes @ asserts in
  let ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  let count = ref 0 in
  let stack = Stack.create () in
  List.iter
    (fun root ->
      Stack.push root stack;
      while not (Stack.is_empty stack) do
        let s = Stack.pop stack in
        if not (Hashtbl.mem ids (Signal.uid s)) then begin
          Hashtbl.replace ids (Signal.uid s) !count;
          incr count;
          order := s :: !order;
          (* Reverse push so args.(0) is discovered first; a register's
             next-state function is walked like an extra last argument,
             which is how the traversal crosses the feedback loop. *)
          (match Signal.op s with
          | Signal.Reg r -> (
              match r.Signal.next with
              | Some n -> Stack.push n stack
              | None -> ())
          | _ -> ());
          let args = Signal.args s in
          for k = Array.length args - 1 downto 0 do
            Stack.push args.(k) stack
          done
        end
      done)
    roots;
  let nodes = Array.of_list (List.rev !order) in
  let id s = Hashtbl.find ids (Signal.uid s) in
  let buf = Buffer.create (64 * Array.length nodes) in
  Array.iter
    (fun s ->
      (match Signal.op s with
      | Signal.Const v -> Buffer.add_string buf ("c" ^ Bitvec.to_hex_string v)
      | Signal.Input _ -> Buffer.add_char buf 'i'
      | Signal.Reg r ->
          Buffer.add_char buf 'r';
          Buffer.add_string buf (Bitvec.to_hex_string r.Signal.init);
          Buffer.add_char buf '>';
          Buffer.add_string buf
            (match r.Signal.next with
            | Some n -> string_of_int (id n)
            | None -> "-")
      | Signal.Not -> Buffer.add_char buf '!'
      | Signal.And -> Buffer.add_char buf '&'
      | Signal.Or -> Buffer.add_char buf '|'
      | Signal.Xor -> Buffer.add_char buf '^'
      | Signal.Add -> Buffer.add_char buf '+'
      | Signal.Sub -> Buffer.add_char buf '-'
      | Signal.Mul -> Buffer.add_char buf '*'
      | Signal.Eq -> Buffer.add_char buf '='
      | Signal.Ult -> Buffer.add_char buf '<'
      | Signal.Slt -> Buffer.add_char buf 's'
      | Signal.Mux -> Buffer.add_char buf 'm'
      | Signal.Concat -> Buffer.add_char buf '#'
      | Signal.Slice (hi, lo) ->
          Buffer.add_string buf (Printf.sprintf "[%d.%d" hi lo));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int (Signal.width s));
      Array.iter
        (fun a ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int (id a)))
        (Signal.args s);
      Buffer.add_char buf ';')
    nodes;
  (* Root sections are positional: the i-th assumption / assertion of
     one query corresponds to the i-th of another. *)
  Buffer.add_string buf "|a";
  List.iter
    (fun r ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int (id r)))
    assumes;
  Buffer.add_string buf "|t";
  List.iter
    (fun r ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int (id r)))
    asserts;
  let inputs =
    Array.of_seq
      (Seq.filter
         (fun s -> match Signal.op s with Signal.Input _ -> true | _ -> false)
         (Array.to_seq nodes))
  in
  {
    c_digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    c_inputs = inputs;
    c_nasserts = List.length asserts;
  }

let key c ~config = Digest.to_hex (Digest.string (c.c_digest ^ "\x00" ^ config))

(* {1 Verdicts and their JSONL codec} *)

type cex = {
  v_depth : int;
  v_inputs : (int * Bitvec.t) list array;
  v_failed : int list;
}

type verdict = Bounded of int | Proved of int | Cex of cex

exception Bad_entry

let json_of_bv v =
  J.Str (Printf.sprintf "%d:%s" (Bitvec.width v) (Bitvec.to_hex_string v))

let bv_of_json = function
  | J.Str s -> (
      match String.index_opt s ':' with
      | Some i -> (
          let w = String.sub s 0 i in
          let h = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt w with
          | Some w when w > 0 -> Bitvec.of_hex_string ~width:w h
          | _ -> raise Bad_entry)
      | None -> raise Bad_entry)
  | _ -> raise Bad_entry

let json_of_verdict = function
  | Bounded d -> J.Obj [ ("v", J.Str "bounded"); ("depth", J.Int d) ]
  | Proved k -> J.Obj [ ("v", J.Str "proved"); ("depth", J.Int k) ]
  | Cex { v_depth; v_inputs; v_failed } ->
      J.Obj
        [
          ("v", J.Str "cex");
          ("depth", J.Int v_depth);
          ("failed", J.List (List.map (fun i -> J.Int i) v_failed));
          ( "inputs",
            J.List
              (Array.to_list
                 (Array.map
                    (fun cycle ->
                      J.Obj
                        (List.map
                           (fun (ord, v) -> (string_of_int ord, json_of_bv v))
                           cycle))
                    v_inputs)) );
        ]

let int_of_json = function J.Int i -> i | _ -> raise Bad_entry

let member name j =
  match J.member name j with Some v -> v | None -> raise Bad_entry

(* {1 Provenance}

   Who earned a verdict: the producing process's ledger run id, the
   engine, and the full config fingerprint that went into the key. The
   record rides the JSONL line as an optional "p" field OUTSIDE the
   integrity digest (which stays over the verdict payload alone), so
   stores written before provenance existed still parse — they just
   answer [None] to "who made this". Provenance is descriptive, never
   load-bearing: no verdict decision reads it. *)

type prov = {
  p_run : string;
  p_engine : string;
  p_config : string;
  p_key : string;
  p_ts : float;
}

let json_of_prov p =
  J.Obj
    [
      ("run", J.Str p.p_run);
      ("engine", J.Str p.p_engine);
      ("config", J.Str p.p_config);
      ("key", J.Str p.p_key);
      ("ts", J.Float p.p_ts);
    ]

let prov_of_json j =
  match
    (J.member "run" j, J.member "engine" j, J.member "config" j,
     J.member "key" j)
  with
  | Some (J.Str r), Some (J.Str e), Some (J.Str c), Some (J.Str k) ->
      Some
        {
          p_run = r;
          p_engine = e;
          p_config = c;
          p_key = k;
          p_ts =
            (match J.member "ts" j with
            | Some (J.Float f) -> f
            | Some (J.Int n) -> float_of_int n
            | _ -> 0.);
        }
  | _ -> None

let verdict_of_json j =
  match member "v" j with
  | J.Str "bounded" -> Bounded (int_of_json (member "depth" j))
  | J.Str "proved" -> Proved (int_of_json (member "depth" j))
  | J.Str "cex" ->
      let cycles =
        match member "inputs" j with J.List l -> l | _ -> raise Bad_entry
      in
      Cex
        {
          v_depth = int_of_json (member "depth" j);
          v_failed =
            (match member "failed" j with
            | J.List l -> List.map int_of_json l
            | _ -> raise Bad_entry);
          v_inputs =
            Array.of_list
              (List.map
                 (function
                   | J.Obj fields ->
                       List.map
                         (fun (k, v) ->
                           match int_of_string_opt k with
                           | Some ord when ord >= 0 -> (ord, bv_of_json v)
                           | _ -> raise Bad_entry)
                         fields
                   | _ -> raise Bad_entry)
                 cycles);
        }
  | _ -> raise Bad_entry

(* {1 Store} *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  rejects : int;
  evictions : int;
  size : int;
}

type t = {
  table : (string, verdict * prov option) Hashtbl.t;
  mutex : Mutex.t;
  mutable chan : out_channel option;
  path : string option;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable rejects : int;
  mutable evictions : int;
}

let m_hits = lazy (Obs.Metrics.counter "cache.hits")
let m_misses = lazy (Obs.Metrics.counter "cache.misses")
let m_stores = lazy (Obs.Metrics.counter "cache.stores")
let m_rejects = lazy (Obs.Metrics.counter "cache.rejects")
let m_evictions = lazy (Obs.Metrics.counter "cache.evictions")
let m_size = lazy (Obs.Metrics.gauge "cache.size")

let count m = if Obs.Metrics.enabled () then Obs.Metrics.add (Lazy.force m) 1

let gauge_size t =
  if Obs.Metrics.enabled () then
    Obs.Metrics.set (Lazy.force m_size)
      (float_of_int (Hashtbl.length t.table))

(* A disk line is {"k":key,"d":md5(payload),"v":payload,"p":prov?}: the
   digest is computed over the canonical printing of the payload JSON,
   which is re-derivable at load because the printer is deterministic.
   The provenance field is optional and outside the digest (see above). *)
let parse_line line =
  match J.parse line with
  | Error _ -> None
  | Ok j -> (
      try
        match (member "k" j, member "d" j) with
        | J.Str k, J.Str d ->
            let payload = member "v" j in
            if Digest.to_hex (Digest.string (J.to_string payload)) <> d then
              None
            else
              let prov =
                match J.member "p" j with
                | Some pj -> prov_of_json pj
                | None -> None
              in
              Some (k, verdict_of_json payload, prov)
        | _ -> None
      with Bad_entry -> None)

let create ?dir () =
  let table = Hashtbl.create 64 in
  let rejects = ref 0 in
  let chan, path =
    match dir with
    | None -> (None, None)
    | Some d ->
        (try Obs.Files.mkdir_p d with Sys_error _ -> ());
        let path = Filename.concat d "verdicts.jsonl" in
        (if Sys.file_exists path then
           try
             let ic = open_in path in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () ->
                 try
                   while true do
                     let line = input_line ic in
                     if String.trim line <> "" then
                       match parse_line line with
                       (* Later lines supersede earlier ones: a
                          recomputed verdict wins over the stale entry
                          it replaced. *)
                       | Some (k, v, p) -> Hashtbl.replace table k (v, p)
                       | None -> incr rejects
                   done
                 with End_of_file -> ())
           with Sys_error _ -> ());
        let oc =
          try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
          with Sys_error _ -> None
        in
        (oc, Some path)
  in
  let t =
    {
      table;
      mutex = Mutex.create ();
      chan;
      path;
      hits = 0;
      misses = 0;
      stores = 0;
      rejects = !rejects;
      evictions = 0;
    }
  in
  gauge_size t;
  t

let dir t = Option.map Filename.dirname t.path

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t k =
  Obs.span "cache.lookup" @@ fun () ->
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table k with
  | Some (v, _) ->
      t.hits <- t.hits + 1;
      count m_hits;
      Obs.Bus.publish Obs.Bus.Cache_hit;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      count m_misses;
      Obs.Bus.publish Obs.Bus.Cache_miss;
      None

(* Audit lookup: no counters, no bus traffic — `autocc why` inspecting
   a store must not perturb its hit/miss statistics. *)
let peek t k = locked t @@ fun () -> Hashtbl.find_opt t.table k

let add ?prov t k v =
  locked t @@ fun () ->
  Hashtbl.replace t.table k (v, prov);
  t.stores <- t.stores + 1;
  count m_stores;
  gauge_size t;
  match t.chan with
  | None -> ()
  | Some oc -> (
      let payload = json_of_verdict v in
      let line =
        J.to_string
          (J.Obj
             ([
                ("k", J.Str k);
                ( "d",
                  J.Str (Digest.to_hex (Digest.string (J.to_string payload))) );
                ("v", payload);
              ]
             @
             match prov with
             | Some p -> [ ("p", json_of_prov p) ]
             | None -> []))
      in
      (* The fault site models a torn/partial write: the injected path
         persists a truncated line — which load-time integrity checking
         must reject — and the store degrades to memory-only. Verdicts
         already live in the table either way; persistence failures can
         never surface as answers. *)
      try
        Fault.point "cache.store";
        output_string oc line;
        output_char oc '\n';
        flush oc
      with
      | Fault.Injected _ ->
          (try
             output_string oc (String.sub line 0 (String.length line / 2));
             output_char oc '\n';
             flush oc
           with Sys_error _ -> ());
          t.chan <- None
      | Sys_error _ -> t.chan <- None)

let remove t k =
  locked t @@ fun () ->
  if Hashtbl.mem t.table k then begin
    Hashtbl.remove t.table k;
    (* An eviction is also a reject (the entry failed revalidation) —
       [rejects] keeps its historical "anything distrusted" meaning
       while [evictions] isolates live removals from load-time parse
       failures. *)
    t.rejects <- t.rejects + 1;
    count m_rejects;
    t.evictions <- t.evictions + 1;
    count m_evictions;
    gauge_size t
  end

let stats t =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    rejects = t.rejects;
    evictions = t.evictions;
    size = Hashtbl.length t.table;
  }
