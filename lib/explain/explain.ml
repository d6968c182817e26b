module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
module Ft = Autocc.Ft
module Json = Obs.Json

type link_kind = Reg | Input | Output | Node

type link = {
  link_cycle : int;
  link_label : string;
  link_kind : link_kind;
  link_a : Bitvec.t;
  link_b : Bitvec.t;
}

type slice = {
  sl_assert : string;
  sl_output : string option;
  sl_chain : link list;
  sl_culprit : string option;
  sl_spy_start : int option;
  sl_depth : int;
  sl_widths : int array;
  sl_trace : (string * link_kind * Bitvec.t array * Bitvec.t array) list;
}

let kind_to_string = function
  | Reg -> "reg"
  | Input -> "input"
  | Output -> "output"
  | Node -> "node"

(* "as__<out>_eq" -> Some "<out>"; the assertion naming of Ft.generate. *)
let output_of_assert name =
  let pre = "as__" and suf = "_eq" in
  let lp = String.length pre and ls = String.length suf in
  let n = String.length name in
  if n > lp + ls && String.sub name 0 lp = pre && String.sub name (n - ls) ls = suf
  then Some (String.sub name lp (n - lp - ls))
  else None

let m_slice_width = lazy (Obs.Metrics.series "explain.slice_width")

let slice_assert ft cex assert_name =
  Obs.span "explain.slice" ~attrs:[ ("assert", Json.Str assert_name) ]
  @@ fun () ->
  let dut = ft.Ft.dut in
  let depth = cex.Bmc.cex_depth in
  let out_name = output_of_assert assert_name in
  let root =
    Option.bind out_name (fun n ->
        match Circuit.find_output dut n with
        | s -> Some s
        | exception Not_found -> None)
  in
  (* Watch the α/β images of every node that can affect the failing
     output, plus the monitor signals of the wrapper. *)
  let cone =
    match root with
    | None -> []
    | Some s ->
        List.filter
          (fun n -> match Signal.op n with Signal.Const _ -> false | _ -> true)
          (Opt.cone dut ~roots:[ s ])
  in
  let pairs =
    List.filter_map
      (fun n ->
        match (ft.Ft.map_a n, ft.Ft.map_b n) with
        | a, b
          when Circuit.mem_node cex.Bmc.cex_circuit a
               && Circuit.mem_node cex.Bmc.cex_circuit b ->
            Some (n, a, b)
        | _ -> None
        | exception Not_found -> None)
      cone
  in
  let monitors =
    [
      ("spy_mode", ft.Ft.spy_mode);
      ("transfer_cond", ft.Ft.transfer_cond);
      ("eq_cnt", ft.Ft.eq_cnt);
      ("flush_done", ft.Ft.flush_done);
    ]
  in
  let watched =
    List.map snd monitors @ List.concat_map (fun (_, a, b) -> [ a; b ]) pairs
  in
  let values = Bmc.replay_values cex watched in
  let arr s = List.assq s values in
  (* Per-DUT-node α/β value arrays, keyed by uid. *)
  let tbl = Hashtbl.create 256 in
  List.iter (fun (n, a, b) -> Hashtbl.replace tbl (Signal.uid n) (arr a, arr b)) pairs;
  let diverges n t =
    match Hashtbl.find_opt tbl (Signal.uid n) with
    | Some (va, vb) -> t >= 0 && t < Array.length va && not (Bitvec.equal va.(t) vb.(t))
    | None -> false
  in
  let widths =
    Array.init (depth + 1) (fun t ->
        List.length (List.filter (fun (n, _, _) -> diverges n t) pairs))
  in
  Array.iter
    (fun w -> Obs.Metrics.record (Lazy.force m_slice_width) (float_of_int w))
    widths;
  (* Backward walk: each visited node genuinely diverges at its cycle. A
     combinational node with equal args would be equal, so some arg
     diverges at the same cycle; a register holds its next's value of the
     previous cycle. Cycles never increase and intra-cycle hops follow
     the combinational DAG, so the walk terminates. *)
  let rec walk acc n t =
    let acc = (n, t) :: acc in
    match Signal.op n with
    | Signal.Input _ | Signal.Const _ -> acc
    | Signal.Reg r -> (
        if t = 0 then acc
        else
          match r.Signal.next with
          | Some nx when diverges nx (t - 1) -> walk acc nx (t - 1)
          | _ -> acc)
    | Signal.Mux
      when (not (diverges (Signal.args n).(0) t))
           && Hashtbl.mem tbl (Signal.uid (Signal.args n).(0)) -> (
        (* Equal select: follow the branch it actually selects. *)
        let va, _ = Hashtbl.find tbl (Signal.uid (Signal.args n).(0)) in
        let picked = (Signal.args n).(if Bitvec.bit va.(t) 0 then 1 else 2) in
        if diverges picked t then walk acc picked t else acc)
    | _ -> (
        match Array.to_list (Signal.args n) |> List.find_opt (fun a -> diverges a t) with
        | Some a -> walk acc a t
        | None -> acc)
  in
  let raw =
    match root with
    | None -> []
    | Some s ->
        (* The assertion failed at [depth]; with payload gating the port
           itself may first differ slightly earlier — slice from the
           latest cycle at which it does. [walk] prepends as it descends,
           so the result is already origin-first, output last. *)
        let rec latest t = if t < 0 then None else if diverges s t then Some t else latest (t - 1) in
        (match latest depth with
        | Some t -> walk [] s t
        | None -> [])
  in
  (* A hop is kept in the chain only if it has a stable name. *)
  let named_node n =
    match Signal.op n with
    | Signal.Reg r -> Some (r.Signal.reg_name, Reg)
    | Signal.Input i -> Some (i, Input)
    | _ -> Option.map (fun l -> (l, Node)) (Signal.name n)
  in
  let link_of (n, t) (label, kind) =
    let a, b =
      match Hashtbl.find_opt tbl (Signal.uid n) with
      | Some (va, vb) -> (va.(t), vb.(t))
      | None ->
          let z = Bitvec.zero (Signal.width n) in
          (z, z)
    in
    { link_cycle = t; link_label = label; link_kind = kind; link_a = a; link_b = b }
  in
  let chain =
    match raw with
    | [] -> []
    | _ ->
        let rec split_last acc = function
          | [] -> assert false
          | [ last ] -> (List.rev acc, last)
          | hop :: tl -> split_last (hop :: acc) tl
        in
        let body_hops, ((last_n, _) as last) = split_last [] raw in
        (* Named hops only; the observable output is always last, under
           its port name. A register the divergence merely persists in
           appears once per cycle along the walk — collapse those runs,
           or the same channel at two depths would fingerprint apart. *)
        let body =
          List.filter_map
            (fun ((n, _) as hop) -> Option.map (link_of hop) (named_node n))
            body_hops
        in
        let body =
          List.fold_left
            (fun acc l ->
              match acc with
              | prev :: _
                when prev.link_label = l.link_label && prev.link_kind = l.link_kind
                -> acc
              | _ -> l :: acc)
            [] body
          |> List.rev
        in
        let out_link =
          match out_name with
          | Some o -> [ link_of last (o, Output) ]
          | None -> Option.to_list (Option.map (link_of last) (named_node last_n))
        in
        body @ out_link
  in
  let chain_regs =
    List.filter_map (fun l -> if l.link_kind = Reg then Some l.link_label else None) chain
    |> List.sort_uniq compare
  in
  let culprit =
    match Autocc.Synthesis.find_cause ft cex ~candidates:chain_regs ~already_flushed:[] with
    | Some c -> Some c
    | None -> (
        match Autocc.Report.first_divergence ft cex with
        | (n, _) :: _ -> Some n
        | [] -> None)
  in
  (* Waveform strip: the monitor signals, every distinct named chain hop
     (full per-cycle α/β arrays), and the observable output last. *)
  let row_of_node label kind n =
    Option.map
      (fun (va, vb) -> (label, kind, va, vb))
      (Hashtbl.find_opt tbl (Signal.uid n))
  in
  let strip_hops =
    let out_row =
      match (root, out_name) with
      | Some s, Some o -> Option.to_list (row_of_node o Output s)
      | _ -> []
    in
    let hop_rows =
      List.filter_map
        (fun (n, _) ->
          match named_node n with
          | Some (label, kind)
            when not (List.exists (fun (o, _, _, _) -> o = label) out_row) ->
              row_of_node label kind n
          | _ -> None)
        raw
    in
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (label, _, _, _) ->
        if Hashtbl.mem seen label then false
        else begin
          Hashtbl.replace seen label ();
          true
        end)
      hop_rows
    @ out_row
  in
  let trace =
    List.map (fun (lbl, s) -> let v = arr s in (lbl, Node, v, v)) monitors
    @ strip_hops
  in
  {
    sl_assert = assert_name;
    sl_output = out_name;
    sl_chain = chain;
    sl_culprit = culprit;
    sl_spy_start = Ft.spy_start_cycle ft cex;
    sl_depth = depth;
    sl_widths = widths;
    sl_trace = trace;
  }

let slice ft cex =
  match cex.Bmc.cex_failed with
  | [] -> invalid_arg "Explain.slice: counterexample with no failing assertion"
  | a :: _ -> slice_assert ft cex a

let pp_slice fmt sl =
  Format.fprintf fmt "slice of %s (depth %d%s):@." sl.sl_assert (sl.sl_depth + 1)
    (match sl.sl_spy_start with
    | Some c -> Printf.sprintf ", spy from cycle %d" c
    | None -> "");
  (match sl.sl_culprit with
  | Some c -> Format.fprintf fmt "  culprit register: %s@." c
  | None -> Format.fprintf fmt "  culprit register: (none identified)@.");
  List.iter
    (fun l ->
      Format.fprintf fmt "  [%d] %-7s %-24s %s vs %s@." l.link_cycle
        (kind_to_string l.link_kind) l.link_label
        (Bitvec.to_hex_string l.link_a) (Bitvec.to_hex_string l.link_b))
    sl.sl_chain;
  Format.fprintf fmt "  slice width per cycle: %s@."
    (String.concat " " (Array.to_list (Array.map string_of_int sl.sl_widths)))

(* {1 Minimization} *)

type minimized = {
  mn_cex : Bmc.cex;
  mn_depth_delta : int;
  mn_zeroed_bits : int;
  mn_iterations : int;
}

let m_min_iterations = lazy (Obs.Metrics.counter "explain.min_iterations")
let m_min_zeroed = lazy (Obs.Metrics.counter "explain.min_zeroed_bits")

let popcount v = Array.fold_left (fun n b -> if b then n + 1 else n) 0 (Bitvec.to_bits v)

let minimize ft cex =
  Obs.span "explain.minimize"
    ~attrs:[ ("depth", Json.Int cex.Bmc.cex_depth) ]
  @@ fun () ->
  let targets = cex.Bmc.cex_failed in
  (* Restrict the property to the assertions this CEX actually
     violates: a per-assertion sweep instruments only those, so the
     others may not be nodes of [cex_circuit]. *)
  let prop =
    {
      Bmc.assumes = ft.Ft.property.Bmc.assumes;
      Bmc.asserts =
        List.filter (fun (n, _) -> List.mem n targets) ft.Ft.property.Bmc.asserts;
    }
  in
  let iterations = ref 0 in
  (* A trial passes when replay raises no mismatch (assumptions hold,
     something fails at the final depth) and one of the original failing
     assertions is among the failures. *)
  let ok inputs depth =
    incr iterations;
    match Bmc.validate cex.Bmc.cex_circuit prop inputs depth with
    | failed -> if List.exists (fun n -> List.mem n targets) failed then Some failed else None
    | exception Bmc.Replay_mismatch _ -> None
  in
  (match ok cex.Bmc.cex_inputs cex.Bmc.cex_depth with
  | None ->
      raise
        (Bmc.Replay_mismatch
           "Explain.minimize: counterexample does not replay against the FT property")
  | Some _ -> ());
  (* Depth: try each shallower prefix, shallowest first. [Bmc.check]
     already returns the shallowest failure, so this usually confirms
     rather than shrinks — but it re-verifies, and minimizes CEXs that
     arrive from other sources (induction refutations, files). *)
  let depth = ref cex.Bmc.cex_depth in
  let inputs = ref cex.Bmc.cex_inputs in
  let failed = ref targets in
  (try
     for d = 0 to cex.Bmc.cex_depth - 1 do
       let trunc = Array.sub cex.Bmc.cex_inputs 0 (d + 1) in
       match ok trunc d with
       | Some f ->
           depth := d;
           inputs := trunc;
           failed := f;
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  (* Inputs: zero whole words, then single bits, greedily; every accepted
     rewrite re-replayed the full trace above. *)
  let current = Array.copy !inputs in
  let replace c name v =
    let arr = Array.copy current in
    arr.(c) <-
      List.map (fun (n, v') -> if String.equal n name then (n, v) else (n, v')) arr.(c);
    arr
  in
  let zeroed = ref 0 in
  Array.iteri
    (fun c assignments ->
      List.iter
        (fun (name, v) ->
          if not (Bitvec.is_zero v) then begin
            let w = Bitvec.width v in
            let trial = replace c name (Bitvec.zero w) in
            match ok trial !depth with
            | Some f ->
                current.(c) <- trial.(c);
                failed := f;
                zeroed := !zeroed + popcount v
            | None ->
                (* Word is load-bearing; try its set bits one by one. *)
                for i = 0 to w - 1 do
                  let v' = List.assoc name current.(c) in
                  if Bitvec.bit v' i then begin
                    let mask =
                      Bitvec.lognot (Bitvec.shift_left (Bitvec.one w) i)
                    in
                    let trial = replace c name (Bitvec.logand v' mask) in
                    match ok trial !depth with
                    | Some f ->
                        current.(c) <- trial.(c);
                        failed := f;
                        incr zeroed
                    | None -> ()
                  end
                done
          end)
        assignments)
    current;
  Obs.Metrics.add (Lazy.force m_min_iterations) !iterations;
  Obs.Metrics.add (Lazy.force m_min_zeroed) !zeroed;
  {
    mn_cex =
      {
        cex with
        Bmc.cex_depth = !depth;
        Bmc.cex_inputs = current;
        Bmc.cex_failed = !failed;
      };
    mn_depth_delta = cex.Bmc.cex_depth - !depth;
    mn_zeroed_bits = !zeroed;
    mn_iterations = !iterations;
  }

(* {1 Clustering} *)

type channel = {
  ch_name : string;
  ch_fingerprint : string;
  ch_culprit : string option;
  ch_asserts : string list;
  ch_raw_cexs : int;
  ch_slice : slice;
  ch_min : minimized;
}

let fingerprint sl =
  let culprit = Option.value ~default:"?" sl.sl_culprit in
  let hops =
    List.filter_map
      (fun l -> if l.link_kind = Reg then Some l.link_label else None)
      sl.sl_chain
  in
  Printf.sprintf "culprit=%s;path=%s" culprit (String.concat ">" hops)

let m_clusters = lazy (Obs.Metrics.gauge "explain.clusters")

let cluster ft cexs =
  Obs.span "explain.cluster"
    ~attrs:[ ("cexs", Json.Int (List.length cexs)) ]
  @@ fun () ->
  let explained = List.map (fun c -> (slice ft c, minimize ft c)) cexs in
  (* Group by fingerprint, preserving first-seen order. *)
  let order = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (sl, mn) ->
      let fp = fingerprint sl in
      match Hashtbl.find_opt groups fp with
      | Some members -> members := (sl, mn) :: !members
      | None ->
          Hashtbl.replace groups fp (ref [ (sl, mn) ]);
          order := fp :: !order)
    explained;
  let channels =
    List.rev_map
      (fun fp ->
        let members = List.rev !(Hashtbl.find groups fp) in
        let rep_sl, rep_mn =
          List.fold_left
            (fun (bs, bm) (sl, mn) ->
              if mn.mn_cex.Bmc.cex_depth < bm.mn_cex.Bmc.cex_depth then (sl, mn)
              else (bs, bm))
            (List.hd members) (List.tl members)
        in
        let asserts =
          List.sort_uniq compare (List.map (fun (sl, _) -> sl.sl_assert) members)
        in
        let name =
          Printf.sprintf "%s->%s"
            (Option.value ~default:"in-flight" rep_sl.sl_culprit)
            (Option.value ~default:rep_sl.sl_assert rep_sl.sl_output)
        in
        {
          ch_name = name;
          ch_fingerprint = fp;
          ch_culprit = rep_sl.sl_culprit;
          ch_asserts = asserts;
          ch_raw_cexs = List.length members;
          ch_slice = rep_sl;
          ch_min = rep_mn;
        })
      !order
    |> List.rev
    |> List.stable_sort (fun a b ->
           compare a.ch_min.mn_cex.Bmc.cex_depth b.ch_min.mn_cex.Bmc.cex_depth)
  in
  (* Same culprit and output via distinct paths: disambiguate names. *)
  let channels =
    List.mapi
      (fun i ch ->
        let dup =
          List.exists
            (fun (j, other) -> j < i && other.ch_name = ch.ch_name)
            (List.mapi (fun j o -> (j, o)) channels)
        in
        if dup then { ch with ch_name = Printf.sprintf "%s#%d" ch.ch_name i } else ch)
      channels
  in
  Obs.Metrics.set (Lazy.force m_clusters) (float_of_int (List.length channels));
  channels

(* {1 Campaign driver} *)

module Campaign = struct
  type entry = {
    e_label : string;
    e_dut : string;
    e_ft : unit -> Ft.t;
    e_max_depth : int;
  }

  type channel_ref = {
    cr_name : string;
    cr_culprit : string option;
    cr_min_depth : int;
    cr_artifact : string;
  }

  type entry_result = {
    r_label : string;
    r_dut : string;
    r_status : [ `Done | `Failed of string ];
    r_channels : channel list;
    r_index : channel_ref list;
    r_raw_cexs : int;
    r_asserts : int;
    r_unknowns : int;
    r_depth : int;
    r_wall_ms : int;
    r_resumed : bool;
  }

  type t = { c_results : entry_result list; c_artifacts : string list }

  let sanitize label =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
      label

  let artifact_name label i = Printf.sprintf "channel_%s_%d.json" (sanitize label) i

  let json_of_link l =
    Json.Obj
      [
        ("cycle", Json.Int l.link_cycle);
        ("signal", Json.Str l.link_label);
        ("kind", Json.Str (kind_to_string l.link_kind));
        ("alpha", Json.Str (Bitvec.to_hex_string l.link_a));
        ("beta", Json.Str (Bitvec.to_hex_string l.link_b));
      ]

  let json_opt_str = function None -> Json.Null | Some s -> Json.Str s
  let json_opt_int = function None -> Json.Null | Some i -> Json.Int i

  let json_of_channel ~label ~dut ch =
    let sl = ch.ch_slice and mn = ch.ch_min in
    Json.Obj
      [
        ("schema", Json.Str "autocc.channel/1");
        ("label", Json.Str label);
        ("dut", Json.Str dut);
        ( "channel",
          Json.Obj
            [
              ("name", Json.Str ch.ch_name);
              ("culprit", json_opt_str ch.ch_culprit);
              ("fingerprint", Json.Str ch.ch_fingerprint);
              ("asserts", Json.List (List.map (fun a -> Json.Str a) ch.ch_asserts));
              ("raw_cexs", Json.Int ch.ch_raw_cexs);
            ] );
        ( "witness",
          Json.Obj
            [
              ("depth", Json.Int mn.mn_cex.Bmc.cex_depth);
              ("depth_delta", Json.Int mn.mn_depth_delta);
              ("zeroed_bits", Json.Int mn.mn_zeroed_bits);
              ("iterations", Json.Int mn.mn_iterations);
              ( "inputs",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun assignments ->
                          Json.Obj
                            (List.map
                               (fun (n, v) -> (n, Json.Str (Bitvec.to_hex_string v)))
                               assignments))
                        mn.mn_cex.Bmc.cex_inputs)) );
            ] );
        ("provenance", Json.List (List.map json_of_link sl.sl_chain));
        ( "slice",
          Json.Obj
            [
              ("assert", Json.Str sl.sl_assert);
              ("output", json_opt_str sl.sl_output);
              ("spy_start", json_opt_int sl.sl_spy_start);
              ( "widths",
                Json.List
                  (Array.to_list (Array.map (fun w -> Json.Int w) sl.sl_widths)) );
            ] );
        ("telemetry", Obs.Metrics.json_of_snapshot ());
      ]

  let ref_of_channel ~label i ch =
    {
      cr_name = ch.ch_name;
      cr_culprit = ch.ch_culprit;
      cr_min_depth = ch.ch_min.mn_cex.Bmc.cex_depth;
      cr_artifact = artifact_name label i;
    }

  (* The campaign index (schema 2) is the resume ledger, so it must be
     byte-stable across re-emission: every field is an Int/Str/Null
     (wall clock in integer milliseconds — the float printer is not
     read-back exact), field order is fixed here, and no volatile
     telemetry snapshot is embedded (it lives in the HTML report and the
     per-channel artifacts instead). Re-parsing a record and printing it
     again reproduces the original bytes. *)
  let json_of_entry r =
    Json.Obj
      [
        ("label", Json.Str r.r_label);
        ("dut", Json.Str r.r_dut);
        ( "status",
          Json.Str (match r.r_status with `Done -> "done" | `Failed _ -> "failed")
        );
        ( "error",
          match r.r_status with `Done -> Json.Null | `Failed m -> Json.Str m );
        ("asserts", Json.Int r.r_asserts);
        ("raw_cexs", Json.Int r.r_raw_cexs);
        ("unknowns", Json.Int r.r_unknowns);
        ("max_depth", Json.Int r.r_depth);
        ("wall_ms", Json.Int r.r_wall_ms);
        ( "channels",
          Json.List
            (List.map
               (fun cr ->
                 Json.Obj
                   [
                     ("name", Json.Str cr.cr_name);
                     ("culprit", json_opt_str cr.cr_culprit);
                     ("minimized_depth", Json.Int cr.cr_min_depth);
                     ("artifact", Json.Str cr.cr_artifact);
                   ])
               r.r_index) );
      ]

  let json_of_campaign t =
    Json.Obj
      [
        ("schema", Json.Str "autocc.campaign/2");
        ("entries", Json.List (List.map json_of_entry t.c_results));
      ]

  let html_escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string b "&lt;"
        | '>' -> Buffer.add_string b "&gt;"
        | '&' -> Buffer.add_string b "&amp;"
        | '"' -> Buffer.add_string b "&quot;"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let html_report t =
    let b = Buffer.create 16384 in
    let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    pf
      {|<!doctype html>
<html><head><meta charset="utf-8"><title>AutoCC campaign report</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 2px 8px; font-family: monospace; font-size: 0.9em; }
th { background: #eee; }
td.diff { background: #ffd7d7; font-weight: bold; }
td.spy { border-top: 2px solid #c00; }
.chain li { font-family: monospace; }
.meta { color: #555; }
details pre { background: #f6f6f6; padding: 0.5em; overflow-x: auto; }
h3 { margin-bottom: 0.2em; }
</style></head><body>
<h1>AutoCC campaign report</h1>
|};
    pf
      "<table><tr><th>entry</th><th>DUT</th><th>status</th><th>assertions</th><th>raw \
       CEXs</th><th>unknown</th><th>channels</th><th>max depth</th><th>wall \
       (s)</th></tr>\n";
    List.iter
      (fun r ->
        pf
          "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.3f</td></tr>\n"
          (html_escape r.r_label) (html_escape r.r_dut)
          (match r.r_status with
          | `Done when r.r_resumed -> "done (resumed)"
          | `Done -> "done"
          | `Failed _ -> "failed")
          r.r_asserts r.r_raw_cexs r.r_unknowns
          (List.length r.r_index)
          r.r_depth
          (float_of_int r.r_wall_ms /. 1000.))
      t.c_results;
    pf "</table>\n";
    List.iter
      (fun r ->
        pf "<h2>%s <span class=\"meta\">(%s)</span></h2>\n" (html_escape r.r_label)
          (html_escape r.r_dut);
        (match r.r_status with
        | `Failed msg ->
            pf "<p class=\"meta\">entry failed: <code>%s</code></p>\n"
              (html_escape msg)
        | `Done -> ());
        if r.r_unknowns > 0 then
          pf
            "<p class=\"meta\">%d assertion%s inconclusive (budget or fault) — \
             rerun with <code>--resume</code> and a larger budget.</p>\n"
            r.r_unknowns
            (if r.r_unknowns = 1 then "" else "s");
        if r.r_resumed then begin
          (* Resumed entries re-list their persisted artifacts; the
             sliced traces needed for waveform strips are not serialized,
             so the compact index links to the channel JSON instead. *)
          pf "<p>Channels (from persisted artifacts):</p>\n<ul>\n";
          List.iter
            (fun cr ->
              pf "<li><b>%s</b> — culprit <code>%s</code>, minimized depth %d: <a href=\"%s\">%s</a></li>\n"
                (html_escape cr.cr_name)
                (html_escape (Option.value ~default:"(in-flight)" cr.cr_culprit))
                (cr.cr_min_depth + 1)
                (html_escape cr.cr_artifact) (html_escape cr.cr_artifact))
            r.r_index;
          pf "</ul>\n"
        end
        else if r.r_channels = [] then begin
          if r.r_status = `Done && r.r_unknowns = 0 then
            pf "<p>No channel: every assertion has a bounded proof to depth %d.</p>\n"
              r.r_depth
        end
        else
          List.iter
            (fun ch ->
              let sl = ch.ch_slice and mn = ch.ch_min in
              pf "<h3>%s</h3>\n" (html_escape ch.ch_name);
              pf
                "<p class=\"meta\">culprit: <code>%s</code> · assertions: %s · %d raw \
                 CEX%s · minimized depth %d (−%d cycles, %d bits zeroed, %d replays)%s</p>\n"
                (html_escape (Option.value ~default:"(in-flight)" ch.ch_culprit))
                (String.concat ", "
                   (List.map (fun a -> "<code>" ^ html_escape a ^ "</code>") ch.ch_asserts))
                ch.ch_raw_cexs
                (if ch.ch_raw_cexs = 1 then "" else "s")
                (mn.mn_cex.Bmc.cex_depth + 1)
                mn.mn_depth_delta mn.mn_zeroed_bits mn.mn_iterations
                (match sl.sl_spy_start with
                | Some c -> Printf.sprintf " · spy mode from cycle %d" c
                | None -> "");
              pf "<p>Provenance (origin to observable output):</p>\n<ol class=\"chain\">\n";
              List.iter
                (fun l ->
                  pf "<li>cycle %d: %s <b>%s</b> — α=%s β=%s</li>\n" l.link_cycle
                    (kind_to_string l.link_kind) (html_escape l.link_label)
                    (html_escape (Bitvec.to_hex_string l.link_a))
                    (html_escape (Bitvec.to_hex_string l.link_b)))
                sl.sl_chain;
              pf "</ol>\n";
              (* Waveform strip: one row per sliced signal, one column per
                 cycle; diverging cells highlighted. *)
              pf "<table><tr><th>signal</th>";
              for c = 0 to sl.sl_depth do
                pf "<th>%d%s</th>" c
                  (if sl.sl_spy_start = Some c then "&nbsp;spy" else "")
              done;
              pf "</tr>\n";
              List.iter
                (fun (label, kind, va, vb) ->
                  pf "<tr><td>%s%s</td>" (html_escape label)
                    (match kind with
                    | Reg -> " <span class=\"meta\">reg</span>"
                    | Output -> " <span class=\"meta\">out</span>"
                    | Input -> " <span class=\"meta\">in</span>"
                    | Node -> "");
                  for c = 0 to sl.sl_depth do
                    if c < Array.length va then
                      if Bitvec.equal va.(c) vb.(c) then
                        pf "<td>%s</td>" (html_escape (Bitvec.to_hex_string va.(c)))
                      else
                        pf "<td class=\"diff\">%s&nbsp;∣&nbsp;%s</td>"
                          (html_escape (Bitvec.to_hex_string va.(c)))
                          (html_escape (Bitvec.to_hex_string vb.(c)))
                    else pf "<td></td>"
                  done;
                  pf "</tr>\n")
                sl.sl_trace;
              pf "</table>\n")
            r.r_channels)
      t.c_results;
    pf "<h2>Telemetry</h2>\n<details open><summary>metrics snapshot</summary><pre>%s</pre></details>\n"
      (html_escape (Json.to_string (Obs.Metrics.json_of_snapshot ())));
    pf "</body></html>\n";
    Buffer.contents b

  (* {2 Resume support}

     The resume ledger is campaign.json itself: a persisted entry is
     reusable only when it is conclusively done — status "done", zero
     unknowns, the DUT and depth unchanged, and every referenced channel
     artifact still parsing with the autocc.channel/1 schema. Anything
     less (failed, inconclusive, missing or corrupt artifact) is
     recomputed. Reused entries re-emit their persisted records through
     the same fixed-order integer-only printer, so resuming a finished
     campaign rewrites campaign.json byte-identically. *)

  type persisted = {
    p_dut : string;
    p_asserts : int;
    p_raw_cexs : int;
    p_depth : int;
    p_wall_ms : int;
    p_refs : channel_ref list;
  }

  let read_json path =
    try
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse s with Ok j -> Some j | Error _ -> None
    with Sys_error _ -> None

  let ref_of_json j =
    let ( let* ) = Option.bind in
    let* name = Json.str "name" j in
    let culprit = Json.str "culprit" j in
    let* depth = Json.int "minimized_depth" j in
    let* artifact = Json.str "artifact" j in
    (* Artifact names are generated by [artifact_name]; refuse anything
       that could escape the campaign directory. *)
    if Filename.basename artifact <> artifact then None
    else Some { cr_name = name; cr_culprit = culprit; cr_min_depth = depth; cr_artifact = artifact }

  let persisted_of_json dir j =
    let ( let* ) = Option.bind in
    let* label = Json.str "label" j in
    let* dut = Json.str "dut" j in
    let* status = Json.str "status" j in
    let* asserts = Json.int "asserts" j in
    let* raw_cexs = Json.int "raw_cexs" j in
    let* unknowns = Json.int "unknowns" j in
    let* depth = Json.int "max_depth" j in
    let* wall_ms = Json.int "wall_ms" j in
    let* chans =
      match Json.member "channels" j with Some (Json.List l) -> Some l | _ -> None
    in
    if status <> "done" || unknowns <> 0 then None
    else
      let* refs =
        List.fold_left
          (fun acc cj ->
            let* acc = acc in
            let* r = ref_of_json cj in
            Some (r :: acc))
          (Some []) chans
      in
      let refs = List.rev refs in
      let artifact_ok cr =
        match read_json (Filename.concat dir cr.cr_artifact) with
        | Some cj -> Json.str "schema" cj = Some "autocc.channel/1"
        | None -> false
      in
      if List.for_all artifact_ok refs then
        Some
          ( label,
            {
              p_dut = dut;
              p_asserts = asserts;
              p_raw_cexs = raw_cexs;
              p_depth = depth;
              p_wall_ms = wall_ms;
              p_refs = refs;
            } )
      else None

  let load_resume dir =
    match read_json (Filename.concat dir "campaign.json") with
    | Some j when Json.str "schema" j = Some "autocc.campaign/2" -> (
        match Json.member "entries" j with
        | Some (Json.List l) -> List.filter_map (persisted_of_json dir) l
        | _ -> [])
    | _ -> []

  (* {2 The per-entry sweep}

     [check_each] with a per-assertion budget, then retry rounds: only
     the assertions whose verdict is a transient Unknown (budget or
     fault) are re-swept, with the policy's escalated budget and
     alternate configuration, after the capped backoff. Conclusive
     verdicts from earlier rounds are never re-run and never change. *)
  let sweep ?opt ?incremental ?(symmetric = true) ?cache ?(beat = fun () -> ())
      ~budget ~retry ft ~max_depth =
    let property = ft.Ft.property in
    let run_asserts ~attempt asserts =
      Bmc.check_each ~max_depth ?opt ?incremental
        ~progress:(fun _ -> beat ())
        ~sym:(if symmetric then ft.Ft.sym else [])
        ?cache
        ?solver_config:(Retry.config_for retry ~attempt)
        ~budget:(Retry.budget_for retry budget ~attempt)
        ft.Ft.wrapper
        { Bmc.assumes = property.Bmc.assumes; asserts }
    in
    let rec refine attempt (outcomes : (string * Bmc.outcome) list) =
      let transient =
        List.filter_map
          (fun ((n, o) : string * Bmc.outcome) ->
            match o with
            | Bmc.Unknown (r, _) when Retry.should_retry retry ~attempt r ->
                Some (n, r)
            | _ -> None)
          outcomes
      in
      let transient_names = List.map fst transient in
      if transient = [] then outcomes
      else begin
        let attempt = attempt + 1 in
        List.iter
          (fun (n, r) ->
            Obs.Bus.publish
              ~label:(Obs.Bus.sub_label n)
              (Obs.Bus.Retry
                 { attempt; reason = Bmc.unknown_reason_to_string r }))
          transient;
        Obs.log
          ~attrs:
            [
              ("attempt", Json.Int attempt);
              ("asserts", Json.Int (List.length transient));
            ]
          Obs.Debug "explain.retry";
        let d = Retry.backoff_s retry ~attempt in
        if d > 0. then Unix.sleepf d;
        let redo =
          run_asserts ~attempt
            (List.filter
               (fun (n, _) -> List.mem n transient_names)
               property.Bmc.asserts)
        in
        refine attempt
          (List.map
             (fun (n, o) ->
               match List.assoc_opt n redo with Some o' -> (n, o') | None -> (n, o))
             outcomes)
      end
    in
    refine 0 (run_asserts ~attempt:0 property.Bmc.asserts)

  (* {2 Heartbeats}

     [heartbeats.json] lives beside [campaign.json] but is deliberately
     a separate file: campaign.json must stay byte-identical across a
     no-op [--resume] (the robustness smoke [cmp]s it), while heartbeats
     are volatile liveness state. Schema [autocc.heartbeat/1]:
     [{schema, pid, entries: {label: {started_s, beat_s, done}}}],
     rewritten atomically (tmp + rename) so [autocc top] never reads a
     torn file. A reader pairs [beat_s] with a liveness probe of [pid]
     to tell a crashed campaign (pid dead, beat frozen) from a slow one
     (pid alive, beat advancing or recent). *)

  let heartbeat_path dir = Filename.concat dir "heartbeats.json"

  let read_heartbeat_pid dir =
    match read_json (heartbeat_path dir) with
    | Some j when Json.str "schema" j = Some "autocc.heartbeat/1" ->
        Json.int "pid" j
    | _ -> None

  let write_heartbeats dir (hb : (string, float * float * bool) Hashtbl.t) =
    let entries =
      List.sort compare
        (Hashtbl.fold
           (fun label (started, beat, finished) acc ->
             ( label,
               Json.Obj
                 [
                   ("started_s", Json.Float started);
                   ("beat_s", Json.Float beat);
                   ("done", Json.Bool finished);
                 ] )
             :: acc)
           hb [])
    in
    let j =
      Json.Obj
        [
          ("schema", Json.Str "autocc.heartbeat/1");
          ("pid", Json.Int (Unix.getpid ()));
          ("entries", Json.Obj entries);
        ]
    in
    try
      Obs.Files.write_atomic ~path:(heartbeat_path dir)
        (Json.to_string j ^ "\n")
    with Sys_error _ -> ()

  let run ?opt ?incremental ?symmetric ?cache ?(budget = Bmc.no_budget)
      ?(retry = Retry.default) ?(resume = false) ?out_dir
      ?(should_stop = fun () -> false) entries =
    Obs.span "explain.campaign"
      ~attrs:[ ("entries", Json.Int (List.length entries)) ]
    @@ fun () ->
    (* Fail fast on an unusable output directory, before any solving. *)
    (match out_dir with
    | None -> ()
    | Some dir -> (
        Obs.Files.mkdir_p dir;
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          failwith ("campaign: cannot create output directory " ^ dir);
        let probe = Filename.concat dir ".autocc_write_probe" in
        try
          let oc = open_out probe in
          close_out oc;
          Sys.remove probe
        with Sys_error _ ->
          failwith ("campaign: output directory " ^ dir ^ " is not writable")));
    (* Live observability: a campaign with an output directory publishes
       its event stream to <dir>/events.jsonl (append-only, flushed per
       event) unless the caller already attached a bus of its own. *)
    let bus_owned = ref false in
    (match out_dir with
    | Some dir when not (Obs.Bus.enabled ()) ->
        Obs.Bus.attach ~file:(Filename.concat dir "events.jsonl") ();
        bus_owned := true
    | _ -> ());
    (* A resume against a directory whose heartbeat file names a live,
       different process is almost certainly a concurrent campaign on
       the same state — warn, don't refuse (the pid may be recycled). *)
    (match (resume, out_dir) with
    | true, Some dir -> (
        match read_heartbeat_pid dir with
        | Some pid
          when pid <> Unix.getpid ()
               && (try
                     Unix.kill pid 0;
                     true
                   with Unix.Unix_error _ -> false) ->
            Obs.log
              ~attrs:[ ("pid", Json.Int pid) ]
              Obs.Warn "explain.live_campaign_conflict"
        | _ -> ())
    | _ -> ());
    let hb : (string, float * float * bool) Hashtbl.t = Hashtbl.create 8 in
    let hb_last = ref 0. in
    let hb_flush ~force () =
      match out_dir with
      | None -> ()
      | Some dir ->
          let now = Unix.gettimeofday () in
          (* Beats arrive per solved depth; throttle the rewrite so a
             fast sweep doesn't turn into an fsync storm. *)
          if force || now -. !hb_last >= 0.2 then begin
            hb_last := now;
            write_heartbeats dir hb
          end
    in
    let hb_start label =
      let now = Unix.gettimeofday () in
      Hashtbl.replace hb label (now, now, false);
      hb_flush ~force:true ()
    in
    let hb_beat label =
      (match Hashtbl.find_opt hb label with
      | Some (started, _, finished) ->
          Hashtbl.replace hb label (started, Unix.gettimeofday (), finished)
      | None -> ());
      hb_flush ~force:false ()
    in
    let hb_done label =
      (match Hashtbl.find_opt hb label with
      | Some (started, _, _) ->
          Hashtbl.replace hb label (started, Unix.gettimeofday (), true)
      | None -> ());
      hb_flush ~force:true ()
    in
    Fun.protect ~finally:(fun () -> if !bus_owned then Obs.Bus.detach ())
    @@ fun () ->
    let persisted =
      match (resume, out_dir) with
      | true, Some dir -> load_resume dir
      | _ -> []
    in
    let failed e t0 msg =
      {
        r_label = e.e_label;
        r_dut = e.e_dut;
        r_status = `Failed msg;
        r_channels = [];
        r_index = [];
        r_raw_cexs = 0;
        r_asserts = 0;
        r_unknowns = 0;
        r_depth = e.e_max_depth;
        r_wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
        r_resumed = false;
      }
    in
    let run_entry e =
      Obs.Bus.with_label e.e_label @@ fun () ->
      Obs.span "explain.campaign.entry" ~attrs:[ ("label", Json.Str e.e_label) ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      hb_start e.e_label;
      Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = e.e_max_depth });
      let fresh () =
        let ft = e.e_ft () in
        let outcomes =
          sweep ?opt ?incremental ?symmetric ?cache
            ~beat:(fun () -> hb_beat e.e_label)
            ~budget ~retry ft ~max_depth:e.e_max_depth
        in
        let cexs =
          List.filter_map
            (fun (_, o) -> match o with Bmc.Cex (c, _) -> Some c | _ -> None)
            outcomes
        in
        let unknowns =
          List.length
            (List.filter
               (fun ((_, o) : string * Bmc.outcome) ->
                 match o with Bmc.Unknown _ -> true | _ -> false)
               outcomes)
        in
        let channels = cluster ft cexs in
        Obs.log
          ~attrs:
            [
              ("label", Json.Str e.e_label);
              ("raw_cexs", Json.Int (List.length cexs));
              ("channels", Json.Int (List.length channels));
              ("unknowns", Json.Int unknowns);
            ]
          Obs.Info "explain.entry_done";
        {
          r_label = e.e_label;
          r_dut = e.e_dut;
          r_status = `Done;
          r_channels = channels;
          r_index =
            List.mapi (fun i ch -> ref_of_channel ~label:e.e_label i ch) channels;
          r_raw_cexs = List.length cexs;
          r_asserts = List.length outcomes;
          r_unknowns = unknowns;
          r_depth = e.e_max_depth;
          r_wall_ms = int_of_float ((Unix.gettimeofday () -. t0) *. 1000.);
          r_resumed = false;
        }
      in
      let r =
        match List.assoc_opt e.e_label persisted with
        | Some p when p.p_dut = e.e_dut && p.p_depth = e.e_max_depth ->
            Obs.log
              ~attrs:[ ("label", Json.Str e.e_label) ]
              Obs.Info "explain.entry_resumed";
            {
              r_label = e.e_label;
              r_dut = e.e_dut;
              r_status = `Done;
              r_channels = [];
              r_index = p.p_refs;
              r_raw_cexs = p.p_raw_cexs;
              r_asserts = p.p_asserts;
              r_unknowns = 0;
              r_depth = p.p_depth;
              r_wall_ms = p.p_wall_ms;
              r_resumed = true;
            }
        | _ -> (
            (* Crash isolation: an exception inside one entry downgrades
               that entry to a persisted failure record; the remaining
               entries still run and the campaign still reports. *)
            try fresh () with
            | Fault.Injected site ->
                Obs.Bus.publish (Obs.Bus.Fault_injected { site });
                failed e t0 ("fault:" ^ site)
            | exn -> failed e t0 (Printexc.to_string exn))
      in
      (if Obs.Bus.enabled () then
         let verdict =
           if r.r_resumed then "resumed"
           else
             match r.r_status with
             | `Failed _ -> "failed"
             | `Done ->
                 if r.r_raw_cexs > 0 then
                   Printf.sprintf "cex:%d" r.r_raw_cexs
                 else if r.r_unknowns > 0 then "unknown"
                 else "proof"
         in
         Obs.Bus.publish
           (Obs.Bus.Job_done
              { verdict; wall_s = Unix.gettimeofday () -. t0 }));
      hb_done e.e_label;
      r
    in
    let artifacts = ref [] in
    let checkpoint results_rev =
      match out_dir with
      | None -> ()
      | Some dir ->
          let t = { c_results = List.rev results_rev; c_artifacts = [] } in
          Json.write_file
            ~path:(Filename.concat dir "campaign.json")
            (json_of_campaign t);
          let oc = open_out (Filename.concat dir "report.html") in
          output_string oc (html_report t);
          close_out oc
    in
    let results_rev =
      List.fold_left
        (fun acc e ->
          (* A pending stop (SIGTERM/SIGINT checkpoint handler) is
             honored at the entry boundary: every finished entry has
             already checkpointed, and skipping the rest leaves a
             campaign.json that [--resume] completes byte-stably. *)
          if should_stop () then acc
          else
          let r = run_entry e in
          (* Flush this entry's channel artifacts, then checkpoint the
             index and report: a kill between entries loses at most the
             entry that was in flight, and [--resume] picks up there. *)
          (match out_dir with
          | Some dir when not r.r_resumed ->
              List.iteri
                (fun i ch ->
                  let path = Filename.concat dir (artifact_name r.r_label i) in
                  Json.write_file ~path
                    (json_of_channel ~label:r.r_label ~dut:r.r_dut ch);
                  artifacts := path :: !artifacts)
                r.r_channels
          | Some dir ->
              List.iter
                (fun cr ->
                  artifacts := Filename.concat dir cr.cr_artifact :: !artifacts)
                r.r_index
          | None -> ());
          let acc = r :: acc in
          checkpoint acc;
          acc)
        [] entries
    in
    let results = List.rev results_rev in
    (* Each [cluster] call set the gauge to its own count; leave the
       campaign total behind, so the end-of-run snapshot reflects the
       whole sweep rather than the last entry. *)
    Obs.Metrics.set (Lazy.force m_clusters)
      (float_of_int
         (List.fold_left (fun n r -> n + List.length r.r_index) 0 results));
    match out_dir with
    | None -> { c_results = results; c_artifacts = [] }
    | Some dir ->
        (* Clean completion: the heartbeat sidecar is live-progress
           state, meaningless once every entry has checkpointed —
           leaving it behind would make the next `autocc top` of this
           directory report a CRASHED owner pid. A campaign that dies
           mid-run keeps its heartbeats, which is exactly the forensic
           breadcrumb `top` needs. *)
        (try Sys.remove (heartbeat_path dir) with Sys_error _ -> ());
        let index = Filename.concat dir "campaign.json" in
        let html = Filename.concat dir "report.html" in
        { c_results = results; c_artifacts = (index :: List.rev !artifacts) @ [ html ] }

  let pp fmt t =
    List.iter
      (fun r ->
        Format.fprintf fmt
          "%s (%s): %s%d assertion%s, %d raw CEX%s, %d unknown%s, %d channel%s, %.3fs%s@."
          r.r_label r.r_dut
          (match r.r_status with `Failed m -> "FAILED (" ^ m ^ "): " | `Done -> "")
          r.r_asserts
          (if r.r_asserts = 1 then "" else "s")
          r.r_raw_cexs
          (if r.r_raw_cexs = 1 then "" else "s")
          r.r_unknowns
          (if r.r_unknowns = 1 then "" else "s")
          (List.length r.r_index)
          (if List.length r.r_index = 1 then "" else "s")
          (float_of_int r.r_wall_ms /. 1000.)
          (if r.r_resumed then " (resumed)" else "");
        if r.r_resumed then
          List.iter
            (fun cr ->
              Format.fprintf fmt "  %-40s depth %d  (%s)@." cr.cr_name
                (cr.cr_min_depth + 1) cr.cr_artifact)
            r.r_index
        else
          List.iter
            (fun ch ->
              Format.fprintf fmt "  %-40s depth %d  via %s@." ch.ch_name
                (ch.ch_min.mn_cex.Bmc.cex_depth + 1)
                (String.concat " -> "
                   (List.map (fun l -> l.link_label) ch.ch_slice.sl_chain)))
            r.r_channels)
      t.c_results
end
