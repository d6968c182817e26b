(* Tests of the CEX provenance engine: backward trace slicing,
   replay-checked witness minimization, fingerprint clustering and the
   campaign driver's JSON/HTML artifacts. *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
module Json = Obs.Json
open Signal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The classic hidden-state channel: [stash] captures input data on
   demand and is never flushed; the output reveals whether a later query
   matches the stashed value. *)
let leaky_dut () =
  let din = input "din" 4 in
  let capture = input "capture" 1 in
  let query = input "query" 4 in
  let stash = reg "stash" 4 in
  reg_set_next stash (mux2 capture din stash);
  Circuit.create ~name:"leaky"
    ~outputs:[ ("hit", query ==: stash) ]
    ()

(* Two independent channels plus a benign free-running counter. *)
let two_leak_dut () =
  let din = input "din" 4 in
  let cap1 = input "cap1" 1 in
  let cap2 = input "cap2" 1 in
  let query = input "query" 4 in
  let stash1 = reg "stash1" 4 in
  let stash2 = reg "stash2" 4 in
  let benign = reg "benign" 4 in
  reg_set_next stash1 (mux2 cap1 din stash1);
  reg_set_next stash2 (mux2 cap2 din stash2);
  reg_set_next benign (benign +: one 4);
  Circuit.create ~name:"twoleak"
    ~outputs:[ ("hit1", query ==: stash1); ("hit2", query ==: stash2) ]
    ()

let find_cex ?(max_depth = 12) dut =
  let ft = Autocc.Ft.generate ~threshold:2 dut in
  match Autocc.Ft.check ~max_depth ft with
  | Bmc.Cex (cex, _) -> (ft, cex)
  | Bmc.Bounded_proof _ -> Alcotest.fail "expected a covert-channel CEX"
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "unexpected unknown (%s)" (Bmc.unknown_reason_to_string r)

let test_slice () =
  let ft, cex = find_cex (leaky_dut ()) in
  let sl = Explain.slice ft cex in
  Alcotest.(check string) "assert" "as__hit_eq" sl.Explain.sl_assert;
  Alcotest.(check (option string)) "output" (Some "hit") sl.Explain.sl_output;
  Alcotest.(check (option string)) "culprit" (Some "stash") sl.Explain.sl_culprit;
  Alcotest.(check bool) "spy start found" true (sl.Explain.sl_spy_start <> None);
  Alcotest.(check int) "depth" cex.Bmc.cex_depth sl.Explain.sl_depth;
  Alcotest.(check int) "one width per cycle" (cex.Bmc.cex_depth + 1)
    (Array.length sl.Explain.sl_widths);
  (* The chain runs origin-first: cycles never decrease, the last hop is
     the observable output, and the stash register is on the path. *)
  let chain = sl.Explain.sl_chain in
  Alcotest.(check bool) "chain nonempty" true (chain <> []);
  let last = List.nth chain (List.length chain - 1) in
  Alcotest.(check bool) "last hop is the output" true
    (last.Explain.link_kind = Explain.Output && last.Explain.link_label = "hit");
  Alcotest.(check int) "output diverges at cex depth" cex.Bmc.cex_depth
    last.Explain.link_cycle;
  Alcotest.(check bool) "stash register on the path" true
    (List.exists
       (fun l -> l.Explain.link_kind = Explain.Reg && l.Explain.link_label = "stash")
       chain);
  ignore
    (List.fold_left
       (fun prev l ->
         if l.Explain.link_cycle < prev then
           Alcotest.fail "chain cycles must be non-decreasing";
         l.Explain.link_cycle)
       0 chain);
  (* Every hop genuinely diverges. *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "hop %s diverges" l.Explain.link_label)
        false
        (Bitvec.equal l.Explain.link_a l.Explain.link_b))
    chain;
  (* The waveform strip covers every chain hop across all cycles. *)
  List.iter
    (fun (_, _, va, vb) ->
      Alcotest.(check int) "strip alpha row length" (cex.Bmc.cex_depth + 1)
        (Array.length va);
      Alcotest.(check int) "strip beta row length" (cex.Bmc.cex_depth + 1)
        (Array.length vb))
    sl.Explain.sl_trace;
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "strip has a row for %s" l.Explain.link_label)
        true
        (List.exists (fun (n, _, _, _) -> n = l.Explain.link_label) sl.Explain.sl_trace))
    chain

let test_minimize () =
  let ft, cex = find_cex (leaky_dut ()) in
  let mn = Explain.minimize ft cex in
  let m = mn.Explain.mn_cex in
  Alcotest.(check bool) "depth never grows" true (m.Bmc.cex_depth <= cex.Bmc.cex_depth);
  Alcotest.(check int) "depth delta consistent"
    (cex.Bmc.cex_depth - m.Bmc.cex_depth)
    mn.Explain.mn_depth_delta;
  Alcotest.(check bool) "performed replay trials" true (mn.Explain.mn_iterations > 0);
  Alcotest.(check bool) "still fails the original assertion" true
    (List.mem "as__hit_eq" m.Bmc.cex_failed);
  (* Replay-verify the minimized witness against the original property,
     restricted to the failing assertion (the witness circuit only
     instruments that one). *)
  let prop = ft.Autocc.Ft.property in
  let prop =
    {
      prop with
      Bmc.asserts =
        List.filter (fun (n, _) -> List.mem n m.Bmc.cex_failed) prop.Bmc.asserts;
    }
  in
  let circuit = Bmc.instrument ft.Autocc.Ft.wrapper prop in
  let failed = Bmc.validate circuit prop m.Bmc.cex_inputs m.Bmc.cex_depth in
  Alcotest.(check bool) "minimized witness replays to the same failure" true
    (List.mem "as__hit_eq" failed);
  (* Bit accounting: zeroed_bits is exactly the set-bit count the
     minimizer removed from the kept cycles. *)
  let popcount inputs =
    Array.fold_left
      (fun acc assignments ->
        List.fold_left
          (fun acc (_, v) ->
            let n = ref 0 in
            for i = 0 to Bitvec.width v - 1 do
              if Bitvec.bit v i then incr n
            done;
            acc + !n)
          acc assignments)
      0 inputs
  in
  let kept = Array.sub cex.Bmc.cex_inputs 0 (m.Bmc.cex_depth + 1) in
  Alcotest.(check int) "zeroed bit accounting"
    (popcount kept - popcount m.Bmc.cex_inputs)
    mn.Explain.mn_zeroed_bits

(* The FT property restricted to the named assertions, as a CEX's
   circuit instruments only the ones it violates. *)
let restrict ft names =
  let prop = ft.Autocc.Ft.property in
  {
    prop with
    Bmc.asserts = List.filter (fun (n, _) -> List.mem n names) prop.Bmc.asserts;
  }

(* The reference greedy minimizer: the same trials in the same order as
   [Explain.minimize], each one a full [Bmc.validate] from reset on a
   fresh simulator. Returns (depth, inputs, failed, zeroed bits,
   iterations), or [None] if the witness does not replay. *)
let reference_minimize ft cex =
  let targets = cex.Bmc.cex_failed in
  let prop = restrict ft targets in
  let iterations = ref 0 in
  let ok inputs depth =
    incr iterations;
    match Bmc.validate cex.Bmc.cex_circuit prop inputs depth with
    | failed ->
        if List.exists (fun n -> List.mem n targets) failed then Some failed
        else None
    | exception Bmc.Replay_mismatch _ -> None
  in
  match ok cex.Bmc.cex_inputs cex.Bmc.cex_depth with
  | None -> None
  | Some _ ->
      let depth = ref cex.Bmc.cex_depth
      and inputs = ref cex.Bmc.cex_inputs
      and failed = ref targets in
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
      let current = Array.copy !inputs in
      let zeroed = ref 0 in
      (* Accept [v] for input [name] at cycle [c] if the trial passes. *)
      let try_value c name v ~bits =
        let trial = Array.copy current in
        trial.(c) <-
          List.map (fun (n, v') -> if n = name then (n, v) else (n, v')) trial.(c);
        match ok trial !depth with
        | Some f ->
            current.(c) <- trial.(c);
            failed := f;
            zeroed := !zeroed + bits;
            true
        | None -> false
      in
      Array.iteri
        (fun c assignments ->
          List.iter
            (fun (name, v) ->
              let w = Bitvec.width v in
              let ones = List.length (List.filter Fun.id (Array.to_list (Bitvec.to_bits v))) in
              if ones > 0 && not (try_value c name (Bitvec.zero w) ~bits:ones) then
                for i = 0 to w - 1 do
                  let v' = List.assoc name current.(c) in
                  if Bitvec.bit v' i then
                    let cleared =
                      Bitvec.logand v' (Bitvec.lognot (Bitvec.shift_left (Bitvec.one w) i))
                    in
                    ignore (try_value c name cleared ~bits:1)
                done)
            assignments)
        current;
      Some (!depth, current, !failed, !zeroed, !iterations)

let rec leaky_ft st tries =
  let ft =
    Autocc.Ft.generate ~threshold:2
      (Gen_circuit.random_circuit st ~num_nodes:60 ~num_regs:6)
  in
  (* The conflict budget skips the rare DUT whose multipliers make the
     search slow. *)
  match
    Autocc.Ft.check ~max_depth:8 ~budget:(Bmc.budget ~conflicts:1000 ()) ft
  with
  | Bmc.Cex (cex, _) -> Some (ft, cex)
  | _ when tries > 1 -> leaky_ft st (tries - 1)
  | _ -> None

(* [Explain.minimize] replays each trial from a snapshot of the accepted
   trace; it must agree with the reference on every result field. A
   random leaky DUT's FT CEX is minimized as found, and again with 1–3
   random cycles appended: at the deepest appended cycle that still
   fails (a depth the minimizer must truncate), or else at the original
   depth (trials past the failing cycle). *)
let minimize_matches_reference (seed : int) =
  let st = Random.State.make [| seed |] in
  (* Most random DUTs have no channel; draw until one leaks. *)
  match leaky_ft st 30 with
  | None -> true
  | Some (ft, cex) ->
      let agree cex =
        let mine =
          match Explain.minimize ft cex with
          | mn ->
              let m = mn.Explain.mn_cex in
              Some
                ( m.Bmc.cex_depth,
                  m.Bmc.cex_inputs,
                  m.Bmc.cex_failed,
                  mn.Explain.mn_zeroed_bits,
                  mn.Explain.mn_iterations )
          | exception Bmc.Replay_mismatch _ -> None
        in
        mine = reference_minimize ft cex
      in
      let extra =
        Array.init
          (1 + Random.State.int st 3)
          (fun _ ->
            (* Both universes see the same DUT inputs, as the spy-mode
               assumptions require. *)
            let dut_inputs = Gen_circuit.random_inputs st in
            List.map
              (fun p ->
                let n = p.Circuit.port_name and w = Signal.width p.Circuit.signal in
                let base =
                  if String.length n > 2 && (n.[0] = 'a' || n.[0] = 'b') && n.[1] = '_'
                  then String.sub n 2 (String.length n - 2)
                  else n
                in
                match List.assoc_opt base dut_inputs with
                | Some v when Bitvec.width v = w -> (n, v)
                | _ -> (n, Bitvec.random st w))
              (Circuit.inputs cex.Bmc.cex_circuit))
      in
      let inputs = Array.append cex.Bmc.cex_inputs extra in
      let fails d =
        match
          Bmc.validate cex.Bmc.cex_circuit (restrict ft cex.Bmc.cex_failed) inputs d
        with
        | _ -> true
        | exception Bmc.Replay_mismatch _ -> false
      in
      let deeper =
        List.find_opt fails
          (List.init (Array.length extra) (fun i -> Array.length inputs - 1 - i))
      in
      let longer =
        {
          cex with
          Bmc.cex_inputs = inputs;
          cex_depth = Option.value ~default:cex.Bmc.cex_depth deeper;
        }
      in
      agree cex && agree longer

let prop_minimize_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"minimize == full-replay reference"
       QCheck.(make Gen.(int_bound 1_000_000))
       minimize_matches_reference)

let test_cluster () =
  let dut = two_leak_dut () in
  let ft = Autocc.Ft.generate ~threshold:2 dut in
  let cexs =
    Bmc.check_each ~max_depth:12 ft.Autocc.Ft.wrapper ft.Autocc.Ft.property
    |> List.filter_map (function
         | _, Bmc.Cex (cex, _) -> Some cex
         | _, Bmc.Bounded_proof _ -> None
         | _, Bmc.Unknown _ -> None)
  in
  Alcotest.(check int) "one raw CEX per leaking output" 2 (List.length cexs);
  let channels = Explain.cluster ft cexs in
  Alcotest.(check int) "two distinct channels" 2 (List.length channels);
  let culprits =
    List.filter_map (fun ch -> ch.Explain.ch_culprit) channels |> List.sort compare
  in
  Alcotest.(check (list string)) "culprits" [ "stash1"; "stash2" ] culprits;
  List.iter
    (fun ch ->
      Alcotest.(check int) "one raw CEX per channel" 1 ch.Explain.ch_raw_cexs;
      Alcotest.(check bool) "fingerprint names the culprit" true
        (match ch.Explain.ch_culprit with
        | Some c -> contains ch.Explain.ch_fingerprint c
        | None -> false))
    channels;
  let fps = List.map (fun ch -> ch.Explain.ch_fingerprint) channels in
  Alcotest.(check bool) "fingerprints distinct" true
    (List.length (List.sort_uniq compare fps) = 2)

let test_cluster_dedupes () =
  (* Two CEXs for the SAME channel — e.g. the shallowest one and itself —
     must collapse into one cluster with raw_cexs = 2. *)
  let ft, cex = find_cex (leaky_dut ()) in
  let channels = Explain.cluster ft [ cex; cex ] in
  Alcotest.(check int) "one channel" 1 (List.length channels);
  let ch = List.hd channels in
  Alcotest.(check int) "two raw CEXs merged" 2 ch.Explain.ch_raw_cexs;
  Alcotest.(check (option string)) "culprit" (Some "stash") ch.Explain.ch_culprit

(* One depth convention: every explanation output of the bundled leaky
   DUT's run ([analyze --dut leaky --max-depth 8]) names its CEX by the
   0-based cycle index 4, as [Bmc.pp_cex] and the channel JSON do; only
   the trace length reads "5 cycles". *)
let test_leaky_depths () =
  let ft = Duts.Bundled.ft_for "leaky" (Duts.Bundled.build "leaky") in
  let cex =
    match Autocc.Ft.check ~max_depth:8 ft with
    | Bmc.Cex (cex, _) -> cex
    | _ -> Alcotest.fail "expected the leaky channel"
  in
  Alcotest.(check int) "cex depth" 4 cex.Bmc.cex_depth;
  let has what text needle =
    if not (contains text needle) then
      Alcotest.failf "%s lacks %S:\n%s" what needle text
  in
  let report = Format.asprintf "%a" (fun fmt () -> Autocc.Report.explain fmt ft cex) () in
  has "explanation" report "Depth: 4 (5 cycles)";
  has "explanation" report "CEX at depth 4,";
  has "slice" (Format.asprintf "%a" Explain.pp_slice (Explain.slice ft cex))
    "slice of as__hit_eq (depth 4,";
  let t =
    Explain.Campaign.run ~opt:Opt.O2
      [
        {
          Explain.Campaign.e_label = "leaky";
          e_dut = "leaky";
          e_ft = (fun () -> ft);
          e_max_depth = 8;
        };
      ]
  in
  let ch =
    match t.Explain.Campaign.c_results with
    | [ { Explain.Campaign.r_channels = [ ch ]; _ } ] -> ch
    | _ -> Alcotest.fail "expected one channel"
  in
  Alcotest.(check int) "minimized depth" 4 ch.Explain.ch_min.Explain.mn_cex.Bmc.cex_depth;
  has "campaign summary" (Format.asprintf "%a" Explain.Campaign.pp t) " depth 4  via ";
  has "HTML report" (Explain.Campaign.html_report t) "minimized depth 4 (";
  match
    Json.member "witness"
      (Explain.Campaign.json_of_channel ~label:"leaky" ~dut:"leaky" ch)
  with
  | Some w -> Alcotest.(check (option int)) "channel JSON depth" (Some 4) (Json.int "depth" w)
  | None -> Alcotest.fail "channel JSON lacks its witness"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_campaign () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocc_test_campaign_%d" (Unix.getpid ()))
  in
  rm_rf out_dir;
  let entries =
    [
      {
        Explain.Campaign.e_label = "leaky";
        e_dut = "leaky";
        e_ft = (fun () -> Autocc.Ft.generate ~threshold:2 (leaky_dut ()));
        e_max_depth = 8;
      };
    ]
  in
  let result = Explain.Campaign.run ~opt:Opt.O2 ~out_dir entries in
  let r = List.hd result.Explain.Campaign.c_results in
  Alcotest.(check int) "one channel" 1 (List.length r.Explain.Campaign.r_channels);
  Alcotest.(check bool) "raw pool at least as big" true
    (r.Explain.Campaign.r_raw_cexs >= 1);
  (* Artifacts: campaign.json first, then the per-channel JSON, then the
     HTML report; all parse / look well-formed. *)
  (match result.Explain.Campaign.c_artifacts with
  | index :: _ ->
      Alcotest.(check string) "index first" "campaign.json" (Filename.basename index)
  | [] -> Alcotest.fail "no artifacts written");
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let parse path =
    match Json.parse (read path) with
    | Ok j -> j
    | Error e -> Alcotest.fail (Printf.sprintf "%s does not parse: %s" path e)
  in
  let schema j =
    match Json.member "schema" j with Some (Json.Str s) -> s | _ -> "?"
  in
  let index = parse (Filename.concat out_dir "campaign.json") in
  Alcotest.(check string) "index schema" "autocc.campaign/2" (schema index);
  let channel_file =
    match Json.member "entries" index with
    | Some (Json.List [ entry ]) -> (
        match Json.member "channels" entry with
        | Some (Json.List [ ch ]) -> (
            match Json.member "artifact" ch with
            | Some (Json.Str a) -> a
            | _ -> Alcotest.fail "channel lacks an artifact reference")
        | _ -> Alcotest.fail "index entry lacks its channel")
    | _ -> Alcotest.fail "index lacks its entry"
  in
  let ch = parse (Filename.concat out_dir channel_file) in
  Alcotest.(check string) "channel schema" "autocc.channel/1" (schema ch);
  (match Json.member "provenance" ch with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "channel artifact lacks a provenance chain");
  let html = read (Filename.concat out_dir "report.html") in
  Alcotest.(check bool) "html doctype" true
    (String.length html > 15 && String.sub html 0 15 = "<!doctype html>");
  Alcotest.(check bool) "html closed" true (contains html "</html>");
  Alcotest.(check bool) "html names the channel" true (contains html "stash");
  rm_rf out_dir

let () =
  Alcotest.run "explain"
    [
      ( "slice",
        [ Alcotest.test_case "leaky provenance chain" `Quick test_slice ] );
      ( "minimize",
        [
          Alcotest.test_case "replay-checked reduction" `Quick test_minimize;
          prop_minimize_reference;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "two channels separated" `Quick test_cluster;
          Alcotest.test_case "same channel deduplicated" `Quick test_cluster_dedupes;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "artifacts" `Quick test_campaign;
          Alcotest.test_case "leaky depths are cycle indices" `Quick test_leaky_depths;
        ] );
    ]
