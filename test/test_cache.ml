(* The content-addressed verdict cache: canonical structural hashing
   (invariance under alpha-renaming and node-reordering, sensitivity to
   any semantic edit), the on-disk JSONL entry codec (round trip,
   corruption rejection), and the soundness bar at the BMC layer — a
   cache hit, even from a deliberately corrupted store, may never flip
   a verdict a fresh run would produce. *)

module Signal = Rtl.Signal
module Circuit = Rtl.Circuit
module J = Obs.Json

let digest_of ~assumes ~asserts = (Cache.canon ~assumes ~asserts).Cache.c_digest

(* {1 Structural hash: invariance} *)

(* Alpha-renaming via a full clone: every input and register renamed,
   every node re-allocated (fresh uids), structure untouched. The
   instrumented circuit carries the property as output ports, so the
   clone's property roots come back through the port list, positionally. *)
let canon_of_instrumented instrumented =
  let assumes, asserts =
    List.partition_map
      (fun p ->
        if String.starts_with ~prefix:"__bmc_assume_" p.Circuit.port_name then
          Either.Left p.Circuit.signal
        else Either.Right p.Circuit.signal)
      (List.filter
         (fun p -> String.starts_with ~prefix:"__bmc_" p.Circuit.port_name)
         (Circuit.outputs instrumented))
  in
  Cache.canon ~assumes ~asserts

let renamed_canon instrumented =
  let outs, _ =
    Rtl.Transform.clone_outputs instrumented
      ~map_input:(fun ~name ~width -> Signal.input ("zz_" ^ name) width)
      ~map_reg_name:(fun n -> "zz." ^ n)
  in
  let tagged prefix =
    List.filter_map
      (fun (n, s) ->
        if String.starts_with ~prefix n then Some s else None)
      outs
  in
  Cache.canon ~assumes:(tagged "__bmc_assume_") ~asserts:(tagged "__bmc_assert_")

let test_alpha_renaming_invariance () =
  for seed = 1 to 12 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:30 ~num_regs:4 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:3 in
    let instrumented = Bmc.instrument circuit property in
    let c = canon_of_instrumented instrumented in
    let c' = renamed_canon instrumented in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: digest survives alpha-renaming" seed)
      c.Cache.c_digest c'.Cache.c_digest;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: canonical input count" seed)
      (Array.length c.Cache.c_inputs)
      (Array.length c'.Cache.c_inputs);
    Array.iteri
      (fun i s ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: input %d width" seed i)
          (Signal.width s)
          (Signal.width c'.Cache.c_inputs.(i)))
      c.Cache.c_inputs
  done

let test_reordering_invariance () =
  (* The same DAG built in two different creation orders: uids and
     global node ordering differ, the structure reachable from the
     roots does not. *)
  let build first_and =
    let a = Signal.input "a" 4 and b = Signal.input "b" 4 in
    let conj, sum =
      if first_and then
        let c = Signal.( &: ) a b in
        (c, Signal.( +: ) a b)
      else
        let s = Signal.( +: ) a b in
        (Signal.( &: ) a b, s)
    in
    let r = Signal.reg "r" 4 in
    Signal.reg_set_next r sum;
    Signal.( ==: ) conj r
  in
  Alcotest.(check string) "digest ignores creation order"
    (digest_of ~assumes:[] ~asserts:[ build true ])
    (digest_of ~assumes:[] ~asserts:[ build false ])

(* {1 Structural hash: sensitivity} *)

let mini ~gate ~reg_width ~const =
  let a = Signal.input "a" 4 and b = Signal.input "b" 4 in
  let g = if gate then Signal.( &: ) a b else Signal.( |: ) a b in
  let r = Signal.reg "r" reg_width in
  Signal.reg_set_next r (Signal.uresize g reg_width);
  Signal.( ==: ) (Signal.uresize r 4) (Signal.of_int ~width:4 const)

let test_sensitivity () =
  let base = digest_of ~assumes:[] ~asserts:[ mini ~gate:true ~reg_width:4 ~const:3 ] in
  Alcotest.(check bool) "flipped gate changes the digest" true
    (base <> digest_of ~assumes:[] ~asserts:[ mini ~gate:false ~reg_width:4 ~const:3 ]);
  Alcotest.(check bool) "widened register changes the digest" true
    (base <> digest_of ~assumes:[] ~asserts:[ mini ~gate:true ~reg_width:5 ~const:3 ]);
  Alcotest.(check bool) "changed constant changes the digest" true
    (base <> digest_of ~assumes:[] ~asserts:[ mini ~gate:true ~reg_width:4 ~const:4 ]);
  Alcotest.(check bool) "promoting an assert to an assume changes the digest"
    true
    (let p = mini ~gate:true ~reg_width:4 ~const:3 in
     digest_of ~assumes:[ p ] ~asserts:[] <> digest_of ~assumes:[] ~asserts:[ p ])

let test_config_in_key () =
  let c = Cache.canon ~assumes:[] ~asserts:[ mini ~gate:true ~reg_width:4 ~const:3 ] in
  Alcotest.(check bool) "same canon, same config, same key" true
    (Cache.key c ~config:"depth=8;opt=2" = Cache.key c ~config:"depth=8;opt=2");
  Alcotest.(check bool) "depth bound separates keys" true
    (Cache.key c ~config:"depth=8;opt=2" <> Cache.key c ~config:"depth=9;opt=2");
  Alcotest.(check bool) "opt level separates keys" true
    (Cache.key c ~config:"depth=8;opt=2" <> Cache.key c ~config:"depth=8;opt=0")

(* {1 On-disk entry codec} *)

let fresh_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocc_test_cache_%s_%d" tag (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let sample_cex st =
  {
    Cache.v_depth = 2;
    v_inputs =
      [|
        [ (0, Bitvec.random st 4); (3, Bitvec.random st 70) ];
        [];
        [ (1, Bitvec.random st 1) ];
      |];
    v_failed = [ 0; 2 ];
  }

let verdict_equal a b =
  match (a, b) with
  | Cache.Bounded d1, Cache.Bounded d2 | Cache.Proved d1, Cache.Proved d2 ->
      d1 = d2
  | Cache.Cex c1, Cache.Cex c2 ->
      c1.Cache.v_depth = c2.Cache.v_depth
      && c1.Cache.v_failed = c2.Cache.v_failed
      && Array.length c1.Cache.v_inputs = Array.length c2.Cache.v_inputs
      && Array.for_all2
           (fun l1 l2 ->
             List.length l1 = List.length l2
             && List.for_all2
                  (fun (o1, v1) (o2, v2) -> o1 = o2 && Bitvec.equal v1 v2)
                  l1 l2)
           c1.Cache.v_inputs c2.Cache.v_inputs
  | _ -> false

let test_codec_round_trip () =
  let st = Random.State.make [| 42 |] in
  let dir = fresh_dir "codec" in
  let cex = sample_cex st in
  let t = Cache.create ~dir () in
  Cache.add t "k_bounded" (Cache.Bounded 7);
  Cache.add t "k_proved" (Cache.Proved 3);
  Cache.add t "k_cex" (Cache.Cex cex);
  (* A brand-new instance must reload every entry through the JSONL
     codec, byte-exact down to wide bitvec payloads. *)
  let t' = Cache.create ~dir () in
  let found k =
    match Cache.find t' k with
    | Some v -> v
    | None -> Alcotest.failf "%s did not survive the disk round trip" k
  in
  Alcotest.(check bool) "bounded" true (verdict_equal (Cache.Bounded 7) (found "k_bounded"));
  Alcotest.(check bool) "proved" true (verdict_equal (Cache.Proved 3) (found "k_proved"));
  Alcotest.(check bool) "cex" true (verdict_equal (Cache.Cex cex) (found "k_cex"));
  Alcotest.(check int) "no load-time rejects" 0 (Cache.stats t').Cache.rejects

(* A serve worker opens the store once per job: closing it must release
   the descriptor and keep later stores off the disk, answered from
   memory. *)
let test_close_releases_store () =
  let dir = fresh_dir "close" in
  let fds () =
    if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd")
    else 0
  in
  let before = fds () in
  let t = Cache.create ~dir () in
  Cache.add t "k_kept" (Cache.Bounded 4);
  Cache.close t;
  Alcotest.(check int) "descriptor released" before (fds ());
  Cache.add t "k_memory" (Cache.Proved 2);
  Alcotest.(check bool) "still answered after close" true
    (Cache.find t "k_memory" <> None);
  let t' = Cache.create ~dir () in
  Alcotest.(check bool) "stored before close" true (Cache.find t' "k_kept" <> None);
  Alcotest.(check bool) "not stored after close" true (Cache.find t' "k_memory" = None);
  Cache.close t'

let test_codec_rejects_corruption () =
  let st = Random.State.make [| 43 |] in
  let dir = fresh_dir "corrupt" in
  let t = Cache.create ~dir () in
  Cache.add t "k_keep" (Cache.Bounded 9);
  Cache.add t "k_torn" (Cache.Cex (sample_cex st));
  Cache.add t "k_tampered" (Cache.Proved 5);
  let path = Filename.concat dir "verdicts.jsonl" in
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let corrupt line =
    match List.assoc "k" (match J.parse line with Ok (J.Obj o) -> o | _ -> []) with
    | J.Str "k_torn" ->
        (* Torn write: half the line. *)
        String.sub line 0 (String.length line / 2)
    | J.Str "k_tampered" -> (
        (* Payload flipped without refreshing the integrity digest. *)
        match J.parse line with
        | Ok (J.Obj fields) ->
            J.to_string
              (J.Obj
                 (List.map
                    (function
                      | "v", _ ->
                          ("v", J.Obj [ ("v", J.Str "proved"); ("depth", J.Int 6) ])
                      | f -> f)
                    fields))
        | _ -> Alcotest.fail "stored line does not parse")
    | _ -> line
  in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc (corrupt l);
      output_char oc '\n')
    lines;
  close_out oc;
  let t' = Cache.create ~dir () in
  Alcotest.(check bool) "intact entry survives" true
    (Cache.find t' "k_keep" <> None);
  Alcotest.(check bool) "torn line rejected" true (Cache.find t' "k_torn" = None);
  Alcotest.(check bool) "digest-mismatched line rejected" true
    (Cache.find t' "k_tampered" = None);
  Alcotest.(check bool) "rejects counted" true ((Cache.stats t').Cache.rejects >= 2)

(* {1 Provenance: rides the line outside the integrity digest} *)

let test_provenance_roundtrip () =
  let dir = fresh_dir "prov" in
  let t = Cache.create ~dir () in
  let prov =
    {
      Cache.p_run = "r00000000001-00042";
      p_engine = "check";
      p_config = "check|d=8|o=2|i=true|s=default|b=-";
      p_key = "kp";
      p_ts = 1234.5;
    }
  in
  Cache.add ~prov t "kp" (Cache.Bounded 8);
  Cache.add t "kq" (Cache.Proved 4);
  let t' = Cache.create ~dir () in
  (match Cache.peek t' "kp" with
  | Some (Cache.Bounded 8, Some p) ->
      Alcotest.(check string) "run id" "r00000000001-00042" p.Cache.p_run;
      Alcotest.(check string) "engine" "check" p.Cache.p_engine;
      Alcotest.(check string) "config" prov.Cache.p_config p.Cache.p_config;
      Alcotest.(check string) "key" "kp" p.Cache.p_key;
      Alcotest.(check (float 1e-6)) "store time" 1234.5 p.Cache.p_ts
  | Some (_, None) -> Alcotest.fail "provenance lost on the disk round trip"
  | _ -> Alcotest.fail "kp missing after reload");
  (match Cache.peek t' "kq" with
  | Some (_, None) -> ()
  | Some (_, Some _) -> Alcotest.fail "phantom provenance on a bare store"
  | None -> Alcotest.fail "kq missing after reload");
  (* peek is an audit lookup: the hit/miss counters stay untouched. *)
  let st = Cache.stats t' in
  Alcotest.(check int) "peek counts no hits" 0 st.Cache.hits;
  Alcotest.(check int) "peek counts no misses" 0 st.Cache.misses

let test_provenance_outside_digest () =
  (* Stripping the "p" member from a stored line must leave the entry
     loadable with [None] provenance and zero rejects — the integrity
     digest covers the verdict payload only, so pre-provenance stores
     (and hand-edited ledgers) keep working. *)
  let dir = fresh_dir "provstrip" in
  let t = Cache.create ~dir () in
  Cache.add
    ~prov:
      {
        Cache.p_run = "r1";
        p_engine = "prove";
        p_config = "c";
        p_key = "k_strip";
        p_ts = 1.;
      }
    t "k_strip" (Cache.Proved 3);
  let path = Filename.concat dir "verdicts.jsonl" in
  let line =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  let stripped =
    match J.parse line with
    | Ok (J.Obj fields) ->
        J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "p") fields))
    | _ -> Alcotest.fail "stored line does not parse"
  in
  let oc = open_out path in
  output_string oc (stripped ^ "\n");
  close_out oc;
  let t' = Cache.create ~dir () in
  Alcotest.(check int) "no rejects" 0 (Cache.stats t').Cache.rejects;
  match Cache.peek t' "k_strip" with
  | Some (Cache.Proved 3, None) -> ()
  | Some (_, Some _) -> Alcotest.fail "provenance survived stripping?"
  | _ -> Alcotest.fail "stripped line no longer loads"

(* {1 BMC layer: cold/warm differential and corrupted-store soundness} *)

let stash_circuit () =
  let open Signal in
  let din = input "din" 4 in
  let capture = input "capture" 1 in
  let stash = reg "stash" 4 in
  reg_set_next stash (mux2 capture din stash);
  let circuit = Circuit.create ~name:"stash" ~outputs:[ ("stash", stash) ] () in
  (circuit, { Bmc.assumes = []; asserts = [ ("stays0", ~:(stash >: zero 4)) ] })

let outcome_fingerprint = function
  | Bmc.Cex (c, _) ->
      Printf.sprintf "cex@%d:%s" c.Bmc.cex_depth
        (String.concat ","
           (Array.to_list c.Bmc.cex_inputs
           |> List.concat_map
                (List.map (fun (n, v) -> n ^ "=" ^ Bitvec.to_hex_string v))))
  | Bmc.Bounded_proof s -> Printf.sprintf "proof@%d" s.Bmc.depth_reached
  | Bmc.Unknown (r, _) -> "unknown:" ^ Bmc.unknown_reason_to_string r

let test_cold_warm_identical () =
  let circuit, property = stash_circuit () in
  let reference = Bmc.check ~max_depth:6 circuit property in
  let dir = fresh_dir "coldwarm" in
  let cold_cache = Cache.create ~dir () in
  let cold = Bmc.check ~max_depth:6 ~cache:cold_cache circuit property in
  let warm_cache = Cache.create ~dir () in
  let warm = Bmc.check ~max_depth:6 ~cache:warm_cache circuit property in
  Alcotest.(check string) "cold run matches the cache-free reference"
    (outcome_fingerprint reference) (outcome_fingerprint cold);
  Alcotest.(check string) "warm run is byte-identical to cold"
    (outcome_fingerprint cold) (outcome_fingerprint warm);
  Alcotest.(check int) "warm run hit" 1 (Cache.stats warm_cache).Cache.hits;
  Alcotest.(check int) "warm run stored nothing" 0
    (Cache.stats warm_cache).Cache.stores

let test_corrupted_store_never_flips () =
  (* The adversarial case the integrity digest cannot catch: a
     consistent corruption (payload and digest rewritten together).
     The CEX replay re-validation at the BMC layer must reject the
     poisoned witness, evict it, and recompute the true verdict. *)
  let circuit, property = stash_circuit () in
  let dir = fresh_dir "poison" in
  let cold_cache = Cache.create ~dir () in
  let reference = Bmc.check ~max_depth:6 ~cache:cold_cache circuit property in
  let path = Filename.concat dir "verdicts.jsonl" in
  let line = input_line (open_in path) in
  let poisoned =
    match J.parse line with
    | Ok (J.Obj fields) ->
        let v =
          match List.assoc "v" fields with
          | J.Obj vf ->
              (* Zero every recorded input assignment: the replayed
                 trace no longer fails the assertion. *)
              J.Obj
                (List.map
                   (function
                     | "inputs", J.List cycles ->
                         ("inputs", J.List (List.map (fun _ -> J.Obj []) cycles))
                     | f -> f)
                   vf)
          | _ -> Alcotest.fail "stored entry has no payload object"
        in
        J.to_string
          (J.Obj
             (List.map
                (function
                  | "v", _ -> ("v", v)
                  | "d", _ ->
                      ( "d",
                        J.Str
                          (Digest.to_hex (Digest.string (J.to_string v))) )
                  | f -> f)
                fields))
    | _ -> Alcotest.fail "stored line does not parse"
  in
  let oc = open_out path in
  output_string oc poisoned;
  output_char oc '\n';
  close_out oc;
  let warm_cache = Cache.create ~dir () in
  let warm = Bmc.check ~max_depth:6 ~cache:warm_cache circuit property in
  Alcotest.(check string) "poisoned hit did not flip the verdict"
    (outcome_fingerprint reference) (outcome_fingerprint warm);
  Alcotest.(check bool) "the poisoned entry was evicted" true
    ((Cache.stats warm_cache).Cache.rejects >= 1)

let test_fuzz_cold_warm () =
  (* Random circuits: a warm re-run from disk must reproduce the cold
     verdict (kind, depth, replay-valid trace — rehydrated CEXs zero
     cone-external don't-care inputs, so input bytes may differ). *)
  let agree property o1 o2 =
    let replays c =
      []
      <> Bmc.validate c.Bmc.cex_circuit property c.Bmc.cex_inputs
           c.Bmc.cex_depth
    in
    match (o1, o2) with
    | Bmc.Bounded_proof s1, Bmc.Bounded_proof s2 ->
        s1.Bmc.depth_reached = s2.Bmc.depth_reached
    | Bmc.Cex (c1, _), Bmc.Cex (c2, _) ->
        c1.Bmc.cex_depth = c2.Bmc.cex_depth && replays c1 && replays c2
    | Bmc.Unknown _, Bmc.Unknown _ -> true
    | _ -> false
  in
  for seed = 51 to 58 do
    let st = Random.State.make [| seed |] in
    let circuit = Gen_circuit.random_circuit st ~num_nodes:25 ~num_regs:3 in
    let property = Gen_circuit.random_property st circuit ~num_asserts:2 in
    let dir = fresh_dir (Printf.sprintf "fuzz%d" seed) in
    let cold_cache = Cache.create ~dir () in
    let cold = Bmc.check ~max_depth:5 ~cache:cold_cache circuit property in
    let warm_cache = Cache.create ~dir () in
    let warm = Bmc.check ~max_depth:5 ~cache:warm_cache circuit property in
    if not (agree property cold warm) then
      Alcotest.failf "seed %d: warm %s disagrees with cold %s" seed
        (outcome_fingerprint warm) (outcome_fingerprint cold);
    match cold with
    | Bmc.Unknown _ ->
        Alcotest.(check int)
          (Printf.sprintf "seed %d: unknown is never cached" seed)
          0 (Cache.stats cold_cache).Cache.stores
    | _ ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: warm run hit" seed)
          true ((Cache.stats warm_cache).Cache.hits > 0)
  done

let () =
  Alcotest.run "cache"
    [
      ( "structural hash",
        [
          Alcotest.test_case "alpha-renaming invariance" `Quick
            test_alpha_renaming_invariance;
          Alcotest.test_case "node-reordering invariance" `Quick
            test_reordering_invariance;
          Alcotest.test_case "semantic-edit sensitivity" `Quick test_sensitivity;
          Alcotest.test_case "config fingerprint in key" `Quick test_config_in_key;
        ] );
      ( "disk codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "close releases the store" `Quick
            test_close_releases_store;
          Alcotest.test_case "corruption rejection" `Quick
            test_codec_rejects_corruption;
          Alcotest.test_case "provenance round trip and peek" `Quick
            test_provenance_roundtrip;
          Alcotest.test_case "provenance outside the digest" `Quick
            test_provenance_outside_digest;
        ] );
      ( "bmc layer",
        [
          Alcotest.test_case "cold/warm identical" `Quick test_cold_warm_identical;
          Alcotest.test_case "corrupted store never flips" `Quick
            test_corrupted_store_never_flips;
          Alcotest.test_case "fuzz: cold/warm over random circuits" `Quick
            test_fuzz_cold_warm;
        ] );
    ]
