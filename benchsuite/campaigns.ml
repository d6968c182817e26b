(* campaign_cold and campaign_warm: [Explain.Campaign.run], the call
   [autocc campaign] makes, over the bundled DUTs. A pass is one campaign
   run over the entry list ({!Measure.pass_order}), into a fresh output
   directory and a fresh verdict store. *)

open Measure
module Camp = Explain.Campaign

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc s)

let verify_entry acc ctx (e : Jobs.entry) (r : Camp.entry_result) =
  acc.attempted <- acc.attempted + 1;
  match r.Camp.r_status with
  | `Failed msg ->
      acc.failed <- acc.failed + 1;
      prerr_endline ("campaign entry " ^ e.Jobs.label ^ " failed: " ^ msg)
  | `Done when r.Camp.r_unknowns > 0 -> acc.failed <- acc.failed + 1
  | `Done ->
      (* Every raw counterexample falls in exactly one channel. *)
      let a, c = e.Jobs.counts in
      let a' = r.Camp.r_asserts and c' = r.Camp.r_raw_cexs in
      let ch = List.length r.Camp.r_index in
      if ctx.force_mismatch || a <> a' || c <> c' || ch < min 1 c || ch > c then
        acc.mismatches <-
          Printf.sprintf
            "%s: expected %d assertions and %d raw CEXs in 1..%d channels; got \
             %d, %d, %d"
            e.Jobs.label a c c a' c' ch
          :: acc.mismatches

let verify_all acc ctx order results =
  List.iter
    (fun (e : Jobs.entry) ->
      match List.find_opt (fun r -> r.Camp.r_label = e.Jobs.label) results with
      | Some r -> verify_entry acc ctx e r
      | None ->
          acc.attempted <- acc.attempted + 1;
          acc.failed <- acc.failed + 1)
    order

(* [autocc campaign]'s call: [Campaign.run] at [-O2] with a verdict store
   in [cache_dir]. [mark] sees each entry's label as its FT is generated. *)
let campaign ?(mark = ignore) ~cache_dir ~out_dir entries =
  let cache = Cache.create ~dir:cache_dir () in
  Camp.run ~opt:Opt.O2 ~cache ~out_dir
    (List.map
       (fun (e : Jobs.entry) ->
         {
           Camp.e_label = e.Jobs.label;
           e_dut = e.Jobs.e_dut;
           e_max_depth = e.Jobs.e_depth;
           e_ft =
             (fun () ->
               mark e.Jobs.label;
               e.Jobs.e_ft ());
         })
       entries)

(* The product path. Each entry's latency runs from its FT generation to
   the next entry's (the last one's to the end of the run), so it covers
   the entry's sweep, explanation and checkpoint writes; the store load
   and campaign set-up before the first entry are the pass's start
   segment. *)
let run_product acc ctx ~cache_dir ~out_dir order mode =
  let marks = ref [] in
  let mark label = marks := (label, now ()) :: !marks in
  let go () = campaign ~mark ~cache_dir ~out_dir order in
  let result, secs =
    timed (fun () ->
        match mode with Telemetry -> with_program_telemetry ctx go | _ -> go ())
  in
  let t_end = now () in
  if mode = Telemetry then clear_program_telemetry ctx;
  let starts = List.rev !marks in
  let ends = List.map snd (List.tl starts) @ [ t_end ] in
  let lats = List.map2 (fun (label, s) e -> (label, e -. s)) starts ends in
  let start = snd (List.hd starts) -. (t_end -. secs) in
  verify_all acc ctx order result.Camp.c_results;
  (secs, lats, start)

let cex_of = function Bmc.Cex (c, _) -> Some c | _ -> None

let stats_of = function
  | Bmc.Cex (_, st) | Bmc.Bounded_proof st | Bmc.Unknown (_, st) -> st

(* The traced arm runs the campaign as its public calls — FT generation,
   [Bmc.check_each], [Explain.cluster] and the artifact writers — each
   under its own span, on the same entries, store and output layout. *)
let run_split acc ctx ~cache_dir ~out_dir order =
  Spans.on := true;
  Fun.protect ~finally:(fun () -> Spans.on := false) @@ fun () ->
  let entry (e : Jobs.entry) cache =
    let t0 = now () in
    let ft = e.Jobs.e_ft () in
    let outcomes =
      Spans.span
        ~split:(fun os -> engine_split (List.map (fun (_, o) -> stats_of o) os))
        "bmc.check_each"
        (fun () ->
          Bmc.check_each ~max_depth:e.Jobs.e_depth ~opt:Opt.O2
            ~sym:ft.Autocc.Ft.sym ~cache ft.Autocc.Ft.wrapper
            ft.Autocc.Ft.property)
    in
    let cexs =
      List.filter_map
        (fun (name, o) -> Option.map (fun c -> (name, c)) (cex_of o))
        outcomes
    in
    let channels =
      Spans.span "explain.cluster" (fun () -> Explain.cluster ft (List.map snd cexs))
    in
    let artifact i = Printf.sprintf "channel_%s_%d.json" e.Jobs.label i in
    Spans.span "explain.report" (fun () ->
        List.iteri
          (fun i ch ->
            Json.write_file ~path:(out_dir // artifact i)
              (Camp.json_of_channel ~label:e.Jobs.label ~dut:e.Jobs.e_dut ch))
          channels);
    let r =
      {
        Camp.r_label = e.Jobs.label;
        r_dut = e.Jobs.e_dut;
        r_status = `Done;
        r_channels = channels;
        r_index =
          List.mapi
            (fun i (ch : Explain.channel) ->
              {
                Camp.cr_name = ch.Explain.ch_name;
                cr_culprit = ch.Explain.ch_culprit;
                cr_min_depth = ch.Explain.ch_min.Explain.mn_cex.Bmc.cex_depth;
                cr_artifact = artifact i;
              })
            channels;
        r_raw_cexs = List.length cexs;
        r_asserts = List.length outcomes;
        r_unknowns =
          List.length
            (List.filter
               (fun (_, (o : Bmc.outcome)) ->
                 match o with Bmc.Unknown _ -> true | _ -> false)
               outcomes);
        r_depth = e.Jobs.e_depth;
        r_wall_ms = int_of_float ((now () -. t0) *. 1000.);
        r_resumed = false;
      }
    in
    (e, ft, outcomes, cexs, r)
  in
  let (cache, results), secs =
    timed (fun () ->
        Spans.with_job "campaign" @@ fun () ->
        Spans.span "job" @@ fun () ->
        mkdir_p out_dir;
        let cache = Spans.span "cache.load" (fun () -> Cache.create ~dir:cache_dir ()) in
        let results = List.map (fun e -> entry e cache) order in
        Spans.span "explain.report" (fun () ->
            let t =
              {
                Camp.c_results = List.map (fun (_, _, _, _, r) -> r) results;
                c_artifacts = [];
              }
            in
            Json.write_file ~path:(out_dir // "campaign.json") (Camp.json_of_campaign t);
            Out_channel.with_open_bin (out_dir // "report.html") (fun oc ->
                Out_channel.output_string oc (Camp.html_report t)));
        (cache, results))
  in
  List.iter
    (fun ((e : Jobs.entry), (ft : Autocc.Ft.t), outcomes, cexs, r) ->
      let property = ft.Autocc.Ft.property in
      let sub name =
        {
          property with
          Bmc.asserts = [ (name, List.assoc name property.Bmc.asserts) ];
        }
      in
      beside ft property ~depth:e.Jobs.e_depth
        (List.map (fun (name, c) -> (sub name, c)) cexs);
      let stats = List.map (fun (_, o) -> stats_of o) outcomes in
      (match List.find_opt (fun st -> st.Bmc.opt <> None) stats with
      | Some st -> count_opt acc st
      | None -> ());
      let total f = float_of_int (List.fold_left (fun n st -> n + f st) 0 stats) in
      let largest f = float_of_int (List.fold_left (fun n st -> max n (f st)) 0 stats) in
      count acc "sat.conflicts" (total (fun st -> st.Bmc.conflicts));
      acc.conflicts <-
        (e.Jobs.label, int_of_float (total (fun st -> st.Bmc.conflicts))) :: acc.conflicts;
      count acc "sat.propagations" (total (fun st -> st.Bmc.propagations));
      count acc "cnf.vars" (largest (fun st -> st.Bmc.vars));
      count acc "cnf.clauses" (largest (fun st -> st.Bmc.clauses));
      count acc "explain.replay_trials"
        (float_of_int
           (List.fold_left
              (fun n (ch : Explain.channel) -> n + ch.Explain.ch_min.Explain.mn_iterations)
              0 r.Camp.r_channels));
      verify_entry acc ctx e r)
    results;
  let st = Cache.stats cache in
  count acc "cache.hits" (float_of_int st.Cache.hits);
  count acc "cache.misses" (float_of_int st.Cache.misses);
  count acc "cache.stores" (float_of_int st.Cache.stores);
  count acc "cache.rejects" (float_of_int st.Cache.rejects);
  secs

(* One pass: every arm of the run, each from a fresh output directory and
   a fresh store — empty, or a copy of [store] when given. *)
let pass acc ctx ~entries ~store rng i =
  let order = pass_order rng i entries in
  List.iter
    (fun mode ->
      let dir = ctx.scratch // Printf.sprintf "campaign-%d-%s" i (mode_name mode) in
      let cache_dir = dir // "cache" and out_dir = dir // "out" in
      mkdir_p cache_dir;
      Option.iter
        (fun s -> copy_file (s // "verdicts.jsonl") (cache_dir // "verdicts.jsonl"))
        store;
      let secs =
        match mode with
        | Traced -> run_split acc ctx ~cache_dir ~out_dir order
        | Plain | Telemetry ->
            let secs, lats, start = run_product acc ctx ~cache_dir ~out_dir order mode in
            if mode = Plain then begin
              acc.latencies <- lats @ acc.latencies;
              acc.segments <- ("campaign.start", start) :: acc.segments
            end;
            secs
      in
      acc.arms <- ("pass", mode, secs) :: acc.arms;
      rm_rf dir)
    (arms_for ctx i)

let smoke_entries entries =
  List.filter (fun (e : Jobs.entry) -> List.mem e.Jobs.label [ "leaky"; "aes" ]) entries

(* campaign_cold: every pass starts from an empty store, so every
   verdict is a cache write. *)
let cold acc ctx =
  let prepare () =
    let entries = Jobs.campaign_entries () in
    if ctx.smoke then smoke_entries entries else entries
  in
  let s = { reps = 5; prepare; teardown = ignore } in
  let entries = setup acc ctx s in
  timed_passes acc ctx
    ~between:(fun () -> extra_setup acc ctx s)
    (pass acc ctx ~entries ~store:None)

(* campaign_warm: set-up fills a store with one cold pass; each timed
   pass starts from a copy of it, over the same list with the CVA6 entry
   edited (its C1 fix flipped on), so only the edited cones re-solve. *)
let warm acc ctx =
  let n = ref 0 in
  let prepare () =
    let pick = if ctx.smoke then smoke_entries else Fun.id in
    let base = pick (Jobs.campaign_entries ()) in
    let edited = pick (Jobs.campaign_entries ~cva6_fix_c1:true ()) in
    incr n;
    let store = ctx.scratch // Printf.sprintf "store-%d" !n in
    let result = campaign ~cache_dir:store ~out_dir:(store // "out") base in
    verify_all acc ctx base result.Camp.c_results;
    (edited, store)
  in
  let edited, store =
    setup acc ctx { reps = 3; prepare; teardown = (fun (_, store) -> rm_rf store) }
  in
  timed_passes acc ctx (pass acc ctx ~entries:edited ~store:(Some store));
  rm_rf store
