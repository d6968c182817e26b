(* The telemetry layer itself: JSON round-trips, Chrome trace-event
   structure (bus events as trace instants), span nesting across worker
   domains, metric exactness, event-bus stamping, the k-induction event
   stream of both [prove] engines — plus a determinism
   fuzz: telemetry-on and telemetry-off runs of the full
   optimize -> blast -> solve pipeline must produce identical verdicts
   and counterexample depths. *)

module Json = Obs.Json
module Signal = Rtl.Signal
module Circuit = Rtl.Circuit

(* Every test drives the same global sinks, so leave them clean. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.shutdown ();
      Obs.Metrics.reset ())
    f

(* Collect trace events in memory: point the writer at a temp path (the
   only way to start collecting), snapshot via [trace_json], and never
   let the file survive. *)
let with_trace f =
  let path = Filename.temp_file "test_obs" ".trace.json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.close_trace ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.trace_to_file path;
      let r = f () in
      let events =
        match Json.member "traceEvents" (Obs.trace_json ()) with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "trace_json lacks a traceEvents list"
      in
      (r, events))

let str_field name ev =
  match Json.member name ev with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "event lacks string field %S: %s" name (Json.to_string ev)

let num_field name ev =
  match Json.member name ev with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> Alcotest.failf "event lacks numeric field %S: %s" name (Json.to_string ev)

(* {1 JSON round-trip} *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      (* Floats survive exactly, wall-clock stamps included (bus events
         carry them); integral floats print as "x.0" so they come back
         as Float, not Int. *)
      Json.Float 1.5;
      Json.Float (-0.25);
      Json.Float 3.0;
      Json.Float 1e-9;
      Json.Float 0.1;
      Json.Float 1792208453.1234567;
      Json.Float (Float.pred 1792208453.5);
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \"quotes\" \\back\nnewline\ttab\x01ctl";
      Json.Str "caf\xc3\xa9";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' -> Alcotest.(check bool) (Json.to_string v) true (v' = v)
      | Error e -> Alcotest.failf "parse of %s failed: %s" (Json.to_string v) e)
    cases;
  (* Whitespace and rejects. *)
  Alcotest.(check bool) "whitespace" true
    (Json.parse "  { \"a\" : [ 1 , 2 ] }  " = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}" ]

let test_json_accessors () =
  (* Each accessor answers only for its own type; [num] also widens an
     [Int], and a non-object or missing key is [None] for all three. *)
  let j =
    Json.Obj
      [ ("s", Json.Str "x"); ("i", Json.Int 7); ("f", Json.Float 0.5);
        ("n", Json.Null) ]
  in
  let opt_int = Alcotest.(option int) and opt_str = Alcotest.(option string) in
  let opt_num = Alcotest.(option (float 0.)) in
  Alcotest.check opt_str "str" (Some "x") (Json.str "s" j);
  Alcotest.check opt_str "str of an int" None (Json.str "i" j);
  Alcotest.check opt_int "int" (Some 7) (Json.int "i" j);
  Alcotest.check opt_int "int of a float" None (Json.int "f" j);
  Alcotest.check opt_int "int of a string" None (Json.int "s" j);
  Alcotest.check opt_num "num of a float" (Some 0.5) (Json.num "f" j);
  Alcotest.check opt_num "num widens an int" (Some 7.) (Json.num "i" j);
  Alcotest.check opt_num "num of null" None (Json.num "n" j);
  Alcotest.check opt_str "missing key" None (Json.str "absent" j);
  Alcotest.check opt_int "non-object" None (Json.int "i" (Json.List [ j ]))

(* {1 Files: nested mkdir and atomic replace} *)

let test_files () =
  let root = Filename.temp_file "test_obs" ".files" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Filename.concat dir "f.txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ];
      List.iter
        (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
        [ dir; Filename.dirname dir; root ])
  @@ fun () ->
  Obs.Files.mkdir_p dir;
  Alcotest.(check bool) "nested dir created" true (Sys.is_directory dir);
  (* A second call on an existing directory is a no-op. *)
  Obs.Files.mkdir_p dir;
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Obs.Files.write_atomic ~path "first\n";
  Alcotest.(check string) "written" "first\n" (read ());
  Obs.Files.write_atomic ~path "second";
  Alcotest.(check string) "replaced whole" "second" (read ());
  Alcotest.(check bool) "no temp file left" false
    (Sys.file_exists (path ^ ".tmp"))

(* {1 Trace events: structure and span nesting} *)

let test_span_structure () =
  with_clean_obs @@ fun () ->
  let (), events =
    with_trace (fun () ->
        Obs.span "t.outer" ~attrs:[ ("k", Json.Int 7) ] (fun () ->
            Obs.span "t.inner" (fun () -> ignore (Sys.opaque_identity 1));
            (* Tracing alone, no bus file: the event still marks the
               timeline. *)
            Obs.Bus.with_label "t" (fun () ->
                Obs.Bus.publish (Obs.Bus.Cex_found { depth = 4 }));
            Obs.counter_event "t.counter" [ ("v", 3.0) ]))
  in
  Alcotest.(check int) "four events" 4 (List.length events);
  let by_name n = List.find (fun e -> str_field "name" e = n) events in
  let outer = by_name "t.outer" and inner = by_name "t.inner" in
  Alcotest.(check string) "complete event" "X" (str_field "ph" outer);
  Alcotest.(check string) "category from prefix" "t" (str_field "cat" outer);
  Alcotest.(check bool) "attrs in args" true
    (match Json.member "args" outer with
    | Some args -> Json.member "k" args = Some (Json.Int 7)
    | None -> false);
  (* Nesting in time: inner starts no earlier and ends no later. *)
  let t0 = num_field "ts" outer and d0 = num_field "dur" outer in
  let t1 = num_field "ts" inner and d1 = num_field "dur" inner in
  Alcotest.(check bool) "inner starts inside outer" true (t1 >= t0);
  Alcotest.(check bool) "inner ends inside outer" true (t1 +. d1 <= t0 +. d0 +. 1.0);
  let mark = by_name "bus.cex_found" in
  Alcotest.(check string) "bus event is an instant" "i" (str_field "ph" mark);
  Alcotest.(check string) "category from prefix" "bus" (str_field "cat" mark);
  Alcotest.(check bool) "payload and label in args" true
    (Json.member "args" mark
    = Some (Json.Obj [ ("depth", Json.Int 4); ("label", Json.Str "t") ]));
  Alcotest.(check string) "counter" "C" (str_field "ph" (by_name "t.counter"))

let test_span_exception () =
  with_clean_obs @@ fun () ->
  let raised, events =
    with_trace (fun () ->
        try
          Obs.span "t.boom" (fun () ->
              if Sys.opaque_identity true then failwith "cancelled mid-span");
          false
        with Failure _ -> true)
  in
  Alcotest.(check bool) "exception propagates" true raised;
  Alcotest.(check int) "span still recorded" 1 (List.length events)

let test_span_nesting_across_domains () =
  with_clean_obs @@ fun () ->
  let n_domains = 4 and per_domain = 3 in
  let (), events =
    with_trace (fun () ->
        let worker i () =
          Obs.span "t.job" ~attrs:[ ("worker", Json.Int i) ] (fun () ->
              for s = 0 to per_domain - 1 do
                Obs.span "t.sub" ~attrs:[ ("step", Json.Int s) ] (fun () ->
                    ignore (Sys.opaque_identity (i + s)))
              done)
        in
        let ds = List.init n_domains (fun i -> Domain.spawn (worker i)) in
        List.iter Domain.join ds)
  in
  let named n = List.filter (fun e -> str_field "name" e = n) events in
  Alcotest.(check int) "one job span per domain" n_domains
    (List.length (named "t.job"));
  Alcotest.(check int) "all sub spans" (n_domains * per_domain)
    (List.length (named "t.sub"));
  (* Each domain's events carry its own tid, and the job span encloses
     every sub span recorded by the same domain. *)
  List.iter
    (fun job ->
      let tid = num_field "tid" job in
      let t0 = num_field "ts" job and d0 = num_field "dur" job in
      let subs = List.filter (fun e -> num_field "tid" e = tid) (named "t.sub") in
      Alcotest.(check int) "subs share the job's tid" per_domain (List.length subs);
      List.iter
        (fun sub ->
          let t1 = num_field "ts" sub and d1 = num_field "dur" sub in
          Alcotest.(check bool) "sub inside job" true
            (t1 >= t0 && t1 +. d1 <= t0 +. d0 +. 1.0))
        subs)
    (named "t.job");
  let tids =
    List.sort_uniq compare (List.map (fun e -> num_field "tid" e) (named "t.job"))
  in
  Alcotest.(check int) "four distinct tids" n_domains (List.length tids)

let test_trace_file_roundtrip () =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "test_obs" ".trace.json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.trace_to_file path;
      Obs.span "t.once" (fun () -> ());
      (* Normalize the in-memory value through the printer the file was
         written with. *)
      let in_memory =
        match Json.parse (Json.to_string (Obs.trace_json ())) with
        | Ok v -> v
        | Error e -> Alcotest.failf "trace_json does not round-trip: %s" e
      in
      Obs.close_trace ();
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      match Json.parse contents with
      | Ok on_disk ->
          Alcotest.(check bool) "file equals trace_json" true (on_disk = in_memory)
      | Error e -> Alcotest.failf "trace file does not parse: %s" e)

(* {1 Metrics} *)

let test_counter_gauge_series () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "test.ctr" in
  Obs.Metrics.add c 3;
  Obs.Metrics.add c 4;
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 2.5;
  Obs.Metrics.set g 9.0;
  let s = Obs.Metrics.series "test.series" in
  Obs.Metrics.record s 0.25;
  Obs.Metrics.record s 0.5;
  Alcotest.(check bool) "counter sums" true
    (Obs.Metrics.find "test.ctr" = Some (Obs.Metrics.Counter 7));
  Alcotest.(check bool) "gauge keeps the last value" true
    (Obs.Metrics.find "test.gauge" = Some (Obs.Metrics.Gauge 9.0));
  Alcotest.(check bool) "series appends in order" true
    (Obs.Metrics.find "test.series" = Some (Obs.Metrics.Series [| 0.25; 0.5 |]));
  (* The snapshot JSON round-trips through the parser. *)
  let j = Obs.Metrics.json_of_snapshot () in
  (match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "snapshot JSON round-trips" true (j = j')
  | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e);
  (* A disabled registry records nothing. *)
  Obs.Metrics.reset ();
  Obs.Metrics.disable ();
  Obs.Metrics.add c 1;
  Obs.Metrics.set g 1.0;
  Obs.Metrics.record s 1.0;
  Alcotest.(check bool) "nothing recorded while disabled" true
    (List.map (fun n -> Obs.Metrics.find n) [ "test.ctr"; "test.gauge"; "test.series" ]
    = [
        Some (Obs.Metrics.Counter 0);
        Some (Obs.Metrics.Gauge 0.);
        Some (Obs.Metrics.Series [||]);
      ]);
  (* Kind mismatch on an existing name is a programming error. *)
  Alcotest.(check bool) "kind clash raises" true
    (try
       ignore (Obs.Metrics.counter "test.series");
       false
     with Invalid_argument _ -> true)

(* {1 Metrics under concurrent domain writes}

   The registry is shared mutable state behind one mutex; hammer one
   counter and one series from four domains and demand exact totals — a
   lost update would show up as a short count. *)

let test_concurrent_metrics () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  let c = Obs.Metrics.counter "conc.ctr" in
  let s = Obs.Metrics.series "conc.series" in
  let per_domain = 500 and domains = 4 in
  let worker _ =
    Domain.spawn (fun () ->
        for i = 1 to per_domain do
          Obs.Metrics.add c 1;
          Obs.Metrics.record s (float_of_int i)
        done)
  in
  List.iter Domain.join (List.init domains worker);
  Alcotest.(check bool) "counter exact" true
    (Obs.Metrics.find "conc.ctr"
    = Some (Obs.Metrics.Counter (domains * per_domain)));
  match Obs.Metrics.find "conc.series" with
  | Some (Obs.Metrics.Series vs) ->
      Alcotest.(check int) "series length exact" (domains * per_domain)
        (Array.length vs);
      let expected =
        float_of_int domains *. float_of_int (per_domain * (per_domain + 1) / 2)
      in
      Alcotest.(check (float 1e-6)) "series sum exact" expected
        (Array.fold_left ( +. ) 0. vs)
  | _ -> Alcotest.fail "conc.series missing"

(* {1 Event bus}

   The file sink is the bus's only output, so every bus test publishes
   through a fresh temp file and reads the stamped events back. *)

let published f =
  let path = Filename.temp_file "test_obs" ".events.jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (with_clean_obs @@ fun () ->
   Obs.Bus.attach ~file:path ();
   Fun.protect ~finally:Obs.Bus.detach f);
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Result.bind (Json.parse line) Obs.Bus.stamped_of_json with
         | Ok s -> s
         | Error e -> Alcotest.failf "sink line %S is not a stamped event: %s" line e)

let seqs = List.map (fun (s : Obs.Bus.stamped) -> s.Obs.Bus.seq)

let test_bus_ordering () =
  let events =
    published @@ fun () ->
    for d = 1 to 10 do
      Obs.Bus.publish (Obs.Bus.Depth_solved { depth = d; seconds = 0.01 })
    done;
    Obs.Bus.publish (Obs.Bus.Cex_found { depth = 11 })
  in
  Alcotest.(check (list int)) "seqs are 1..11 in publish order"
    (List.init 11 (fun i -> i + 1))
    (seqs events);
  ignore
    (List.fold_left
       (fun prev (s : Obs.Bus.stamped) ->
         Alcotest.(check bool) "timestamps non-decreasing" true
           (s.Obs.Bus.ts >= prev);
         s.Obs.Bus.ts)
       0. events);
  List.iter
    (fun (s : Obs.Bus.stamped) ->
      Alcotest.(check int) "stamped with the writer's pid" (Unix.getpid ())
        s.Obs.Bus.pid)
    events

let test_bus_concurrent_publish () =
  let domains = 4 and per_domain = 50 in
  let events =
    published @@ fun () ->
    let worker d =
      Domain.spawn (fun () ->
          Obs.Bus.with_label (Printf.sprintf "d%d" d) @@ fun () ->
          for i = 1 to per_domain do
            Obs.Bus.publish (Obs.Bus.Retry { attempt = i; reason = "conc" })
          done)
    in
    List.iter Domain.join (List.init domains worker)
  in
  Alcotest.(check (list int)) "seqs contiguous, unique and in file order"
    (List.init (domains * per_domain) (fun i -> i + 1))
    (seqs events);
  (* Every publish kept the domain-local label of its publisher. *)
  List.iter
    (fun (s : Obs.Bus.stamped) ->
      Alcotest.(check bool) "label is some d<i>" true
        (String.length s.Obs.Bus.label = 2 && s.Obs.Bus.label.[0] = 'd'))
    events

let all_events =
  [
    Obs.Bus.Depth_solved { depth = 3; seconds = 0.25 };
    Obs.Bus.Cex_found { depth = 4 };
    Obs.Bus.Cache_hit;
    Obs.Bus.Cache_miss;
    Obs.Bus.Retry { attempt = 2; reason = "budget:wall_clock" };
    Obs.Bus.Unknown { reason = "faulted:bmc.incr" };
    Obs.Bus.Fault_injected { site = "bmc.incr" };
    Obs.Bus.Job_start { goal_depth = 12 };
    Obs.Bus.Job_done { verdict = "cex"; wall_s = 1.5 };
    Obs.Bus.Solver_progress { conflicts = 10; learnts = 5; conflicts_per_s = 2.5 };
    Obs.Bus.Solver_stalled { conflicts_per_s = 0.5; learnts_per_s = 0.25 };
    Obs.Bus.Heartbeat;
  ]

let test_bus_file_sink_roundtrip () =
  let parsed =
    published @@ fun () ->
    Obs.Bus.with_label "rt" @@ fun () -> List.iter Obs.Bus.publish all_events
  in
  Alcotest.(check bool) "file sink round-trips every constructor" true
    (List.map (fun (s : Obs.Bus.stamped) -> s.Obs.Bus.ev) parsed = all_events);
  List.iter
    (fun (s : Obs.Bus.stamped) ->
      Alcotest.(check string) "label survives the file" "rt" s.Obs.Bus.label)
    parsed

(* {1 Event bus: the k-induction stream}

   Both [prove] engines report each base depth once: [Depth_solved] for
   every clean base case, the proving [k] included, and [Cex_found] for
   a refuting one. [bmc.depth_seconds] records only the depths that
   moved on to [k + 1]. *)

let depth_events (events : Obs.Bus.stamped list) =
  List.map
    (fun (s : Obs.Bus.stamped) ->
      match s.Obs.Bus.ev with
      | Obs.Bus.Depth_solved { depth; seconds } ->
          Alcotest.(check bool) "seconds non-negative" true (seconds >= 0.);
          Printf.sprintf "depth_solved:%d" depth
      | Obs.Bus.Cex_found { depth } -> Printf.sprintf "cex_found:%d" depth
      | _ ->
          Alcotest.failf "unexpected event %s"
            (Json.to_string (Obs.Bus.json_of_stamped s)))
    events

(* Run [prove] on both engines with metrics on; return each engine's
   outcome, its depth events and the length of [bmc.depth_seconds]. *)
let prove_stream circuit property =
  List.map
    (fun incremental ->
      let outcome = ref None and series = ref (-1) in
      let events =
        published @@ fun () ->
        Obs.Metrics.enable ();
        outcome :=
          Some (Bmc.prove ~max_depth:10 ~opt:Opt.O0 ~incremental circuit property);
        series :=
          match Obs.Metrics.find "bmc.depth_seconds" with
          | Some (Obs.Metrics.Series vs) -> Array.length vs
          | _ -> 0
      in
      (incremental, Option.get !outcome, depth_events events, !series))
    [ true; false ]

let engine incremental = if incremental then "incremental" else "scratch"

let solved_upto n = List.init (n + 1) (Printf.sprintf "depth_solved:%d")

let test_prove_stream_refuted () =
  (* A wrapping 3-bit counter reaches 7 at cycle 7. *)
  let open Signal in
  let count = reg "wrap" 3 in
  reg_set_next count (count +: one 3);
  let circuit = Circuit.create ~name:"wrap" ~outputs:[ ("count", count) ] () in
  let property =
    { Bmc.assumes = []; asserts = [ ("ne7", count <>: of_int ~width:3 7) ] }
  in
  List.iter
    (fun (incremental, outcome, events, series) ->
      let what = engine incremental in
      (match outcome with
      | Bmc.Refuted (cex, _) ->
          Alcotest.(check int) (what ^ ": refuted at 7") 7 cex.Bmc.cex_depth
      | _ -> Alcotest.failf "%s: expected a refutation" what);
      Alcotest.(check (list string))
        (what ^ ": depths 0..6 clean, then the CEX")
        (solved_upto 6 @ [ "cex_found:7" ])
        events;
      Alcotest.(check int) (what ^ ": one series entry per clean depth") 7 series)
    (prove_stream circuit property)

let test_prove_stream_proved () =
  (* A counter saturating at 5 never reaches 7; k-induction proves it. *)
  let open Signal in
  let count = reg "sat" 3 in
  reg_set_next count
    (mux2 (count >=: of_int ~width:3 5) (of_int ~width:3 5) (count +: one 3));
  let circuit =
    Circuit.create ~name:"sat_counter" ~outputs:[ ("count", count) ] ()
  in
  let property =
    { Bmc.assumes = []; asserts = [ ("ne7", count <>: of_int ~width:3 7) ] }
  in
  List.iter
    (fun (incremental, outcome, events, series) ->
      let what = engine incremental in
      match outcome with
      | Bmc.Proved (k, _) ->
          Alcotest.(check (list string))
            (what ^ ": depths 0..k clean, the proving k included")
            (solved_upto k) events;
          Alcotest.(check int) (what ^ ": no series entry for the proving k") k
            series
      | _ -> Alcotest.failf "%s: expected a proof" what)
    (prove_stream circuit property)

(* {1 Cockpit: state reconstructed from event lines alone}

   Feed the cockpit two successive batches of serialized lines — as the
   [top] command does when tailing events.jsonl — and check the visible
   state advances between batches. *)

let test_cockpit_incremental () =
  let stamp seq label ev =
    { Obs.Bus.seq; ts = float_of_int seq; tid = 0; pid = 4242; label; ev }
  in
  let line s = Json.to_string (Obs.Bus.json_of_stamped s) in
  let t = Obs.Cockpit.create () in
  List.iter
    (fun s -> Obs.Cockpit.feed_line t (line s))
    [
      stamp 1 "maple" (Obs.Bus.Job_start { goal_depth = 8 });
      stamp 2 "maple" (Obs.Bus.Depth_solved { depth = 0; seconds = 0.1 });
      stamp 3 "maple" (Obs.Bus.Depth_solved { depth = 1; seconds = 0.2 });
      stamp 4 "maple" Obs.Bus.Cache_miss;
    ];
  (match Obs.Cockpit.rows t with
  | [ r ] ->
      Alcotest.(check string) "running after batch 1" "running"
        r.Obs.Cockpit.ro_verdict;
      Alcotest.(check int) "depth 1 after batch 1" 1 r.Obs.Cockpit.ro_depth;
      Alcotest.(check bool) "ETA available while running" true
        (Obs.Cockpit.eta_s r <> None)
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  List.iter
    (fun s -> Obs.Cockpit.feed_line t (line s))
    [
      stamp 5 "maple" (Obs.Bus.Depth_solved { depth = 2; seconds = 0.4 });
      stamp 6 "maple" (Obs.Bus.Cex_found { depth = 3 });
      stamp 7 "maple" (Obs.Bus.Job_done { verdict = "cex"; wall_s = 1.0 });
    ];
  (match Obs.Cockpit.rows t with
  | [ r ] ->
      Alcotest.(check string) "verdict updated by batch 2" "cex"
        r.Obs.Cockpit.ro_verdict;
      Alcotest.(check int) "depth updated by batch 2" 3 r.Obs.Cockpit.ro_depth
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  Obs.Cockpit.feed_line t "{ torn half-line";
  Alcotest.(check int) "torn line counted, not fatal" 1 (Obs.Cockpit.bad_lines t);
  Alcotest.(check int) "events counted" 7 (Obs.Cockpit.events t);
  let rendered = Obs.Cockpit.render ~now:8. t in
  Alcotest.(check bool) "render mentions the row" true
    (String.length rendered > 0
    &&
    let n = String.length rendered in
    let rec mentions i =
      i + 5 <= n && (String.sub rendered i 5 = "maple" || mentions (i + 1))
    in
    mentions 0)

(* {1 Solver-health watchdog} *)

let watchdog_policy =
  {
    Obs.Watchdog.p_every = 1;
    p_window = 3;
    p_patience = 2;
    p_min_conflicts_per_s = 100.;
    p_min_learnts_per_s = 100.;
    p_rebudget = false;
  }

let test_watchdog_stall () =
  with_clean_obs @@ fun () ->
  let fired = ref 0 in
  let dog =
    Obs.Watchdog.create ~policy:watchdog_policy
      ~on_stall:(fun ~cps:_ ~lps:_ -> incr fired)
      ()
  in
  (* 10 conflicts/s against a 100/s floor: below threshold every window. *)
  for i = 1 to 10 do
    Obs.Watchdog.feed dog ~conflicts:i ~learnts:i ~now:(float_of_int i /. 10.)
  done;
  Alcotest.(check bool) "stall latched" true (Obs.Watchdog.stalled dog);
  Alcotest.(check int) "on_stall fired exactly once" 1 !fired;
  Alcotest.(check bool) "measured rate below floor" true
    (Obs.Watchdog.conflicts_per_s dog < 100.)

let test_watchdog_healthy () =
  with_clean_obs @@ fun () ->
  let fired = ref 0 in
  let dog =
    Obs.Watchdog.create ~policy:watchdog_policy
      ~on_stall:(fun ~cps:_ ~lps:_ -> incr fired)
      ()
  in
  (* 1000 conflicts/s: comfortably above the floor. *)
  for i = 1 to 10 do
    Obs.Watchdog.feed dog ~conflicts:(i * 100) ~learnts:(i * 100)
      ~now:(float_of_int i /. 10.)
  done;
  Alcotest.(check bool) "no stall" false (Obs.Watchdog.stalled dog);
  Alcotest.(check int) "on_stall never fired" 0 !fired

let test_watchdog_policy_of_string () =
  (match
     Obs.Watchdog.policy_of_string
       "every=64,window=8,patience=3,min_cps=12.5,min_lps=7,rebudget=1"
   with
  | Ok p ->
      Alcotest.(check int) "every" 64 p.Obs.Watchdog.p_every;
      Alcotest.(check int) "window" 8 p.Obs.Watchdog.p_window;
      Alcotest.(check int) "patience" 3 p.Obs.Watchdog.p_patience;
      Alcotest.(check (float 0.)) "min_cps" 12.5 p.Obs.Watchdog.p_min_conflicts_per_s;
      Alcotest.(check bool) "rebudget" true p.Obs.Watchdog.p_rebudget
  | Error e -> Alcotest.failf "policy_of_string rejected valid input: %s" e);
  (match Obs.Watchdog.policy_of_string "window=1" with
  | Ok p ->
      Alcotest.(check int) "window clamped to 2 (slope needs 2 samples)" 2
        p.Obs.Watchdog.p_window
  | Error e -> Alcotest.failf "window=1 should clamp, not error: %s" e);
  match Obs.Watchdog.policy_of_string "every=0" with
  | Ok _ -> Alcotest.fail "every=0 must be rejected"
  | Error _ -> ()

(* Rebudget end-to-end: an absurd conflict-rate floor plus rebudget=1
   makes the watchdog trip the solver's wall-clock budget mid-search, so
   a run with no explicit budget comes back Unknown(Budget_exhausted
   Wall_clock) instead of hanging on a "stalled" solver. A 16-bit adder
   associativity proof supplies the conflicts. The run is made with
   metrics on and again with every telemetry face off: rebudget changes
   the verdict, so it must not depend on telemetry. *)
let check_rebudget what =
  let a = Signal.input "a" 16
  and b = Signal.input "b" 16
  and c = Signal.input "c" 16 in
  let open Signal in
  let circuit =
    Circuit.create ~name:"assoc" ~outputs:[ ("out", bit (a +: b) 0) ] ()
  in
  let property =
    {
      Bmc.assumes = [];
      asserts = [ ("assoc", a +: b +: c ==: a +: (b +: c)) ];
    }
  in
  match Bmc.check ~max_depth:4 ~opt:Opt.O0 circuit property with
  | Bmc.Unknown (Bmc.Budget_exhausted { ub_budget; _ }, _) ->
      Alcotest.(check bool)
        (what ^ ": tripped budget reads as wall-clock")
        true
        (ub_budget = Sat.Solver.Wall_clock)
  | Bmc.Unknown (r, _) ->
      Alcotest.failf "%s: unexpected unknown reason %s" what
        (Bmc.unknown_reason_to_string r)
  | Bmc.Cex _ -> Alcotest.failf "%s: associativity refuted?!" what
  | Bmc.Bounded_proof _ ->
      Alcotest.failf "%s: watchdog never tripped the budget (proof completed)"
        what

let test_watchdog_rebudget () =
  with_clean_obs @@ fun () ->
  let saved = Obs.Watchdog.policy () in
  Fun.protect ~finally:(fun () -> Obs.Watchdog.set_policy saved) @@ fun () ->
  Obs.Watchdog.set_policy
    {
      Obs.Watchdog.p_every = 1;
      p_window = 2;
      p_patience = 1;
      p_min_conflicts_per_s = 1e12;
      p_min_learnts_per_s = 1e12;
      p_rebudget = true;
    };
  Obs.Metrics.enable ();
  check_rebudget "metrics on";
  Obs.shutdown ();
  Alcotest.(check bool) "every face off" false (Obs.enabled ());
  check_rebudget "telemetry off"

(* {1 Prometheus exposition} *)

let test_prometheus_render () =
  with_clean_obs @@ fun () ->
  Obs.Metrics.enable ();
  Obs.Metrics.add (Obs.Metrics.counter "sat.conflicts") 42;
  Obs.Metrics.set (Obs.Metrics.gauge "cache.size") 7.;
  let series = Obs.Metrics.series "bmc.t" in
  Obs.Metrics.record series 3.5;
  Obs.Metrics.record series 1.5;
  let body = Obs.Prometheus.render () in
  let has sub =
    let n = String.length sub and h = String.length body in
    let rec go i = i + n <= h && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter line" true (has "autocc_sat_conflicts 42");
  Alcotest.(check bool) "counter typed" true
    (has "# TYPE autocc_sat_conflicts counter");
  Alcotest.(check bool) "gauge line" true (has "autocc_cache_size 7");
  Alcotest.(check bool) "series count" true (has "autocc_bmc_t_count 2\n");
  Alcotest.(check bool) "series sum" true (has "autocc_bmc_t_sum 5\n");
  Alcotest.(check bool) "series last" true (has "autocc_bmc_t_last 1.5\n");
  Alcotest.(check bool) "series reduced to gauges" true
    (has "# TYPE autocc_bmc_t_last gauge");
  (* Atomic file write: the snapshot parses back line-by-line. *)
  let path = Filename.temp_file "test_obs" ".prom" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.Prometheus.write_file path;
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "file equals render" body contents

(* {1 Tail: cross-process file tailing} *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let append_file path s =
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let test_tail_basic_and_truncation () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sys.remove path;
  let tail = Obs.Tail.create path in
  Alcotest.(check (list string)) "absent file" [] (Obs.Tail.poll tail);
  append_file path "a\nb\npart";
  Alcotest.(check (list string))
    "complete lines only" [ "a"; "b" ] (Obs.Tail.poll tail);
  Alcotest.(check (list string)) "unchanged file" [] (Obs.Tail.poll tail);
  append_file path "ial\n\nc\n";
  Alcotest.(check (list string))
    "torn line reassembled, blanks dropped" [ "partial"; "c" ]
    (Obs.Tail.poll tail);
  (* Truncation (a fresh campaign reusing the directory) restarts the
     tail at offset 0, and the stale torn tail must not leak into the
     new stream. *)
  append_file path "orph";
  Alcotest.(check (list string)) "torn tail pending" [] (Obs.Tail.poll tail);
  write_file path "x\ny\n";
  Alcotest.(check (list string))
    "restart after truncation" [ "x"; "y" ] (Obs.Tail.poll tail)

let test_tail_at_end () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* A history ending in a line whose writer is still mid-append, longer
     than one read-back chunk. *)
  let live = String.make 5000 'x' in
  write_file path (String.concat "" (List.init 2000 (fun i -> Printf.sprintf "old%d\n" i)));
  append_file path live;
  let tail = Obs.Tail.create ~at_end:true path in
  Alcotest.(check (list string)) "no history" [] (Obs.Tail.poll tail);
  append_file path "-beat\nnew\n";
  Alcotest.(check (list string))
    "only lines completed afterwards, the torn one whole" [ live ^ "-beat"; "new" ]
    (Obs.Tail.poll tail);
  Sys.remove path;
  let tail = Obs.Tail.create ~at_end:true path in
  Alcotest.(check int) "absent file starts at 0" 0 (Obs.Tail.offset tail);
  append_file path "first\n";
  Alcotest.(check (list string)) "then follows it" [ "first" ] (Obs.Tail.poll tail)

let test_tail_seq_restart_mid_tail () =
  with_clean_obs @@ fun () ->
  let path = Filename.temp_file "test_obs" ".events.jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sys.remove path;
  let tail = Obs.Tail.create path in
  let cockpit = Obs.Cockpit.create () in
  let drain () =
    List.iter (Obs.Cockpit.feed_line cockpit) (Obs.Tail.poll tail)
  in
  (* Authentic event lines: a real bus attachment per "campaign", whose
     seq numbering restarts at 0 — exactly what a fresh campaign process
     writing the same events.jsonl does. *)
  let publish_campaign verdict =
    Obs.Bus.attach ~file:path ();
    Obs.Bus.with_label "leaky" (fun () ->
        Obs.Bus.publish (Obs.Bus.Job_start { goal_depth = 8 });
        Obs.Bus.publish (Obs.Bus.Depth_solved { depth = 1; seconds = 0.01 });
        Obs.Bus.publish (Obs.Bus.Job_done { verdict; wall_s = 0.1 }));
    Obs.Bus.detach ()
  in
  publish_campaign "cex";
  drain ();
  let n1 = Obs.Cockpit.events cockpit in
  Alcotest.(check bool) "first campaign consumed" true (n1 >= 3);
  (* Truncate mid-tail and replay a second campaign with restarted
     seqs: every new event must land, none counted as corrupt. The
     tailer detects truncation by size, so it must see the shrunken
     file on some tick before the new stream outgrows the old offset —
     which a once-per-second cockpit poll always does. *)
  write_file path "";
  drain ();
  Alcotest.(check int) "offset restarts at 0" 0 (Obs.Tail.offset tail);
  publish_campaign "proof";
  drain ();
  Alcotest.(check int)
    "second stream fully consumed" (n1 + 3)
    (Obs.Cockpit.events cockpit);
  Alcotest.(check int) "no bad lines across the restart" 0
    (Obs.Cockpit.bad_lines cockpit)

(* {1 Prometheus: render invariants}

   Property test over random sample sets: no metric announces itself
   with a duplicate HELP or TYPE header, a series' _count equals the
   number of samples recorded, and its _last is the last sample (absent
   for an empty series). *)

let prom_invariants samples =
  Fun.protect
    ~finally:(fun () ->
      Obs.shutdown ();
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let s = Obs.Metrics.series "prop.t" in
  List.iter (Obs.Metrics.record s) samples;
  Obs.Metrics.add (Obs.Metrics.counter "prop.n") (List.length samples);
  Obs.Metrics.set (Obs.Metrics.gauge "prop.g") 1.5;
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Obs.Prometheus.render ()))
  in
  let no_dup header =
    let names =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | "#" :: h :: name :: _ when h = header -> Some name
          | _ -> None)
        lines
    in
    names <> [] && List.length names = List.length (List.sort_uniq compare names)
  in
  let value name =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when n = name -> Some v
        | _ -> None)
      lines
  in
  no_dup "HELP" && no_dup "TYPE"
  && value "autocc_prop_t_count" = Some (string_of_int (List.length samples))
  && value "autocc_prop_t_last"
     = Option.map (Printf.sprintf "%.9g") (List.nth_opt (List.rev samples) 0)

let fuzz_prometheus =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"prometheus render: series count and last, unique HELP/TYPE"
       QCheck.(make Gen.(list_size (int_bound 40) (float_bound_inclusive 20.)))
       prom_invariants)

(* {1 Cockpit: JSON snapshot} *)

let test_cockpit_render_json () =
  with_clean_obs @@ fun () ->
  let cockpit = Obs.Cockpit.create () in
  let feed seq ev =
    Obs.Cockpit.feed_line cockpit
      (Json.to_string
         (Obs.Bus.json_of_stamped
            { Obs.Bus.seq; ts = 1000. +. float_of_int seq; tid = 0;
              pid = 4242; label = "leaky"; ev }))
  in
  feed 0 (Obs.Bus.Job_start { goal_depth = 8 });
  feed 1 (Obs.Bus.Depth_solved { depth = 1; seconds = 0.01 });
  feed 2 (Obs.Bus.Job_done { verdict = "cex"; wall_s = 0.2 });
  let j = Obs.Cockpit.render_json ~now:1003. cockpit in
  (match Json.parse (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "render_json does not re-parse: %s" e);
  (match Json.member "schema" j with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "autocc.top/1" s
  | _ -> Alcotest.fail "snapshot lacks a schema field");
  (match Json.member "events" j with
  | Some (Json.Int 3) -> ()
  | other ->
      Alcotest.failf "events != 3: %s"
        (match other with Some x -> Json.to_string x | None -> "absent"));
  match Json.member "rows" j with
  | Some (Json.List [ row ]) ->
      (match Json.member "label" row with
      | Some (Json.Str l) -> Alcotest.(check string) "row label" "leaky" l
      | _ -> Alcotest.fail "row lacks label");
      (match Json.member "verdict" row with
      | Some (Json.Str v) -> Alcotest.(check string) "row verdict" "cex" v
      | _ -> Alcotest.fail "row lacks verdict")
  | _ -> Alcotest.fail "snapshot lacks its single row"

(* {1 Cockpit: liveness from each row's last event and writer pid}

   Pid-stamped lines fed to a cockpit, rendered with a fake liveness
   probe in which pid 101 is gone and every other pid is alive. *)

let crash_probe_cockpit () =
  let cockpit = Obs.Cockpit.create () in
  let seq = ref 0 in
  let feed ~ts ~pid label ev =
    incr seq;
    Obs.Cockpit.feed_line cockpit
      (Json.to_string
         (Obs.Bus.json_of_stamped
            { Obs.Bus.seq = !seq; ts; tid = 0; pid; label; ev }))
  in
  (cockpit, feed)

let alive pid = pid <> 101

(* label -> the text in the table's last (NOTE) column. *)
let rendered_notes ~now ~stale cockpit =
  match
    String.split_on_char '\n' (Obs.Cockpit.render ~now ~stale ~alive cockpit)
  with
  | _totals :: header :: rows ->
      let col = String.length header - String.length "NOTE" in
      List.filter_map
        (fun l ->
          if l = "" then None
          else
            let note =
              if String.length l <= col then ""
              else String.trim (String.sub l col (String.length l - col))
            in
            Some (List.hd (String.split_on_char ' ' l), note))
        rows
  | _ -> Alcotest.fail "render lacks a header"

let json_notes ~now ~stale cockpit =
  match
    Json.member "rows" (Obs.Cockpit.render_json ~now ~stale ~alive cockpit)
  with
  | Some (Json.List rows) ->
      List.map
        (fun row ->
          ( Option.get (Json.str "label" row),
            match Json.member "note" row with
            | Some (Json.Str s) -> s
            | Some Json.Null -> ""
            | _ -> Alcotest.fail "row lacks a note field" ))
        rows
  | _ -> Alcotest.fail "snapshot lacks rows"

let check_notes what expected ~now ~stale cockpit =
  let sorted = List.sort compare in
  Alcotest.(check (list (pair string string)))
    (what ^ " (render)") (sorted expected)
    (sorted (rendered_notes ~now ~stale cockpit));
  Alcotest.(check (list (pair string string)))
    (what ^ " (render_json)") (sorted expected)
    (sorted (json_notes ~now ~stale cockpit))

let test_cockpit_crash_note () =
  let cockpit, feed = crash_probe_cockpit () in
  feed ~ts:100. ~pid:101 "gone" (Obs.Bus.Job_start { goal_depth = 8 });
  feed ~ts:100. ~pid:102 "slow" (Obs.Bus.Job_start { goal_depth = 8 });
  feed ~ts:100. ~pid:102 "slow/a0" (Obs.Bus.Job_start { goal_depth = 8 });
  check_notes "within the threshold"
    [ ("gone", ""); ("slow", ""); ("slow/a0", "") ]
    ~now:120. ~stale:20. cockpit;
  check_notes "silent past the threshold"
    [
      ("gone", "CRASHED (pid 101 gone)");
      ("slow", "silent 30s");
      ("slow/a0", "silent 30s");
    ]
    ~now:130. ~stale:20. cockpit;
  (* The threshold is the caller's: a longer one quiets every row. *)
  check_notes "under a longer threshold"
    [ ("gone", ""); ("slow", ""); ("slow/a0", "") ]
    ~now:130. ~stale:60. cockpit

let test_cockpit_settled_rows_quiet () =
  let cockpit, feed = crash_probe_cockpit () in
  List.iter
    (fun (label, ev) ->
      feed ~ts:100. ~pid:101 label (Obs.Bus.Job_start { goal_depth = 8 });
      feed ~ts:101. ~pid:101 label ev)
    [
      ("proof", Obs.Bus.Job_done { verdict = "proof"; wall_s = 1. });
      ("cex", Obs.Bus.Cex_found { depth = 3 });
      ("unknown", Obs.Bus.Unknown { reason = "budget" });
    ];
  check_notes "settled rows of a dead writer"
    [ ("cex", ""); ("proof", ""); ("unknown", "") ]
    ~now:1000. ~stale:10. cockpit

let test_cockpit_new_writer_clears_note () =
  let cockpit, feed = crash_probe_cockpit () in
  feed ~ts:100. ~pid:101 "j1/leaky" (Obs.Bus.Job_start { goal_depth = 6 });
  feed ~ts:101. ~pid:101 "j1/leaky"
    (Obs.Bus.Depth_solved { depth = 0; seconds = 0.5 });
  check_notes "the first attempt died"
    [ ("j1/leaky", "CRASHED (pid 101 gone)") ]
    ~now:130. ~stale:10. cockpit;
  (* Redelivery: a new process starts the same label over. *)
  feed ~ts:125. ~pid:201 "j1/leaky" (Obs.Bus.Job_start { goal_depth = 6 });
  check_notes "the new attempt is fresh" [ ("j1/leaky", "") ] ~now:130.
    ~stale:10. cockpit;
  check_notes "the new attempt is only silent" [ ("j1/leaky", "silent 15s") ]
    ~now:140. ~stale:10. cockpit;
  match Obs.Cockpit.rows cockpit with
  | [ r ] ->
      Alcotest.(check int) "row keeps its latest writer" 201
        r.Obs.Cockpit.ro_pid
  | _ -> Alcotest.fail "expected one row"

(* {1 Ledger: round-trip, crash tolerance, run references} *)

let test_ledger_roundtrip () =
  let dir = Filename.temp_file "test_obs" ".ledger" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (Obs.Ledger.path dir) with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let mk id ts =
    {
      Obs.Ledger.r_id = id;
      r_tool = "analyze";
      r_subject = "leaky";
      r_config = "check|d=8|o=2|i=true|s=default|b=-";
      r_dut_hash = "abc123";
      r_ts = ts;
      r_wall_s = 0.5;
      r_cpu_s = 0.4;
      r_cache_hits = 1;
      r_cache_misses = 2;
      r_cache_stores = 2;
      r_asserts =
        [
          {
            Obs.Ledger.a_name = "property";
            a_verdict = "cex";
            a_depth = 3;
            a_wall_s = 0.25;
            a_cached = false;
          };
        ];
      r_artifacts = [ "trace.json" ];
    }
  in
  Obs.Ledger.append ~dir (mk "r1" 100.);
  Obs.Ledger.append ~dir (mk "r2aa" 200.);
  (* A torn trailing line (crash mid-append) is rejected and counted,
     never surfaced. *)
  append_file (Obs.Ledger.path dir) "{\"schema\":\"autocc.run/1\",\"id\":\"to";
  let runs, bad = Obs.Ledger.load dir in
  Alcotest.(check int) "torn line rejected" 1 bad;
  Alcotest.(check (list string))
    "file order preserved" [ "r1"; "r2aa" ]
    (List.map (fun (r : Obs.Ledger.run) -> r.Obs.Ledger.r_id) runs);
  let r1 = List.hd runs in
  Alcotest.(check string) "config round-trips"
    "check|d=8|o=2|i=true|s=default|b=-" r1.Obs.Ledger.r_config;
  Alcotest.(check int) "cache hits round-trip" 1 r1.Obs.Ledger.r_cache_hits;
  (match r1.Obs.Ledger.r_asserts with
  | [ a ] ->
      Alcotest.(check string) "assert verdict" "cex" a.Obs.Ledger.a_verdict;
      Alcotest.(check int) "assert depth" 3 a.Obs.Ledger.a_depth;
      Alcotest.(check bool) "assert cached flag" false a.Obs.Ledger.a_cached
  | l -> Alcotest.failf "expected 1 assert record, got %d" (List.length l));
  let id_of ref_ =
    Option.map
      (fun (r : Obs.Ledger.run) -> r.Obs.Ledger.r_id)
      (Obs.Ledger.find dir ~ref:ref_)
  in
  Alcotest.(check (option string)) "~1 is the newest" (Some "r2aa") (id_of "~1");
  Alcotest.(check (option string)) "~2 is the older" (Some "r1") (id_of "~2");
  Alcotest.(check (option string)) "id prefix" (Some "r2aa") (id_of "r2");
  Alcotest.(check (option string)) "no match" None (id_of "zz")

(* {1 Profile: span-tree folding} *)

let test_profile_fold () =
  with_clean_obs @@ fun () ->
  (* Spans must dwarf the folder's 0.5us containment slack (which
     absorbs clock jitter on real, ms-scale runs) or the nesting is
     genuinely ambiguous — spin ~2ms in each. *)
  let spin () =
    let t = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t < 0.002 do
      ignore (Sys.opaque_identity 0)
    done
  in
  let (), events =
    with_trace (fun () ->
        Obs.span "cli.analyze" (fun () ->
            Obs.span "bmc.depth" (fun () ->
                Obs.span "sat.solve" (fun () -> spin ()));
            Obs.span "bmc.depth" (fun () -> spin ())))
  in
  let doc = Json.Obj [ ("traceEvents", Json.List events) ] in
  let p =
    match Obs.Profile.of_trace doc with
    | Ok p -> p
    | Error e -> Alcotest.failf "profile fold failed: %s" e
  in
  Alcotest.(check int) "span count" 4 p.Obs.Profile.p_events;
  (match p.Obs.Profile.p_roots with
  | [ root ] ->
      Alcotest.(check string) "root name" "cli.analyze"
        root.Obs.Profile.pn_name;
      Alcotest.(check int) "root count" 1 root.Obs.Profile.pn_count;
      (match root.Obs.Profile.pn_children with
      | [ depth ] ->
          Alcotest.(check string) "merged child" "bmc.depth"
            depth.Obs.Profile.pn_name;
          Alcotest.(check int) "two calls merged" 2 depth.Obs.Profile.pn_count;
          Alcotest.(check (list string))
            "grandchild" [ "sat.solve" ]
            (List.map
               (fun n -> n.Obs.Profile.pn_name)
               depth.Obs.Profile.pn_children)
      | l -> Alcotest.failf "expected 1 merged child, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l));
  (* Attribution: the root's total is the attributed total, and no
     node's children sum past its own total (self clamped at 0). *)
  let root = List.hd p.Obs.Profile.p_roots in
  Alcotest.(check bool) "total = root total" true
    (Float.abs (p.Obs.Profile.p_total_us -. root.Obs.Profile.pn_total_us)
    < 1e-6);
  let cats = List.map fst p.Obs.Profile.p_categories in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " category present") true (List.mem c cats))
    [ "cli"; "bmc"; "sat" ];
  (* Text + SVG renderings stay self-contained and mention the hot
     span. *)
  let mentions hay sub =
    let n = String.length sub and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table names the span" true
    (mentions (Obs.Profile.table p) "sat.solve");
  let svg = Obs.Profile.flamegraph_svg p in
  Alcotest.(check bool) "svg is an svg" true (mentions svg "<svg");
  Alcotest.(check bool) "svg names the span" true (mentions svg "sat.solve");
  Alcotest.(check bool) "svg carries no scripts" false (mentions svg "<script")

(* {1 Determinism: telemetry must not change verdicts}

   The same random circuit and property, checked with every telemetry
   face off and then with all of them on (metrics, the event bus on a
   temp file, a trace collector): outcome kind and CEX depth must match
   exactly. *)

let check_determinism seed =
  let st = Random.State.make [| seed |] in
  let circuit = Gen_circuit.random_circuit st ~num_nodes:20 ~num_regs:3 in
  let property =
    Gen_circuit.random_property st circuit ~num_asserts:(1 + Random.State.int st 3)
  in
  let max_depth = 5 in
  let quiet = Bmc.check ~max_depth ~opt:Opt.O2 circuit property in
  let path = Filename.temp_file "test_obs" ".trace.json" in
  let events = Filename.temp_file "test_obs" ".events.jsonl" in
  let noisy =
    Fun.protect
      ~finally:(fun () ->
        Obs.shutdown ();
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ path; events ])
      (fun () ->
        Obs.Metrics.reset ();
        Obs.Metrics.enable ();
        Obs.Bus.attach ~file:events ();
        Obs.trace_to_file path;
        Bmc.check ~max_depth ~opt:Opt.O2 circuit property)
  in
  match (quiet, noisy) with
  | Bmc.Bounded_proof s1, Bmc.Bounded_proof s2 ->
      s1.Bmc.depth_reached = s2.Bmc.depth_reached
  | Bmc.Cex (c1, _), Bmc.Cex (c2, _) ->
      c1.Bmc.cex_depth = c2.Bmc.cex_depth
      && List.sort compare c1.Bmc.cex_failed = List.sort compare c2.Bmc.cex_failed
  | _ -> false

let fuzz_determinism =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"telemetry on/off -> identical verdicts"
       QCheck.(make Gen.(int_bound 1_000_000))
       check_determinism)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "field accessors" `Quick test_json_accessors;
        ] );
      ("files", [ Alcotest.test_case "mkdir_p and atomic write" `Quick test_files ]);
      ( "trace",
        [
          Alcotest.test_case "span structure" `Quick test_span_structure;
          Alcotest.test_case "span survives exceptions" `Quick test_span_exception;
          Alcotest.test_case "nesting across 4 domains" `Quick
            test_span_nesting_across_domains;
          Alcotest.test_case "file equals in-memory trace" `Quick
            test_trace_file_roundtrip;
        ] );
      ( "metrics",
        [ Alcotest.test_case "counter/gauge/series" `Quick test_counter_gauge_series ]
      );
      ( "concurrency",
        [
          Alcotest.test_case "metrics exact under 4 domains" `Quick
            test_concurrent_metrics;
        ] );
      ( "bus",
        [
          Alcotest.test_case "publish order and stamping" `Quick
            test_bus_ordering;
          Alcotest.test_case "concurrent publish from 4 domains" `Quick
            test_bus_concurrent_publish;
          Alcotest.test_case "file sink round-trips every event" `Quick
            test_bus_file_sink_roundtrip;
          Alcotest.test_case "prove: clean depths, then cex_found" `Quick
            test_prove_stream_refuted;
          Alcotest.test_case "prove: the proving depth is published" `Quick
            test_prove_stream_proved;
        ] );
      ( "tail",
        [
          Alcotest.test_case "torn lines and truncation restart" `Quick
            test_tail_basic_and_truncation;
          Alcotest.test_case "started at the end: later lines only" `Quick
            test_tail_at_end;
          Alcotest.test_case "seq restart mid-tail" `Quick
            test_tail_seq_restart_mid_tail;
        ] );
      ( "cockpit",
        [
          Alcotest.test_case "state advances from event lines alone" `Quick
            test_cockpit_incremental;
          Alcotest.test_case "autocc.top/1 JSON snapshot" `Quick
            test_cockpit_render_json;
          Alcotest.test_case "silent row: CRASHED for a dead writer" `Quick
            test_cockpit_crash_note;
          Alcotest.test_case "settled rows are never annotated" `Quick
            test_cockpit_settled_rows_quiet;
          Alcotest.test_case "a new writer's job_start clears the note" `Quick
            test_cockpit_new_writer_clears_note;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "round-trip, torn line, run refs" `Quick
            test_ledger_roundtrip;
        ] );
      ( "profile",
        [
          Alcotest.test_case "span tree folding and renderings" `Quick
            test_profile_fold;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "slow solver latches a stall" `Quick
            test_watchdog_stall;
          Alcotest.test_case "healthy solver never stalls" `Quick
            test_watchdog_healthy;
          Alcotest.test_case "policy string parsing" `Quick
            test_watchdog_policy_of_string;
          Alcotest.test_case "rebudget turns a stall into Unknown" `Quick
            test_watchdog_rebudget;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "text format and atomic write" `Quick
            test_prometheus_render;
          fuzz_prometheus;
        ] );
      ("fuzz", [ fuzz_determinism ]);
    ]
