(* Validates the telemetry artifacts of a real CLI run — the
   [@telemetry-smoke] gate. Usage:

     validate_telemetry.exe TRACE.json EVENTS.jsonl

   Checks the event stream first: every line is a stamped bus event
   ([Obs.Bus.stamped_of_json]) with a positive pid, seq runs 1, 2, 3,
   ..., and the run published [depth_solved] for depths 0 .. d-1 in
   order and exactly one [cex_found], at depth d. Then checks that the
   trace is well-formed Chrome trace-event JSON (traceEvents list; every
   event has name/ph/ts/pid/tid; complete events have dur), that it
   round-trips through the printer/parser pair, that spans from the sat,
   cnf, bmc and opt layers are all present, and that the bus marked the
   CEX on the timeline: a [bus.cex_found] instant whose args carry depth
   d. Exits non-zero with a message on the first violation. *)

module Json = Obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let str_field name ev =
  match Json.member name ev with
  | Some (Json.Str s) -> s
  | _ -> fail "event lacks string field %S: %s" name (Json.to_string ev)

let require_num name ev =
  match Json.member name ev with
  | Some (Json.Float _ | Json.Int _) -> ()
  | _ -> fail "event lacks numeric field %S: %s" name (Json.to_string ev)

(* The CEX depth the stream reports. *)
let check_events path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s has no events" path;
  let events =
    List.mapi
      (fun i line ->
        match Result.bind (Json.parse line) Obs.Bus.stamped_of_json with
        | Error e -> fail "%s: line is not a stamped event: %s (%s)" path line e
        | Ok st ->
            if st.Obs.Bus.pid <= 0 then fail "%s: pid %d in %s" path st.pid line;
            if st.Obs.Bus.seq <> i + 1 then
              fail "%s: line %d has seq %d" path (i + 1) st.Obs.Bus.seq;
            st.Obs.Bus.ev)
      lines
  in
  let solved =
    List.filter_map
      (function Obs.Bus.Depth_solved { depth; _ } -> Some depth | _ -> None)
      events
  and cexs =
    List.filter_map
      (function Obs.Bus.Cex_found { depth } -> Some depth | _ -> None)
      events
  in
  let depth =
    match cexs with
    | [ d ] -> d
    | l -> fail "%s: %d cex_found events, expected 1" path (List.length l)
  in
  if depth < 1 then fail "%s: cex_found at depth %d leaves no depth_solved" path depth;
  if solved <> List.init depth Fun.id then
    fail "%s: depth_solved depths [%s], expected 0 .. %d before cex_found %d"
      path
      (String.concat "; " (List.map string_of_int solved))
      (depth - 1) depth;
  Printf.printf "events OK: %s (%d events, depth_solved 0-%d, cex_found %d)\n"
    path (List.length events) (depth - 1) depth;
  depth

let check_trace path ~cex_depth =
  let contents = read_file path in
  let trace =
    match Json.parse contents with
    | Ok t -> t
    | Error e -> fail "%s does not parse: %s" path e
  in
  (* Round-trip: print what we parsed and parse it again. *)
  (match Json.parse (Json.to_string trace) with
  | Ok trace' when trace' = trace -> ()
  | Ok _ -> fail "%s does not round-trip through the JSON printer" path
  | Error e -> fail "%s re-parse failed: %s" path e);
  let events =
    match Json.member "traceEvents" trace with
    | Some (Json.List evs) -> evs
    | _ -> fail "%s lacks a traceEvents list" path
  in
  if events = [] then fail "%s has no trace events" path;
  let spans = Hashtbl.create 16 in
  let cex_marked = ref false in
  List.iter
    (fun ev ->
      let name = str_field "name" ev in
      let ph = str_field "ph" ev in
      require_num "ts" ev;
      require_num "pid" ev;
      require_num "tid" ev;
      if ph = "X" then begin
        require_num "dur" ev;
        let layer =
          match String.index_opt name '.' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        Hashtbl.replace spans layer ()
      end;
      if
        ph = "i" && name = "bus.cex_found"
        && Option.bind (Json.member "args" ev) (Json.int "depth")
           = Some cex_depth
      then cex_marked := true)
    events;
  List.iter
    (fun layer ->
      if not (Hashtbl.mem spans layer) then
        fail "%s has no spans from the %s layer" path layer)
    [ "sat"; "cnf"; "bmc"; "opt" ];
  if not !cex_marked then
    fail "%s has no bus.cex_found instant at depth %d" path cex_depth;
  Printf.printf "trace OK: %s (%d events, span layers: %s, bus.cex_found at %d)\n"
    path (List.length events)
    (String.concat ", " (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) spans [])))
    cex_depth

let () =
  match Sys.argv with
  | [| _; trace; events |] ->
      let cex_depth = check_events events in
      check_trace trace ~cex_depth
  | _ ->
      prerr_endline "usage: validate_telemetry TRACE.json EVENTS.jsonl";
      exit 2
