(* Schema validator for the live-observability artifacts, run by the
   @obs-smoke rules against a real campaign's output directory:

     validate_obs.exe events FILE [LABEL,...]
       every line of FILE must parse as a stamped bus event
       (Obs.Bus.stamped_of_json) carrying a positive writer pid, the
       stream's liveness signal; sequence numbers must be strictly
       increasing and timestamps non-decreasing within a process run
       (seq restarting at 1 marks a new process, e.g. --resume); the
       stream must open and close every given campaign label with a
       job_start/job_done pair and contain at least one depth_solved.

     validate_obs.exe prom FILE
       FILE must be Prometheus text format: '# HELP name text' and
       '# TYPE name counter|gauge' headers (at most one of each per
       metric) and 'name value' samples only, every name autocc_*-
       prefixed and [a-zA-Z0-9_:]*, every value a float; at least one
       solver metric must be present (the campaign runs the solver).

     validate_obs.exe top FILE LABEL,...
       FILE is a captured `autocc top --once` frame; it must carry the
       cockpit header and one row per campaign label — proving the
       cockpit reconstructed the campaign from events.jsonl alone.

     validate_obs.exe topjson FILE LABEL,...
       FILE is a captured `autocc top --once --json` snapshot: a single
       autocc.top/1 JSON document with a positive event count and one
       row (carrying a label and a verdict) per campaign label.

     validate_obs.exe stalled FILE
       FILE is the events.jsonl of a campaign run under an absurd
       AUTOCC_WATCHDOG threshold and an injected bmc.incr fault: it
       must contain at least one solver_stalled (the watchdog fired)
       and at least one fault_injected (the fault fired). *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let type_of (s : Obs.Bus.stamped) =
  match s.Obs.Bus.ev with
  | Obs.Bus.Depth_solved _ -> "depth_solved"
  | Obs.Bus.Cex_found _ -> "cex_found"
  | Obs.Bus.Cache_hit -> "cache_hit"
  | Obs.Bus.Cache_miss -> "cache_miss"
  | Obs.Bus.Retry _ -> "retry"
  | Obs.Bus.Unknown _ -> "unknown"
  | Obs.Bus.Fault_injected _ -> "fault_injected"
  | Obs.Bus.Job_start _ -> "job_start"
  | Obs.Bus.Job_done _ -> "job_done"
  | Obs.Bus.Solver_progress _ -> "solver_progress"
  | Obs.Bus.Solver_stalled _ -> "solver_stalled"
  | Obs.Bus.Heartbeat -> "heartbeat"

let parse_events path =
  let lines = List.filter (fun l -> String.trim l <> "") (read_lines path) in
  if lines = [] then fail "%s: no events" path;
  List.mapi
    (fun i line ->
      match Obs.Json.parse line with
      | Error e -> fail "%s:%d: unparseable JSON: %s" path (i + 1) e
      | Ok j -> (
          match Obs.Bus.stamped_of_json j with
          | Error e -> fail "%s:%d: not a stamped event: %s" path (i + 1) e
          | Ok s -> s))
    lines

let validate_events path labels =
  let events = parse_events path in
  List.iteri
    (fun i (s : Obs.Bus.stamped) ->
      if s.pid <= 0 then fail "%s:%d: pid %d is not a process id" path (i + 1) s.pid)
    events;
  (* Monotonicity per process run: a seq restart (<=) opens a new run
     (resumed campaign); within a run seq is strictly increasing and ts
     non-decreasing. At least one run must exist (trivially true). *)
  let runs = ref 1 in
  ignore
    (List.fold_left
       (fun prev (s : Obs.Bus.stamped) ->
         (match prev with
         | Some (p : Obs.Bus.stamped) when s.seq > p.seq ->
             if s.ts < p.ts -. 1e-6 then
               fail "%s: ts went backwards at seq %d" path s.seq
         | Some _ -> incr runs
         | None ->
             if s.seq <> 1 then fail "%s: first event has seq %d, not 1" path s.seq);
         Some s)
       None events);
  let count ty = List.length (List.filter (fun s -> type_of s = ty) events) in
  List.iter
    (fun label ->
      let starts =
        List.exists
          (fun (s : Obs.Bus.stamped) ->
            s.label = label && type_of s = "job_start")
          events
      and dones =
        List.exists
          (fun (s : Obs.Bus.stamped) ->
            s.label = label && type_of s = "job_done")
          events
      in
      if not starts then fail "%s: no job_start for label %s" path label;
      if not dones then fail "%s: no job_done for label %s" path label)
    labels;
  if count "depth_solved" = 0 then fail "%s: no depth_solved events" path;
  Printf.printf
    "events OK: %s (%d events, %d run(s), %d depth_solved, %d job_done, %d \
     cache hits/misses)\n"
    path (List.length events) !runs (count "depth_solved") (count "job_done")
    (count "cache_hit" + count "cache_miss")

let metric_name_ok name =
  String.length name > 0
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let validate_prom path =
  let lines = List.filter (fun l -> String.trim l <> "") (read_lines path) in
  if lines = [] then fail "%s: empty metrics snapshot" path;
  let samples = ref 0 in
  (* Each metric may announce itself with at most one HELP and one TYPE
     header — duplicates break Prometheus scrapers. *)
  let seen_help = Hashtbl.create 16 and seen_type = Hashtbl.create 16 in
  let once tbl what name ln =
    if Hashtbl.mem tbl name then
      fail "%s:%d: duplicate # %s for %s" path ln what name;
    Hashtbl.replace tbl name ()
  in
  List.iteri
    (fun i line ->
      let ln = i + 1 in
      if String.length line > 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "HELP" :: name :: _ ->
            if not (metric_name_ok name) then
              fail "%s:%d: bad metric name %s" path ln name;
            once seen_help "HELP" name ln
        | [ "#"; "TYPE"; name; kind ] ->
            if not (metric_name_ok name) then
              fail "%s:%d: bad metric name %s" path ln name;
            once seen_type "TYPE" name ln;
            if kind <> "counter" && kind <> "gauge" && kind <> "histogram" then
              fail "%s:%d: bad metric kind %s" path ln kind
        | _ -> fail "%s:%d: bad comment line %S" path ln line
      end
      else
        match String.index_opt line ' ' with
        | None -> fail "%s:%d: sample without value: %S" path ln line
        | Some sp ->
            let name = String.sub line 0 sp in
            let value =
              String.sub line (sp + 1) (String.length line - sp - 1)
            in
            (* Histogram samples carry a {le="..."} selector. *)
            let base =
              match String.index_opt name '{' with
              | Some b -> String.sub name 0 b
              | None -> name
            in
            if not (metric_name_ok base) then
              fail "%s:%d: bad metric name %s" path ln base;
            if String.length base < 7 || String.sub base 0 7 <> "autocc_" then
              fail "%s:%d: metric %s not autocc_-prefixed" path ln base;
            if float_of_string_opt value = None then
              fail "%s:%d: non-numeric value %S for %s" path ln value base;
            incr samples)
    lines;
  let body = read_file path in
  let mentions sub =
    let n = String.length sub and h = String.length body in
    let rec go i = i + n <= h && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  if not (mentions "autocc_sat_conflicts") then
    fail "%s: no autocc_sat_conflicts metric (solver never sampled?)" path;
  Printf.printf "prom OK: %s (%d samples)\n" path !samples

let validate_top path labels =
  let body = read_file path in
  let mentions sub =
    let n = String.length sub and h = String.length body in
    let rec go i = i + n <= h && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  if not (mentions "autocc top") then fail "%s: missing cockpit header" path;
  List.iter
    (fun label ->
      if not (mentions label) then
        fail "%s: no cockpit row for campaign entry %s" path label)
    labels;
  Printf.printf "top OK: %s (%d campaign entries present)\n" path
    (List.length labels)

let validate_topjson path labels =
  let body = String.trim (read_file path) in
  let j =
    match Obs.Json.parse body with
    | Error e -> fail "%s: unparseable JSON: %s" path e
    | Ok j -> j
  in
  (match Obs.Json.member "schema" j with
  | Some (Obs.Json.Str "autocc.top/1") -> ()
  | _ -> fail "%s: missing or wrong schema member" path);
  (match Obs.Json.member "events" j with
  | Some (Obs.Json.Int n) when n > 0 -> ()
  | _ -> fail "%s: missing or zero events count" path);
  let rows =
    match Obs.Json.member "rows" j with
    | Some (Obs.Json.List l) -> l
    | _ -> fail "%s: rows is not a list" path
  in
  let row_label r =
    match Obs.Json.member "label" r with
    | Some (Obs.Json.Str s) -> Some s
    | _ -> None
  in
  List.iter
    (fun label ->
      match List.find_opt (fun r -> row_label r = Some label) rows with
      | None -> fail "%s: no row for campaign entry %s" path label
      | Some r -> (
          match Obs.Json.member "verdict" r with
          | Some (Obs.Json.Str _) -> ()
          | _ -> fail "%s: row %s has no verdict" path label))
    labels;
  Printf.printf "topjson OK: %s (%d rows)\n" path (List.length rows)

let validate_stalled path =
  let events = parse_events path in
  let count ty = List.length (List.filter (fun s -> type_of s = ty) events) in
  if count "solver_stalled" = 0 then
    fail "%s: watchdog never emitted solver_stalled" path;
  if count "fault_injected" = 0 then
    fail "%s: injected bmc.incr fault never fired" path;
  Printf.printf "stalled OK: %s (%d solver_stalled, %d fault_injected)\n" path
    (count "solver_stalled") (count "fault_injected")

let split_labels s = if s = "" then [] else String.split_on_char ',' s

let () =
  match Array.to_list Sys.argv with
  | [ _; "events"; path ] -> validate_events path []
  | [ _; "events"; path; labels ] -> validate_events path (split_labels labels)
  | [ _; "prom"; path ] -> validate_prom path
  | [ _; "top"; path; labels ] -> validate_top path (split_labels labels)
  | [ _; "topjson"; path; labels ] -> validate_topjson path (split_labels labels)
  | [ _; "stalled"; path ] -> validate_stalled path
  | _ ->
      prerr_endline
        "usage: validate_obs.exe events|prom|stalled FILE | top|topjson FILE \
         LABELS";
      exit 2
