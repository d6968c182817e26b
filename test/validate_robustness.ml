(* Validates BENCH_robustness.json from a real `bench robustness` run —
   half of the [@robustness-smoke] gate. Usage:

     validate_robustness.exe BENCH_robustness.json

   The bench starves a MAPLE check with an already-expired deadline
   (plus a retry policy) and then re-runs it unbudgeted. This checks the
   recorded outcome: the starved run ended Unknown with at least one
   timeout and at least one retry attempt accounted, the reference run
   stayed conclusive, the bench's own soundness expectations all held
   (failures = 0), and the top-level retry count equals the bmc.retries
   counter of the telemetry snapshot. Exits non-zero on the first
   violation. *)

module Json = Obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  contents

let parse path =
  match Json.parse (read_file path) with
  | Ok j ->
      (match Json.parse (Json.to_string j) with
      | Ok j' when j' = j -> ()
      | Ok _ -> fail "%s does not round-trip through the JSON printer" path
      | Error e -> fail "%s re-parse failed: %s" path e);
      j
  | Error e -> fail "%s does not parse: %s" path e

let str_field what name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> fail "%s lacks string field %S: %s" what name (Json.to_string j)

let int_field what name j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | _ -> fail "%s lacks int field %S: %s" what name (Json.to_string j)

let obj_field what name j =
  match Json.member name j with
  | Some (Json.Obj _ as o) -> o
  | _ -> fail "%s lacks object field %S" what name

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_outcome path name ~want_unknown j =
  let o = obj_field path name j in
  let verdict = str_field path "verdict" o in
  ignore (int_field path "depth" o);
  (match Json.member "wall_s" o with
  | Some (Json.Float _ | Json.Int _) -> ()
  | _ -> fail "%s: %s lacks wall_s" path name);
  ignore (obj_field path "stats" o);
  if want_unknown then begin
    if not (starts_with "unknown:" verdict) then
      fail "%s: the starved run must be Unknown, got %S" path verdict
  end
  else if not (List.mem verdict [ "cex"; "bounded_proof" ]) then
    fail "%s: the unbudgeted run must be conclusive, got %S" path verdict;
  verdict

let () =
  match Sys.argv with
  | [| _; path |] ->
      let j = parse path in
      if str_field path "bench" j <> "robustness" then
        fail "%s is not a robustness bench record" path;
      if int_field path "failures" j <> 0 then
        fail "%s: the bench recorded soundness failures" path;
      let unknown = int_field path "unknown" j in
      let timeouts = int_field path "timeouts" j in
      let retries = int_field path "retries" j in
      if unknown < 1 then fail "%s: the starved sweep recorded no Unknown jobs" path;
      if timeouts < 1 then
        fail "%s: a wall-clock budget fired but no timeout was counted" path;
      if retries < 1 then fail "%s: no retry attempts were accounted" path;
      let budgeted = check_outcome path "budgeted" ~want_unknown:true j in
      let unbudgeted = check_outcome path "unbudgeted" ~want_unknown:false j in
      let telemetry = obj_field path "telemetry" j in
      if int_field path "bmc.retries" telemetry <> retries then
        fail "%s: retries disagrees with the telemetry's bmc.retries" path;
      Printf.printf
        "robustness bench OK: %s (starved: %s; reference: %s; %d unknown, %d timeouts, %d retries)\n"
        path budgeted unbudgeted unknown timeouts retries
  | _ ->
      prerr_endline "usage: validate_robustness BENCH_robustness.json";
      exit 2
