(* The benchmark suite: five product-path workloads, end-to-end metrics
   measured with tracing off, per-layer metrics from a traced run. See
   README.md for the workloads, the metrics and how to read a diff.

   suite [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
         [--trace-file FILE] [--out FILE]
   suite --smoke
   suite diff BASE.json... -- FRESH.json...

   Each workload runs in its own child process (a re-exec of this
   binary), so its peak RSS is its own. Scratch state lives in a private
   directory under .benchsuite_tmp/ in the current directory, removed
   when the workload ends. The last line of standard output is one JSON
   object: correct, attempted, failed and the metrics. *)

open Measure

let scratch_root = ".benchsuite_tmp"
let child_limit_s = 160.

let usage () =
  prerr_string
    "usage: suite [--workload W]... [--seed N] [--seconds S] [--trace 0|1] \
     [--trace-file FILE] [--out FILE]\n\
    \       suite --smoke\n\
    \       suite diff BASE.json... -- FRESH.json...\n\
     workloads: ";
  prerr_endline (String.concat ", " Workloads.names);
  exit 2

(* {1 The child: one workload, one process} *)

let json_of_metrics l =
  Json.Obj
    (List.map
       (fun (name, mt) ->
         ( name,
           Json.Obj
             [
               ("value", Json.Float mt.value);
               ("unit", Json.Str mt.unit_);
               ("n", Json.Int mt.n);
             ] ))
       l)

let child args =
  match args with
  | [ name; seed; seconds; trace; smoke; scratch; result; trace_file ] ->
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      let ctx =
        {
          seed = int_of_string seed;
          seconds = float_of_string seconds;
          traced = trace = "1";
          smoke = smoke = "1";
          scratch;
          cli =
            Filename.concat
              (Filename.dirname (Filename.dirname Sys.executable_name))
              (Filename.concat "bin" "autocc_cli.exe");
          force_mismatch = Sys.getenv_opt "AUTOCC_BENCH_FORCE_MISMATCH" <> None;
        }
      in
      let acc = new_acc () in
      let e2e = (List.assoc name Workloads.all) acc ctx in
      let metrics, extra =
        if ctx.traced then begin
          Spans.write trace_file;
          let layer, per_name = per_layer acc ~trace_path:trace_file in
          (layer, per_name @ acc.extra)
        end
        else (e2e, acc.extra)
      in
      let latencies = group acc.latencies and conflicts = group acc.conflicts in
      let jobs =
        List.map
          (fun kind ->
            let all l = Option.value ~default:[] (List.assoc_opt kind l) in
            ( kind,
              Json.Obj
                [
                  ("latency_s", Json.List (List.map (fun s -> Json.Float s) (all latencies)));
                  ("conflicts", Json.List (List.map (fun c -> Json.Int c) (all conflicts)));
                ] ))
          (List.sort_uniq compare (List.map fst latencies @ List.map fst conflicts))
      in
      Json.write_file ~path:result
        (Json.Obj
           [
             ("workload", Json.Str name);
             ("seed", Json.Int ctx.seed);
             ("seconds", Json.Float ctx.seconds);
             ("trace", Json.Bool ctx.traced);
             ("correct", Json.Bool (acc.mismatches = []));
             ("attempted", Json.Int acc.attempted);
             ("failed", Json.Int acc.failed);
             ("mismatches", Json.List (List.map (fun s -> Json.Str s) acc.mismatches));
             ("passes", Json.Int acc.passes);
             ("metrics", json_of_metrics metrics);
             ("extra", json_of_metrics extra);
             ("jobs", Json.Obj jobs);
           ]);
      exit 0
  | _ -> usage ()

(* {1 The parent: spawn, watch, report} *)

let child_env () =
  Array.of_list
    (List.filter
       (fun kv ->
         (not (String.starts_with ~prefix:"AUTOCC_" kv))
         || String.starts_with ~prefix:"AUTOCC_BENCH_FORCE_MISMATCH=" kv)
       (Array.to_list (Unix.environment ())))

(* Runs one workload in a child process; [Error] if it crashed or
   overran its time limit (the whole process group is killed then). *)
let run_workload ~name ~seed ~seconds ~traced ~smoke ~trace_file =
  let scratch = Filename.concat scratch_root (Printf.sprintf "%d-%s" (Unix.getpid ()) name) in
  rm_rf scratch;
  mkdir_p scratch;
  let result = Filename.concat scratch "result.json" in
  let trace_file =
    match trace_file with Some f -> f | None -> Filename.concat scratch "trace.json"
  in
  let exe = Sys.executable_name in
  let argv =
    [|
      exe; "child"; name; string_of_int seed; Printf.sprintf "%g" seconds;
      (if traced then "1" else "0"); (if smoke then "1" else "0"); scratch;
      result; trace_file;
    |]
  in
  let pid =
    Unix.create_process_env exe argv (child_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let clean () =
    rm_rf scratch;
    try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()
  in
  let kill_all () =
    (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    clean ()
  in
  (* Stopped from outside: take the workload's processes down with us. *)
  let on_signal =
    Sys.Signal_handle
      (fun _ ->
        kill_all ();
        exit 2)
  in
  let prev_term = Sys.signal Sys.sigterm on_signal in
  let prev_int = Sys.signal Sys.sigint on_signal in
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () -. t0 < child_limit_s ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        kill_all ();
        Error (Printf.sprintf "%s: no result within %.0fs" name child_limit_s)
    | _, Unix.WEXITED 0 -> (
        try Ok (read_json result)
        with Failure e | Sys_error e -> Error (name ^ ": " ^ e))
    | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
        Error (Printf.sprintf "%s: workload process failed (status %d)" name c)
  in
  let r = wait () in
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  clean ();
  r

let jbool k j = Json.member k j = Some (Json.Bool true)
let jint k j = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

let jnum = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

let jfields k j = match Json.member k j with Some (Json.Obj l) -> l | _ -> []

let print_result r =
  let name = match Json.member "workload" r with Some (Json.Str s) -> s | _ -> "?" in
  Printf.printf "%s: seed %d, %d pass(es), %d jobs attempted, %d failed, verdicts %s\n"
    name (jint "seed" r) (jint "passes" r) (jint "attempted" r) (jint "failed" r)
    (if jbool "correct" r then "correct" else "WRONG");
  (match Json.member "mismatches" r with
  | Some (Json.List l) ->
      List.iter (function Json.Str s -> Printf.printf "  MISMATCH %s\n" s | _ -> ()) l
  | _ -> ());
  let row (k, v) =
    Printf.printf "  %-28s %14.6f %-7s n=%d\n" k
      (jnum (Json.member "value" v))
      (match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "")
      (jint "n" v)
  in
  List.iter row (jfields "metrics" r);
  List.iter row (jfields "extra" r)

(* The contract line: value and unit of every metric, nothing else. *)
let final_line ~correct ~attempted ~failed metrics =
  let metrics =
    List.map
      (fun (k, v) ->
        ( k,
          Json.Obj
            [
              ("value", Option.value ~default:Json.Null (Json.member "value" v));
              ("unit", Option.value ~default:Json.Null (Json.member "unit" v));
            ] ))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

let main args =
  let workloads = ref [] and seed = ref 1 and seconds = ref 20. and traced = ref false in
  let trace_file = ref None and out = ref None in
  let rec parse = function
    | "--workload" :: w :: rest when List.mem w Workloads.names ->
        workloads := !workloads @ [ w ];
        parse rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some n -> seed := n; parse rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s; parse rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest ->
        traced := t = "1";
        parse rest
    | "--trace-file" :: f :: rest ->
        trace_file := Some f;
        parse rest
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let names = if !workloads = [] then Workloads.names else !workloads in
  let trace_path name =
    match !trace_file with
    | Some f when List.length names > 1 ->
        Some (Filename.remove_extension f ^ "." ^ name ^ Filename.extension f)
    | f -> f
  in
  let results =
    List.map
      (fun name ->
        match
          run_workload ~name ~seed:!seed ~seconds:!seconds ~traced:!traced ~smoke:false
            ~trace_file:(trace_path name)
        with
        | Ok r ->
            print_result r;
            r
        | Error e ->
            prerr_endline ("suite: " ^ e);
            exit 2)
      names
  in
  Option.iter
    (fun path ->
      Json.write_file ~path
        (Json.Obj
           [
             ("schema", Json.Str "autocc.suite/1");
             ("seed", Json.Int !seed);
             ("seconds", Json.Float !seconds);
             ("trace", Json.Bool !traced);
             ("workloads", Json.List results);
           ]))
    !out;
  let correct = List.for_all (jbool "correct") results in
  let sum k = List.fold_left (fun n r -> n + jint k r) 0 results in
  let metrics =
    match results with
    | [ r ] -> jfields "metrics" r
    | _ ->
        List.concat_map
          (fun r ->
            let w = match Json.member "workload" r with Some (Json.Str s) -> s | _ -> "?" in
            List.map (fun (k, v) -> (w ^ "/" ^ k, v)) (jfields "metrics" r))
          results
  in
  final_line ~correct ~attempted:(sum "attempted") ~failed:(sum "failed") metrics;
  exit (if correct then 0 else 1)

(* {1 Smoke: every declared metric, on tiny sizes} *)

let smoke () =
  let declared key =
    List.map (fun (n, d) -> (n, d.Compare_runs.unit_)) (Compare_runs.declared key)
  in
  let e2e = declared "end_to_end" and layer = declared "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check name r decl ~positive =
    if not (jbool "correct" r) then problem "%s: verdicts wrong" name;
    if jint "failed" r > 0 then problem "%s: %d jobs failed" name (jint "failed" r);
    let got = jfields "metrics" r in
    List.iter
      (fun (m, u) ->
        match List.assoc_opt m got with
        | None -> problem "%s: metric %s missing" name m
        | Some v ->
            let x = jnum (Json.member "value" v) in
            if Json.member "unit" v <> Some (Json.Str u) then
              problem "%s: metric %s lacks unit %s" name m u;
            if jint "n" v < 1 then problem "%s: metric %s has no samples" name m;
            if Float.is_nan x || (positive && x <= 0.) then
              problem "%s: metric %s reads %g" name m x)
      decl
  in
  List.iter
    (fun name ->
      let run traced =
        match run_workload ~name ~seed:1 ~seconds:0.5 ~traced ~smoke:true ~trace_file:None with
        | Ok r -> Some r
        | Error e ->
            problem "%s" e;
            None
      in
      Option.iter (fun r -> check name r e2e ~positive:true) (run false);
      Option.iter
        (fun r ->
          check name r layer ~positive:false;
          let coverage =
            jnum (Option.bind (List.assoc_opt "trace.coverage" (jfields "metrics" r)) (Json.member "value"))
          in
          Printf.printf "smoke %-14s trace folded by Obs.Profile, coverage %.3f\n%!" name coverage;
          if not (coverage >= 0.9) then problem "%s: trace coverage %.3f" name coverage)
        (run true))
    Workloads.names;
  match !problems with
  | [] ->
      print_endline "smoke OK: every declared metric emitted with unit and n; verdicts correct";
      exit 0
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke FAILED: " ^ p)) (List.rev ps);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: rest -> child rest
  | "diff" :: rest -> Compare_runs.main rest
  | [ "--smoke" ] -> smoke ()
  | args -> main args
