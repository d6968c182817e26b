(* suite diff: two sets of run files (written by [suite --out]) compared
   per workload and metric — each side's median and quartiles, and for
   end-to-end metrics a verdict against the direction and bound that
   BENCHMARK.json declares. Exits 1 on a regression.

   A metric whose spread (quartile distance over median) on either side
   is wider than its bound is "unresolved" unless every fresh run beats
   every base run. Jobs whose [sat.conflicts] differ between the files
   of one side are listed as nondeterministic trajectories: the solver
   took a different path on the same input, so their times are not
   comparable run to run. *)

module Json = Obs.Json

type decl = { unit_ : string; higher : bool; bound : float option }

(* The metrics one section of BENCHMARK.json, in the current directory,
   declares. *)
let declared key =
  let path = "BENCHMARK.json" in
  match Json.member key (Measure.read_json path) with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
          | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) ->
              let bound =
                match Json.member "bound" m with
                | Some (Json.Float f) -> Some f
                | Some (Json.Int i) -> Some (float_of_int i)
                | _ -> None
              in
              Some (n, { unit_ = u; higher = b = "higher"; bound })
          | _ -> None)
        l
  | _ -> failwith (path ^ ": no " ^ key)

(* workload -> list of results, one per file *)
let load files =
  List.concat_map
    (fun path ->
      match Json.member "workloads" (Measure.read_json path) with
      | Some (Json.List l) ->
          List.filter_map
            (fun r ->
              match Json.member "workload" r with
              | Some (Json.Str w) -> Some (w, r)
              | _ -> None)
            l
      | _ -> failwith (path ^ ": not a suite run file"))
    files

let values side w metric =
  List.filter_map
    (fun (w', r) ->
      if w' <> w then None
      else
        match Json.member "metrics" r with
        | Some m -> (
            match Json.member metric m with
            | Some v -> (
                match Json.member "value" v with
                | Some (Json.Float f) -> Some f
                | Some (Json.Int i) -> Some (float_of_int i)
                | _ -> None)
            | None -> None)
        | None -> None)
    side

let spread l =
  let q1, q3 = Stat.quartiles l in
  let md = Stat.median l in
  if md = 0. then 0. else (q3 -. q1) /. Float.abs md

let nondeterministic label side =
  let by_job = Hashtbl.create 16 in
  List.iter
    (fun (w, r) ->
      match Json.member "jobs" r with
      | Some (Json.Obj jobs) ->
          List.iter
            (fun (kind, j) ->
              match Json.member "conflicts" j with
              | Some (Json.List cs) ->
                  List.iter
                    (function
                      | Json.Int c ->
                          let k = (w, kind) in
                          let prev = Option.value ~default:[] (Hashtbl.find_opt by_job k) in
                          if not (List.mem c prev) then Hashtbl.replace by_job k (c :: prev)
                      | _ -> ())
                    cs
              | _ -> ())
            jobs
      | _ -> ())
    side;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_job []
  |> List.filter (fun (_, cs) -> List.length cs > 1)
  |> List.sort compare
  |> List.iter (fun ((w, kind), cs) ->
         Printf.printf "  %s %s %s: sat.conflicts %s\n" label w kind
           (String.concat ", " (List.map string_of_int (List.sort compare cs))))

let main args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let base_files, fresh_files = split [] args in
  if base_files = [] || fresh_files = [] then begin
    prerr_endline "usage: suite diff BASE.json... -- FRESH.json...";
    exit 2
  end;
  let decl = declared "end_to_end" @ declared "per_layer" in
  let base = load base_files and fresh = load fresh_files in
  let workloads = List.sort_uniq compare (List.map fst (base @ fresh)) in
  let regressions = ref 0 in
  Printf.printf "%d base file(s), %d fresh file(s)\n" (List.length base_files)
    (List.length fresh_files);
  Printf.printf "%-14s %-24s %-30s %-30s %8s %6s  %s\n" "WORKLOAD" "METRIC"
    "BASE median [q1, q3]" "FRESH median [q1, q3]" "CHANGE" "BOUND" "VERDICT";
  List.iter
    (fun w ->
      List.iter
        (fun (metric, d) ->
          let b = values base w metric and f = values fresh w metric in
          if b <> [] && f <> [] then begin
            let bm = Stat.median b and fm = Stat.median f in
            let change = if bm = 0. then 0. else (fm -. bm) /. Float.abs bm in
            let worse = if d.higher then -.change else change in
            let show l =
              let q1, q3 = Stat.quartiles l in
              Printf.sprintf "%.4g [%.4g, %.4g]" (Stat.median l) q1 q3
            in
            let verdict, bound =
              match d.bound with
              | None -> ("", "-")
              | Some bound ->
                  let all_better =
                    List.for_all
                      (fun x ->
                        List.for_all (fun y -> if d.higher then x > y else x < y) b)
                      f
                  in
                  let v =
                    if Float.max (spread b) (spread f) > bound then
                      if all_better then "improved" else "unresolved"
                    else if worse > bound then begin
                      incr regressions;
                      "REGRESSED"
                    end
                    else if -.worse > bound then "improved"
                    else "ok"
                  in
                  (v, Printf.sprintf "%.0f%%" (bound *. 100.))
            in
            Printf.printf "%-14s %-24s %-30s %-30s %+7.1f%% %6s  %s (spread %.1f%%/%.1f%%)\n" w
              (metric ^ " " ^ d.unit_) (show b) (show f) (100. *. change) bound verdict
              (100. *. spread b) (100. *. spread f)
          end)
        decl)
    workloads;
  print_endline "nondeterministic trajectories (same job, different conflict counts):";
  nondeterministic "base" base;
  nondeterministic "fresh" fresh;
  if !regressions > 0 then begin
    Printf.printf "suite diff: %d regression(s) beyond the declared bounds\n" !regressions;
    exit 1
  end
  else print_endline "suite diff: no regression beyond the declared bounds"
