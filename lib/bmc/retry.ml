(* Retry schedule (budget escalation, config rotation, capped
   exponential backoff) as pure functions, and [run], the loop that
   drives it — see retry.mli. *)

type policy = {
  max_attempts : int;
  growth : float;
  cap : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  alternate_configs : Sat.Solver.config list;
}

let default =
  {
    max_attempts = 1;
    growth = 4.;
    cap = 64.;
    backoff_base_s = 0.05;
    backoff_cap_s = 2.;
    alternate_configs = [];
  }

let policy ?(max_attempts = 3) ?(growth = 4.) ?(cap = 64.)
    ?(backoff_base_s = 0.05) ?(backoff_cap_s = 2.) ?alternate_configs () =
  if max_attempts < 1 then invalid_arg "Retry.policy: max_attempts must be >= 1";
  if growth < 1. then invalid_arg "Retry.policy: growth must be >= 1";
  if backoff_base_s < 0. || backoff_cap_s < 0. then
    invalid_arg "Retry.policy: backoff delays must be non-negative";
  let alternate_configs =
    match alternate_configs with
    | Some l -> l
    | None -> List.tl (Sat.Solver.portfolio 4)
  in
  { max_attempts; growth; cap; backoff_base_s; backoff_cap_s; alternate_configs }

let scale p ~attempt =
  if attempt <= 0 then 1. else min (p.growth ** float_of_int attempt) p.cap

let budget_for p (b : Bmc.budget) ~attempt =
  let s = scale p ~attempt in
  let scale_int = Option.map (fun n -> max 1 (int_of_float (float_of_int n *. s))) in
  {
    Bmc.bud_wall_s = Option.map (fun w -> w *. s) b.Bmc.bud_wall_s;
    bud_conflicts = scale_int b.Bmc.bud_conflicts;
    bud_learnts = scale_int b.Bmc.bud_learnts;
  }

let config_for p ~attempt =
  if attempt <= 0 then None
  else
    match p.alternate_configs with
    | [] -> None
    | l -> Some (List.nth l ((attempt - 1) mod List.length l))

let backoff_s p ~attempt =
  if attempt <= 0 then 0.
  else min (p.backoff_base_s *. (2. ** float_of_int (attempt - 1))) p.backoff_cap_s

let should_retry p ~attempt reason =
  attempt + 1 < p.max_attempts
  &&
  match reason with
  | Bmc.Budget_exhausted _ | Bmc.Faulted _ -> true
  | Bmc.Bound_exhausted -> false

let m_retries = lazy (Obs.Metrics.counter "bmc.retries")

let count n =
  if Obs.Metrics.enabled () then Obs.Metrics.add (Lazy.force m_retries) n

let run p ~budget ~reason_of f =
  let rec loop attempt =
    let r =
      if attempt = 0 then f ~budget ~solver_config:None
      else
        f ~budget:(budget_for p budget ~attempt)
          ~solver_config:(config_for p ~attempt)
    in
    match reason_of r with
    | Some reason when should_retry p ~attempt reason ->
        let attempt = attempt + 1 in
        let reason = Bmc.unknown_reason_to_string reason in
        count 1;
        Obs.Bus.publish (Obs.Bus.Retry { attempt; reason });
        let d = backoff_s p ~attempt in
        if d > 0. then Unix.sleepf d;
        loop attempt
    | _ -> r
  in
  loop 0
