(* Runs a suite once per configuration of [Sat.Solver.portfolio 4]: the
   default, and the three alternates a [Retry] policy re-runs an
   inconclusive job under. The configurations steer the search only, so
   every case must pass under each. The default's run keeps the suite's
   plain name, an alternate's adds the configuration's ("sat p1"). Every
   run goes ahead even after one fails; the process then exits 1. *)
let run name (suite : Sat.Solver.config -> unit Alcotest.test list) =
  let failed = ref false in
  List.iter
    (fun (cfg : Sat.Solver.config) ->
      let name =
        if cfg = Sat.Solver.default_config then name else name ^ " " ^ cfg.cfg_name
      in
      try Alcotest.run ~and_exit:false name (suite cfg)
      with Alcotest.Test_error -> failed := true)
    (Sat.Solver.portfolio 4);
  if !failed then exit 1
