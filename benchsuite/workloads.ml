(* The five workloads. Why each one is in the suite, and which layer
   metric should move which end-to-end metric on it, is in README.md and
   BENCHMARK.json. *)

open Measure

(* deep_proof and cex_sweep: product-path jobs, one [Ft.check] or
   [Ft.prove] call each on a freshly generated FT, in seeded order. *)
let product ~jobs ~smoke acc ctx =
  let prepare () =
    let l = jobs () in
    if ctx.smoke then List.filter (fun (j : Jobs.job) -> List.mem j.Jobs.id smoke) l
    else l
  in
  let s = { reps = 5; prepare; teardown = ignore } in
  let jobs = setup acc ctx s in
  timed_passes acc ctx
    ~between:(fun () -> extra_setup acc ctx s)
    (fun rng i -> product_pass acc ctx rng i jobs);
  end_to_end acc

let campaign run acc ctx =
  run acc ctx;
  end_to_end acc

let all =
  [
    ("deep_proof", product ~jobs:Jobs.deep_proof ~smoke:[ "D2@12" ]);
    ("cex_sweep", product ~jobs:Jobs.cex_sweep ~smoke:[ "leaky@8"; "M3@10"; "sv@8" ]);
    ("campaign_cold", campaign Campaigns.cold);
    ("campaign_warm", campaign Campaigns.warm);
    ("serve_stream", Serve_load.run);
  ]

let names = List.map fst all
