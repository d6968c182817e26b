let diff_at ft cex =
  match Ft.spy_start_cycle ft cex with
  | None -> (None, [])
  | Some cycle -> (Some cycle, Ft.state_diff ft cex ~cycle)

let first_divergence ft cex =
  let module Signal = Rtl.Signal in
  let module Circuit = Rtl.Circuit in
  let pairs =
    List.map
      (fun r -> ((Signal.reg_of r).Signal.reg_name, ft.Ft.map_a r, ft.Ft.map_b r))
      (Circuit.regs ft.Ft.dut)
  in
  let watched = List.concat_map (fun (_, a, b) -> [ a; b ]) pairs in
  let values = Bmc.replay_values cex watched in
  let arr s = List.assq s values in
  List.filter_map
    (fun (name, a, b) ->
      let va = arr a and vb = arr b in
      let n = Array.length va in
      let rec find i =
        if i >= n then None
        else if not (Bitvec.equal va.(i) vb.(i)) then Some (name, i)
        else find (i + 1)
      in
      find 0)
    pairs
  |> List.stable_sort (fun (_, c1) (_, c2) -> compare c1 c2)

let pp_first_divergence fmt ft cex =
  match first_divergence ft cex with
  | [] -> Format.fprintf fmt "first divergence: none (no register differs)"
  | l ->
      Format.fprintf fmt "first divergence: %s"
        (String.concat ", "
           (List.map (fun (n, c) -> Printf.sprintf "%s@%d" n c) l))

let explain fmt ft cex =
  Format.fprintf fmt "=== AutoCC counterexample ===@.";
  Format.fprintf fmt "DUT: %s@." (Rtl.Circuit.name ft.Ft.dut);
  Format.fprintf fmt "Failing assertion(s): %s@."
    (String.concat ", " cex.Bmc.cex_failed);
  Format.fprintf fmt "Depth: %d (%d cycles)@." cex.Bmc.cex_depth
    (cex.Bmc.cex_depth + 1);
  (match diff_at ft cex with
  | None, _ -> Format.fprintf fmt "Spy mode never set along the trace (unexpected).@."
  | Some cycle, diffs ->
      Format.fprintf fmt "Spy process begins at cycle %d.@." cycle;
      if diffs = [] then
        Format.fprintf fmt
          "No register differs at spy start: divergence is in-flight (pipeline contents).@."
      else begin
        Format.fprintf fmt
          "Microarchitectural state differing at spy start (alpha vs beta):@.";
        List.iter
          (fun (name, va, vb) ->
            Format.fprintf fmt "  %-32s %s vs %s@." name
              (Bitvec.to_hex_string va) (Bitvec.to_hex_string vb))
          diffs
      end);
  (match first_divergence ft cex with
  | [] -> ()
  | (root, cycle) :: _ as all ->
      Format.fprintf fmt "Earliest state divergence: %s at cycle %d%s@." root cycle
        (match all with
        | _ :: (next, c2) :: _ -> Printf.sprintf " (then %s at cycle %d)" next c2
        | _ -> ""));
  Format.fprintf fmt "Input trace:@.";
  Bmc.pp_cex fmt cex

let summary ft cex =
  let _, diffs = diff_at ft cex in
  let culprits =
    match diffs with
    | [] -> "in-flight state"
    | l -> String.concat "," (List.map (fun (n, _, _) -> n) l)
  in
  Printf.sprintf "%s @ depth %d via %s"
    (String.concat "," cex.Bmc.cex_failed)
    (cex.Bmc.cex_depth + 1) culprits

let dump_vcd ~path ft cex =
  let module Signal = Rtl.Signal in
  let module Circuit = Rtl.Circuit in
  let dut = ft.Ft.dut in
  let monitor =
    [
      ("spy_mode", ft.Ft.spy_mode);
      ("transfer_cond", ft.Ft.transfer_cond);
      ("eq_cnt", ft.Ft.eq_cnt);
      ("flush_done", ft.Ft.flush_done);
    ]
  in
  let per_universe prefix m =
    List.map
      (fun p -> (prefix ^ p.Circuit.port_name, m p.Circuit.signal))
      (Circuit.outputs dut)
    @ List.map
        (fun r -> (prefix ^ (Signal.reg_of r).Signal.reg_name, m r))
        (Circuit.regs dut)
  in
  let labelled =
    monitor @ per_universe "ua." ft.Ft.map_a @ per_universe "ub." ft.Ft.map_b
  in
  let values = Bmc.replay_values cex (List.map snd labelled) in
  let traces =
    List.map2 (fun (label, _) (_, vs) -> (label, vs)) labelled values
  in
  Rtl.Vcd.write ~path ~module_name:(Circuit.name dut ^ "_ft") traces
