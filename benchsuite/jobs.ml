(* The jobs the workloads run, each with its committed expected outcome.

   Depths use the engine's 0-based convention everywhere — the cycle index
   of a counterexample ([cex_depth]), the bound of a bounded proof
   ([depth_reached]) and the k of a k-induction proof — and the suite
   prints exactly the number it records. DUTs are built by the job-list
   constructors, which the workloads call at set-up; a job's [ft] thunk
   generates a fresh FT on the prebuilt DUT, under its own spans. *)

module V = Duts.Vscale
module M = Duts.Maple
module A = Duts.Aes
module C = Duts.Cva6lite
module D = Duts.Divider

type engine = Check | Prove

type job = {
  id : string;  (** row name and bound, e.g. ["V5@8"] *)
  engine : engine;
  depth : int;  (** [max_depth] passed to the engine *)
  ft : unit -> Autocc.Ft.t;
  expect : string * int;  (** verdict kind and 0-based depth *)
}

let generate f = Spans.span "core.generate" f
let build f = Spans.span "duts.build" f

let job ?(engine = Check) id depth expect mk =
  { id; engine; depth; ft = (fun () -> generate mk); expect }

let maple_ft ?(require_outbuf_empty = true) dut () =
  Autocc.Ft.generate ~threshold:2
    ~flush_done:(M.flush_done ~require_outbuf_empty ())
    dut

let cva6_ft dut () =
  Autocc.Ft.generate ~threshold:2 ~flush_done:(C.flush_done ()) dut

let flush_start_ft dut () =
  Autocc.Ft.generate ~threshold:2 ~sync:Autocc.Ft.Flush_start
    ~flush_done:(M.flush_start ~require_outbuf_empty:true ())
    dut

(* {1 deep_proof: bounded proofs on fixed RTL}

   Only rows whose solver trajectory repeats exactly. On the larger DUTs
   the [-O2] SAT sweep's wall-clock bail-out changes what it seeds into
   the BMC solver from one run to the next, so conflicts and wall time
   drift: Vscale's [Arch_irq] proof ([V]) and the CVA6 microreset proofs
   at depths 11 and 13 are left out for that reason (README.md has the
   measurements). *)

let deep_proof () =
  let maple_fixed = build (fun () -> M.create ~config:M.fixed ()) in
  let maple_padded =
    build (fun () -> M.create ~config:M.fixed ~pad_flush:true ())
  in
  let divider = build (fun () -> D.create ()) in
  let aes = build (fun () -> A.create ()) in
  let aes_idle () =
    Autocc.Ft.generate ~threshold:2 ~flush_done:(A.flush_done_idle ()) aes
  in
  [
    job "Mfix@10" 10 ("proof", 10) (maple_ft maple_fixed);
    job "L1@12" 12 ("proof", 12) (maple_ft maple_fixed);
    job "L3@12" 12 ("proof", 12) (flush_start_ft maple_padded);
    job "D2@12" 12 ("proof", 12) (fun () ->
        Autocc.Ft.generate ~threshold:2 ~flush_done:(D.flush_done_idle ())
          divider);
    job "D3@12" 12 ("proof", 12) (fun () ->
        Autocc.Ft.generate ~threshold:2 ~assumes:D.constant_time_software
          divider);
    job "A@14" 14 ("proof", 14) aes_idle;
    job ~engine:Prove "Aind@20" 20 ("proved", 8) aes_idle;
  ]

(* {1 cex_sweep: the counterexample rows of Tables 1 and 2 and Sec. 5} *)

let wide_leaky w =
  let open Rtl.Signal in
  let din = input "din" w in
  let capture = input "capture" 1 in
  let query = input "query" w in
  let stash = reg "stash" w in
  reg_set_next stash (mux2 capture din stash);
  Rtl.Circuit.create ~name:"wide_leaky" ~outputs:[ ("hit", query ==: stash) ] ()

let sample_dut_path = Filename.concat "examples" "sample_dut.sv"

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let cex_sweep () =
  let vscale = build V.create in
  let cva6 config = build (fun () -> C.create ~config ()) in
  let c1 = cva6 (C.with_fixes ~fix_c1:false C.Microreset) in
  let c2 = cva6 (C.with_fixes ~fix_c2:false C.Microreset) in
  let c3 = cva6 (C.with_fixes ~fix_c3:false C.Microreset) in
  let plain = cva6 C.plain_fence in
  let full = cva6 C.full_flush in
  let maple config = build (fun () -> M.create ~config ()) in
  let m_fixed = maple M.fixed in
  let m2 = maple { M.fix_m2 = false; fix_m3 = true } in
  let m3 = maple { M.fix_m2 = true; fix_m3 = false } in
  let aes = build (fun () -> A.create ()) in
  let divider = build (fun () -> D.create ()) in
  let leaky = build (fun () -> Duts.Bundled.build "leaky") in
  let sv = build (fun () -> read_file sample_dut_path) in
  let wides = List.map (fun w -> (w, build (fun () -> wide_leaky w))) [ 4; 8; 12; 16; 20 ] in
  let vrow (name, stage, d) =
    job (name ^ "@8") 8 ("cex", d) (fun () -> V.ft_for_stage stage vscale)
  in
  List.map vrow
    [
      ("V1", V.Default, 4);
      ("V2", V.Arch_regfile, 4);
      ("V3", V.Blackbox_csr, 4);
      ("V4", V.Arch_pc, 4);
      ("V5", V.Arch_pipeline, 4);
    ]
  @ [
      job "C1@15" 15 ("cex", 8) (cva6_ft c1);
      job "C2@11" 11 ("cex", 9) (cva6_ft c2);
      job "C3@11" 11 ("cex", 7) (cva6_ft c3);
      job "Cplain@10" 10 ("cex", 6) (cva6_ft plain);
      job "Cfull@10" 10 ("cex", 6) (cva6_ft full);
      job "M1@10" 10 ("cex", 6) (maple_ft ~require_outbuf_empty:false m_fixed);
      job "M2@10" 10 ("cex", 5) (maple_ft m2);
      job "M3@10" 10 ("cex", 5) (maple_ft m3);
      job "A1@12" 12 ("cex", 8) (fun () -> Autocc.Ft.generate ~threshold:2 aes);
      job "D1@12" 12 ("cex", 4) (fun () ->
          Autocc.Ft.generate ~threshold:2 divider);
      job "L2@12" 12 ("cex", 6) (flush_start_ft m_fixed);
      job "leaky@8" 8 ("cex", 4) (fun () ->
          Duts.Bundled.ft_for ~threshold:2 "leaky" leaky);
      {
        id = "sv@8";
        engine = Check;
        depth = 8;
        expect = ("cex", 4);
        ft =
          (fun () ->
            let dut =
              Spans.span "frontend.elaborate" (fun () ->
                  Frontend.Elaborate.circuit_of_string sv)
            in
            generate (fun () -> Autocc.Ft.generate ~threshold:2 dut));
      };
    ]
  @ List.map
      (fun (w, dut) ->
        job (Printf.sprintf "wide%d@8" w) 8 ("cex", 4) (fun () ->
            Autocc.Ft.generate ~threshold:2 dut))
      wides

(* {1 Campaign entries: the six bundled DUTs plus MAPLE fixed}

   Built the way [autocc campaign] builds them ({!Duts.Bundled}, stage 0,
   threshold 2). [cva6_fix_c1] is the RTL edit of [campaign_warm]: the
   C1 fix flipped on. [counts] are the assertions swept and the raw
   counterexamples found — both fixed by the RTL. The number of distinct
   channels is not committed: clustering follows the witness the solver
   returns among equal-depth ones, and at [-O2] that choice drifts from
   run to run with the optimizer's SAT sweep, whose wall-clock bail-out
   decides what it seeds into the BMC solver (vscale clusters into 3 or
   4 channels, cva6 into 3 to 5; at [-O1] both give 3 every time). *)

type entry = {
  label : string;
  e_dut : string;
  e_depth : int;
  e_ft : unit -> Autocc.Ft.t;
  counts : int * int;
}

let campaign_depth = 8

let campaign_entries ?(cva6_fix_c1 = false) () =
  let bundled ?(fixes = Duts.Bundled.no_fixes) ?(label = "") name depth counts =
    let dut = build (fun () -> Duts.Bundled.build ~fixes name) in
    {
      label = (if label = "" then name else label);
      e_dut = name;
      e_depth = depth;
      e_ft = (fun () -> generate (fun () -> Duts.Bundled.ft_for ~threshold:2 name dut));
      counts;
    }
  in
  let fixed_maple =
    { Duts.Bundled.no_fixes with fix_m2 = true; fix_m3 = true }
  in
  [
    bundled "vscale" campaign_depth (4, 4);
    bundled "maple" campaign_depth (6, 3);
    bundled "aes" campaign_depth (2, 0);
    (if cva6_fix_c1 then
       bundled ~fixes:{ Duts.Bundled.no_fixes with fix_c1 = true } "cva6"
         campaign_depth (8, 4)
     else bundled "cva6" campaign_depth (8, 7));
    bundled "divider" campaign_depth (4, 0);
    bundled "leaky" campaign_depth (1, 1);
    bundled ~fixes:fixed_maple ~label:"maple_fixed" "maple" 10 (6, 0);
  ]

(* {1 serve_stream: the DUT mix submitted to the daemon} *)

let serve_duts = [ "leaky"; "divider"; "maple"; "aes" ]
let serve_depth = 6

let serve_expect = function
  | "leaky" -> ("cex", 4)
  | "divider" -> ("proof", 6)
  | "maple" -> ("cex", 5)
  | "aes" -> ("proof", 6)
  | d -> invalid_arg ("serve dut " ^ d)

let serve_reference () =
  List.map
    (fun name ->
      let dut = build (fun () -> Duts.Bundled.build name) in
      job (name ^ "@6") serve_depth (serve_expect name) (fun () ->
          Duts.Bundled.ft_for ~threshold:2 name dut))
    serve_duts
