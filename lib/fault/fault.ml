(* Deterministic fault injection. Disarmed, a probe is one Atomic.get of
   [state]; armed, each hit hashes (seed, site, per-site counter) and
   fires when the hash lands under the armed rate. Counters live behind
   one mutex — armed runs are test runs, so the lock is not a hot-path
   concern, and it keeps per-site sequences well-defined under domains. *)

exception Injected of string

type config = {
  seed : int;
  threshold : int; (* fire when hash mod 1_000_000 < threshold *)
  sites : string list option; (* None = every site *)
}

(* [seed] rolls the dice: the armed [config.seed] plus the offset of the
   last [reseed]. *)
type state = { config : config; seed : int; mutable hits : int; mutable fired : int }

let state : state option Atomic.t = Atomic.make None
let lock = Mutex.create ()
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let arm ?sites ?(rate = 0.01) ~seed () =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Fault.arm: rate must be in [0, 1]";
  Mutex.lock lock;
  Hashtbl.reset counters;
  Atomic.set state
    (Some
       {
         config = { seed; threshold = int_of_float (rate *. 1_000_000.); sites };
         seed;
         hits = 0;
         fired = 0;
       });
  Mutex.unlock lock

let disarm () =
  Mutex.lock lock;
  Hashtbl.reset counters;
  Atomic.set state None;
  Mutex.unlock lock

let armed () = Atomic.get state <> None

let reseed ~offset =
  match Atomic.get state with
  | None -> ()
  | Some st ->
      Mutex.lock lock;
      Hashtbl.reset counters;
      Atomic.set state
        (Some { st with seed = st.config.seed + offset; hits = 0; fired = 0 });
      Mutex.unlock lock

let arm_from_env () =
  match Sys.getenv_opt "AUTOCC_FAULT" with
  | None | Some "" -> ()
  | Some spec ->
      let seed = ref 0 and rate = ref 0.01 and sites = ref None in
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | None -> failwith ("AUTOCC_FAULT: expected key=value, got " ^ kv)
          | Some i -> (
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match k with
              | "seed" -> (
                  match int_of_string_opt v with
                  | Some n -> seed := n
                  | None -> failwith ("AUTOCC_FAULT: bad seed " ^ v))
              | "rate" -> (
                  match float_of_string_opt v with
                  | Some r when r >= 0. && r <= 1. -> rate := r
                  | _ -> failwith ("AUTOCC_FAULT: bad rate " ^ v))
              | "sites" -> sites := Some (String.split_on_char ';' v)
              | _ -> failwith ("AUTOCC_FAULT: unknown key " ^ k)))
        (String.split_on_char ',' spec);
      arm ?sites:!sites ~rate:!rate ~seed:!seed ()

(* splitmix64 finalizer — a well-mixed pure function of the inputs. *)
let mix x =
  let x = Int64.of_int x in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor x (Int64.shift_right_logical x 31)) land max_int

let site_hash site =
  (* FNV-1a over the site name; folded into the per-hit mix. *)
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int) site;
  !h

let decide st site =
  let enabled =
    match st.config.sites with None -> true | Some l -> List.mem site l
  in
  if not enabled then false
  else begin
    let n =
      match Hashtbl.find_opt counters site with Some n -> n | None -> 0
    in
    Hashtbl.replace counters site (n + 1);
    st.hits <- st.hits + 1;
    let h = mix (st.seed lxor site_hash site lxor (n * 0x9e3779b9)) in
    let fire = h mod 1_000_000 < st.config.threshold in
    if fire then st.fired <- st.fired + 1;
    fire
  end

let fire site =
  match Atomic.get state with
  | None -> false
  | Some st ->
      Mutex.lock lock;
      let r = decide st site in
      Mutex.unlock lock;
      r

let point site = if fire site then raise (Injected site)

let hits () =
  match Atomic.get state with None -> 0 | Some st -> st.hits

let fired () =
  match Atomic.get state with None -> 0 | Some st -> st.fired
