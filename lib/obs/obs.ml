(* Telemetry substrate: spans -> Chrome trace events, metrics registry,
   leveled JSONL logging. Everything here must be cheap when disabled
   (one Atomic.get per call site) and callable from any domain. *)

(* {1 JSON} *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let add_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let add_float b f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else if Float.is_nan f || Float.abs f = Float.infinity then
      (* JSON has no NaN/inf; null is the least-wrong encoding. *)
      Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.9g" f)

  let rec to_buffer b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> add_float b f
    | Str s -> add_string b s
    | List l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            to_buffer b x)
          l;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            add_string b k;
            Buffer.add_char b ':';
            to_buffer b v)
          kvs;
        Buffer.add_char b '}'

  let to_string t =
    let b = Buffer.create 256 in
    to_buffer b t;
    Buffer.contents b

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' -> Buffer.add_char b '"'; go ()
            | '\\' -> Buffer.add_char b '\\'; go ()
            | '/' -> Buffer.add_char b '/'; go ()
            | 'b' -> Buffer.add_char b '\b'; go ()
            | 'f' -> Buffer.add_char b '\012'; go ()
            | 'n' -> Buffer.add_char b '\n'; go ()
            | 'r' -> Buffer.add_char b '\r'; go ()
            | 't' -> Buffer.add_char b '\t'; go ()
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape"
                in
                (* UTF-8 encode; surrogates decode to U+FFFD. *)
                let code = if code >= 0xd800 && code <= 0xdfff then 0xfffd else code in
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
                end;
                go ()
            | _ -> fail "bad escape")
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') ->
            advance ();
            go ()
        | Some ('.' | 'e' | 'E') ->
            is_float := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let str key j = match member key j with Some (Str s) -> Some s | _ -> None
  let int key j = match member key j with Some (Int i) -> Some i | _ -> None

  let num key j =
    match member key j with
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None

  let write_file ~path t =
    let oc = open_out path in
    let b = Buffer.create 4096 in
    to_buffer b t;
    Buffer.add_char b '\n';
    output_string oc (Buffer.contents b);
    close_out oc
end

(* {1 Files} *)

module Files = struct
  let rec mkdir_p dir =
    if dir <> "" && not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      (* A concurrent creator winning the race is not an error. *)
      try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
    end

  (* The temp file lives next to the target so the rename stays within
     one filesystem. *)
  let write_atomic ~path contents =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
end

(* {1 Clocks} *)

module Clock = struct
  let wall_s = Unix.gettimeofday

  let epoch = Unix.gettimeofday ()

  let elapsed_us () = (Unix.gettimeofday () -. epoch) *. 1e6

  (* Per-thread CPU: utime+stime from /proc/thread-self/stat (fields 14
     and 15, counted after the parenthesized comm, in USER_HZ ticks —
     100/s on every Linux ABI). Worker domains map 1:1 onto system
     threads, so this is per-domain CPU. Non-Linux falls back to
     process CPU time, which overcounts under parallelism but keeps the
     field meaningful at -j1. *)
  let user_hz = 100.0

  let thread_cpu_s () =
    match open_in "/proc/thread-self/stat" with
    | exception _ -> Sys.time ()
    | ic -> (
        let line = try input_line ic with _ -> "" in
        close_in ic;
        match String.rindex_opt line ')' with
        | None -> Sys.time ()
        | Some i -> (
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            let fields =
              String.split_on_char ' ' rest |> List.filter (fun s -> s <> "")
            in
            (* fields: state ppid pgrp session tty_nr tpgid flags minflt
               cminflt majflt cmajflt utime stime ... *)
            match (List.nth_opt fields 11, List.nth_opt fields 12) with
            | Some ut, Some st -> (
                match (float_of_string_opt ut, float_of_string_opt st) with
                | Some u, Some s -> (u +. s) /. user_hz
                | _ -> Sys.time ())
            | _ -> Sys.time ()))
end

let domain_id () = (Domain.self () :> int)

(* {1 Atomic line appends}

   The jsonl sinks (events.jsonl, runs.jsonl) used to go through
   buffered out_channels, which is fine for a single process but tears
   lines once service workers append from separate processes: stdio may
   split one line across several write(2) calls, and two writers
   interleave the halves. POSIX guarantees that a single write(2) on an
   O_APPEND descriptor lands contiguously at the (atomically advanced)
   end of file, so the fix is structural: every line is emitted as
   exactly one write of "payload\n". *)

module Appender = struct
  type t = { fd : Unix.file_descr; mutable closed : bool }

  let open_path path =
    {
      fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
      closed = false;
    }

  (* One write(2) per line. A short write on a regular file only happens
     under pathological conditions (ENOSPC, rlimit); we finish the tail
     rather than drop bytes, accepting that only the first write is
     tear-free. *)
  let write_all fd b pos len =
    let rec go pos len =
      if len > 0 then begin
        let n = Unix.single_write fd b pos len in
        go (pos + n) (len - n)
      end
    in
    go pos len

  let line t s =
    if t.closed then invalid_arg "Obs.Appender.line: closed";
    let n = String.length s in
    let b = Bytes.create (n + 1) in
    Bytes.blit_string s 0 b 0 n;
    Bytes.set b n '\n';
    write_all t.fd b 0 (n + 1)

  let json_line t j = line t (Json.to_string j)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  let with_path path f =
    let t = open_path path in
    Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
end

(* {1 Structured logging} *)

type level = Error | Warn | Info | Debug

let level_to_int = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string = function
  | "error" -> Ok Error
  | "warn" | "warning" -> Ok Warn
  | "info" -> Ok Info
  | "debug" -> Ok Debug
  | other -> Error (Printf.sprintf "unknown log level %S (error|warn|info|debug)" other)

let cur_level = Atomic.make (level_to_int Info)
let set_level l = Atomic.set cur_level (level_to_int l)

let get_level () =
  match Atomic.get cur_level with
  | 0 -> Error
  | 1 -> Warn
  | 2 -> Info
  | _ -> Debug

(* The one mutex-guarded sink every domain logs through. [log_on] is the
   fast-path gate so a disabled log costs one atomic load. *)
let log_on = Atomic.make false
let log_mutex = Mutex.create ()
let log_sink : (string -> unit) option ref = ref None
let log_channel : out_channel option ref = ref None

let close_log_locked () =
  (match !log_channel with
  | Some oc ->
      (try close_out oc with _ -> ());
      log_channel := None
  | None -> ());
  log_sink := None;
  Atomic.set log_on false

let close_log () =
  Mutex.lock log_mutex;
  close_log_locked ();
  Mutex.unlock log_mutex

let set_log_sink sink =
  Mutex.lock log_mutex;
  close_log_locked ();
  (match sink with
  | Some _ ->
      log_sink := sink;
      Atomic.set log_on true
  | None -> ());
  Mutex.unlock log_mutex

let log_to_file path =
  Mutex.lock log_mutex;
  close_log_locked ();
  let oc = open_out path in
  log_channel := Some oc;
  log_sink :=
    Some
      (fun line ->
        output_string oc line;
        output_char oc '\n');
  Atomic.set log_on true;
  Mutex.unlock log_mutex

let logging level =
  Atomic.get log_on && level_to_int level <= Atomic.get cur_level

let log ?(attrs = []) level event =
  if logging level then begin
    let line =
      Json.to_string
        (Json.Obj
           (("ts_us", Json.Float (Clock.elapsed_us ()))
           :: ("level", Json.Str (level_to_string level))
           :: ("tid", Json.Int (domain_id ()))
           :: ("event", Json.Str event)
           :: attrs))
    in
    Mutex.lock log_mutex;
    (match !log_sink with Some sink -> (try sink line with _ -> ()) | None -> ());
    Mutex.unlock log_mutex
  end

(* {1 Tracing} *)

type trace_event = {
  ev_name : string;
  ev_ph : char; (* 'X' complete, 'i' instant, 'C' counter *)
  ev_ts : float; (* microseconds *)
  ev_dur : float; (* microseconds; complete events only *)
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

let tracing_on = Atomic.make false
let trace_mutex = Mutex.create ()
let trace_path : string option ref = ref None
let trace_events : trace_event list ref = ref [] (* newest first *)

let tracing () = Atomic.get tracing_on

let trace_to_file path =
  Mutex.lock trace_mutex;
  trace_path := Some path;
  trace_events := [];
  Atomic.set tracing_on true;
  Mutex.unlock trace_mutex

let record ev =
  Mutex.lock trace_mutex;
  trace_events := ev :: !trace_events;
  Mutex.unlock trace_mutex

let category name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let json_of_event ev =
  let base =
    [
      ("name", Json.Str ev.ev_name);
      ("cat", Json.Str (category ev.ev_name));
      ("ph", Json.Str (String.make 1 ev.ev_ph));
      ("ts", Json.Float ev.ev_ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.ev_tid);
    ]
  in
  let base = if ev.ev_ph = 'X' then base @ [ ("dur", Json.Float ev.ev_dur) ] else base in
  let base = if ev.ev_ph = 'i' then base @ [ ("s", Json.Str "t") ] else base in
  Json.Obj (if ev.ev_args = [] then base else base @ [ ("args", Json.Obj ev.ev_args) ])

let trace_json () =
  Mutex.lock trace_mutex;
  let evs = List.rev !trace_events in
  Mutex.unlock trace_mutex;
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event evs));
      ("displayTimeUnit", Json.Str "ms");
    ]

let close_trace () =
  if Atomic.get tracing_on then begin
    Atomic.set tracing_on false;
    let j = trace_json () in
    Mutex.lock trace_mutex;
    let path = !trace_path in
    trace_path := None;
    Mutex.unlock trace_mutex;
    match path with Some p -> Json.write_file ~path:p j | None -> ()
  end

let span ?(attrs = []) name f =
  if not (Atomic.get tracing_on) then f ()
  else begin
    let t0 = Clock.elapsed_us () in
    let finish () =
      record
        {
          ev_name = name;
          ev_ph = 'X';
          ev_ts = t0;
          ev_dur = Clock.elapsed_us () -. t0;
          ev_tid = domain_id ();
          ev_args = attrs;
        }
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let instant ?(attrs = []) name =
  if Atomic.get tracing_on then
    record
      {
        ev_name = name;
        ev_ph = 'i';
        ev_ts = Clock.elapsed_us ();
        ev_dur = 0.;
        ev_tid = domain_id ();
        ev_args = attrs;
      }

let counter_event name values =
  if Atomic.get tracing_on then
    record
      {
        ev_name = name;
        ev_ph = 'C';
        ev_ts = Clock.elapsed_us ();
        ev_dur = 0.;
        ev_tid = domain_id ();
        ev_args = List.map (fun (k, v) -> (k, Json.Float v)) values;
      }

(* {1 Metrics} *)

module Metrics = struct
  type counter = int Atomic.t
  type gauge = float Atomic.t

  type hist = {
    h_buckets : float array;
    h_counts : int array; (* length = buckets + 1; overflow last *)
    mutable h_sum : float;
    mutable h_count : int;
  }

  type histogram = hist
  type series = float list ref (* newest first *)

  type kind =
    | Kcounter of counter
    | Kgauge of gauge
    | Khist of hist
    | Kseries of series

  let on = Atomic.make false
  let enable () = Atomic.set on true
  let disable () = Atomic.set on false
  let enabled () = Atomic.get on

  let registry : (string, kind) Hashtbl.t = Hashtbl.create 64
  let reg_mutex = Mutex.create ()

  let get_or_create name mk describe =
    Mutex.lock reg_mutex;
    let r =
      match Hashtbl.find_opt registry name with
      | Some k -> k
      | None ->
          let k = mk () in
          Hashtbl.replace registry name k;
          k
    in
    Mutex.unlock reg_mutex;
    match describe r with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Obs.Metrics: %s exists with another kind" name)

  let counter name =
    get_or_create name
      (fun () -> Kcounter (Atomic.make 0))
      (function Kcounter c -> Some c | _ -> None)

  let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)

  let gauge name =
    get_or_create name
      (fun () -> Kgauge (Atomic.make 0.))
      (function Kgauge g -> Some g | _ -> None)

  let set g v = if Atomic.get on then Atomic.set g v

  let rec max_gauge g v =
    if Atomic.get on then begin
      let cur = Atomic.get g in
      if v > cur && not (Atomic.compare_and_set g cur v) then max_gauge g v
    end

  let default_buckets =
    [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100.; 1000. |]

  let histogram ?(buckets = default_buckets) name =
    let ok = ref true in
    Array.iteri (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false) buckets;
    if (not !ok) || Array.length buckets = 0 then
      invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing";
    get_or_create name
      (fun () ->
        Khist
          {
            h_buckets = Array.copy buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_sum = 0.;
            h_count = 0;
          })
      (function Khist h -> Some h | _ -> None)

  let observe h v =
    if Atomic.get on then begin
      Mutex.lock reg_mutex;
      let n = Array.length h.h_buckets in
      let rec idx i = if i >= n then n else if v <= h.h_buckets.(i) then i else idx (i + 1) in
      let i = idx 0 in
      h.h_counts.(i) <- h.h_counts.(i) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1;
      Mutex.unlock reg_mutex
    end

  let series name =
    get_or_create name
      (fun () -> Kseries (ref []))
      (function Kseries s -> Some s | _ -> None)

  let record s v =
    if Atomic.get on then begin
      Mutex.lock reg_mutex;
      s := v :: !s;
      Mutex.unlock reg_mutex
    end

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of {
        buckets : float array;
        counts : int array;
        sum : float;
        count : int;
      }
    | Series of float array

  let snapshot () =
    Mutex.lock reg_mutex;
    let items =
      Hashtbl.fold
        (fun name k acc ->
          let v =
            match k with
            | Kcounter c -> Counter (Atomic.get c)
            | Kgauge g -> Gauge (Atomic.get g)
            | Khist h ->
                Histogram
                  {
                    buckets = Array.copy h.h_buckets;
                    counts = Array.copy h.h_counts;
                    sum = h.h_sum;
                    count = h.h_count;
                  }
            | Kseries s -> Series (Array.of_list (List.rev !s))
          in
          (name, v) :: acc)
        registry []
    in
    Mutex.unlock reg_mutex;
    List.sort (fun (a, _) (b, _) -> compare a b) items

  let find name = List.assoc_opt name (snapshot ())

  let reset () =
    Mutex.lock reg_mutex;
    Hashtbl.iter
      (fun _ k ->
        match k with
        | Kcounter c -> Atomic.set c 0
        | Kgauge g -> Atomic.set g 0.
        | Khist h ->
            Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
            h.h_sum <- 0.;
            h.h_count <- 0
        | Kseries s -> s := [])
      registry;
    Mutex.unlock reg_mutex

  let json_of_value = function
    | Counter n -> Json.Int n
    | Gauge v -> Json.Float v
    | Histogram { buckets; counts; sum; count } ->
        Json.Obj
          [
            ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) buckets)));
            ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) counts)));
            ("sum", Json.Float sum);
            ("count", Json.Int count);
          ]
    | Series vs ->
        Json.List (Array.to_list (Array.map (fun v -> Json.Float v) vs))

  let json_of_snapshot () =
    Json.Obj (List.map (fun (name, v) -> (name, json_of_value v)) (snapshot ()))
end

(* {1 Event bus}

   Structured, typed events for live campaign observability. Publishers
   (BMC depth loop, the parallel engine, the cache, campaign drivers)
   call {!Bus.publish}; when the bus is detached that is one atomic
   load. When attached, every event is stamped (monotone sequence
   number, wall-clock timestamp, domain id, the current label scope)
   under one mutex and lands in a bounded in-process ring buffer and —
   when a file sink is attached — as one JSON line appended and flushed
   immediately, so a crash loses at most the event being written and a
   separate process can tail the file with no IPC. *)

module Bus = struct
  type event =
    | Depth_solved of { depth : int; seconds : float }
    | Cex_found of { depth : int }
    | Cache_hit
    | Cache_miss
    | Retry of { attempt : int; reason : string }
    | Unknown of { reason : string }
    | Fault_injected of { site : string }
    | Job_start of { goal_depth : int }
    | Job_done of { verdict : string; wall_s : float }
    | Solver_progress of {
        conflicts : int;
        learnts : int;
        conflicts_per_s : float;
      }
    | Solver_stalled of { conflicts_per_s : float; learnts_per_s : float }
    | Heartbeat

  type stamped = { seq : int; ts : float; tid : int; label : string; ev : event }

  (* The label scope names whose work the events describe (a campaign
     entry, then entry/assertion inside [check_each]). It is
     domain-local: worker domains must re-establish it — [Parallel]
     captures the coordinator's label when it builds its job wrappers. *)
  let label_key = Domain.DLS.new_key (fun () -> "")
  let current_label () = Domain.DLS.get label_key

  let with_label label f =
    let old = Domain.DLS.get label_key in
    Domain.DLS.set label_key label;
    Fun.protect ~finally:(fun () -> Domain.DLS.set label_key old) f

  let sub_label name =
    match current_label () with "" -> name | l -> l ^ "/" ^ name

  let on = Atomic.make false
  let enabled () = Atomic.get on
  let bus_mutex = Mutex.create ()
  let seq = ref 0
  let ring_buf : stamped array ref = ref [||]
  let ring_start = ref 0
  let ring_len = ref 0
  let dropped_count = ref 0

  (* O_APPEND + single-write line emission: service workers from
     separate processes append to the same events.jsonl, and buffered
     channels would interleave partial lines. *)
  let sink : Appender.t option ref = ref None

  let type_name = function
    | Depth_solved _ -> "depth_solved"
    | Cex_found _ -> "cex_found"
    | Cache_hit -> "cache_hit"
    | Cache_miss -> "cache_miss"
    | Retry _ -> "retry"
    | Unknown _ -> "unknown"
    | Fault_injected _ -> "fault_injected"
    | Job_start _ -> "job_start"
    | Job_done _ -> "job_done"
    | Solver_progress _ -> "solver_progress"
    | Solver_stalled _ -> "solver_stalled"
    | Heartbeat -> "heartbeat"

  let payload = function
    | Depth_solved { depth; seconds } ->
        [ ("depth", Json.Int depth); ("seconds", Json.Float seconds) ]
    | Cex_found { depth } -> [ ("depth", Json.Int depth) ]
    | Cache_hit | Cache_miss | Heartbeat -> []
    | Retry { attempt; reason } ->
        [ ("attempt", Json.Int attempt); ("reason", Json.Str reason) ]
    | Unknown { reason } -> [ ("reason", Json.Str reason) ]
    | Fault_injected { site } -> [ ("site", Json.Str site) ]
    | Job_start { goal_depth } -> [ ("goal_depth", Json.Int goal_depth) ]
    | Job_done { verdict; wall_s } ->
        [ ("verdict", Json.Str verdict); ("wall_s", Json.Float wall_s) ]
    | Solver_progress { conflicts; learnts; conflicts_per_s } ->
        [
          ("conflicts", Json.Int conflicts);
          ("learnts", Json.Int learnts);
          ("conflicts_per_s", Json.Float conflicts_per_s);
        ]
    | Solver_stalled { conflicts_per_s; learnts_per_s } ->
        [
          ("conflicts_per_s", Json.Float conflicts_per_s);
          ("learnts_per_s", Json.Float learnts_per_s);
        ]

  let json_of_stamped st =
    Json.Obj
      (("seq", Json.Int st.seq)
      :: ("ts", Json.Float st.ts)
      :: ("tid", Json.Int st.tid)
      :: ("label", Json.Str st.label)
      :: ("type", Json.Str (type_name st.ev))
      :: payload st.ev)

  let stamped_of_json j =
    let field kind get name =
      Option.to_result
        ~none:(Printf.sprintf "missing %s field %S" kind name)
        (get name j)
    in
    let str = field "string" Json.str
    and int = field "int" Json.int
    and num = field "numeric" Json.num in
    let ( let* ) = Result.bind in
    let* seq = int "seq" in
    let* ts = num "ts" in
    let* tid = int "tid" in
    let* label = str "label" in
    let* ty = str "type" in
    let* ev =
      match ty with
      | "depth_solved" ->
          let* depth = int "depth" in
          let* seconds = num "seconds" in
          Ok (Depth_solved { depth; seconds })
      | "cex_found" ->
          let* depth = int "depth" in
          Ok (Cex_found { depth })
      | "cache_hit" -> Ok Cache_hit
      | "cache_miss" -> Ok Cache_miss
      | "retry" ->
          let* attempt = int "attempt" in
          let* reason = str "reason" in
          Ok (Retry { attempt; reason })
      | "unknown" ->
          let* reason = str "reason" in
          Ok (Unknown { reason })
      | "fault_injected" ->
          let* site = str "site" in
          Ok (Fault_injected { site })
      | "job_start" ->
          let* goal_depth = int "goal_depth" in
          Ok (Job_start { goal_depth })
      | "job_done" ->
          let* verdict = str "verdict" in
          let* wall_s = num "wall_s" in
          Ok (Job_done { verdict; wall_s })
      | "solver_progress" ->
          let* conflicts = int "conflicts" in
          let* learnts = int "learnts" in
          let* conflicts_per_s = num "conflicts_per_s" in
          Ok (Solver_progress { conflicts; learnts; conflicts_per_s })
      | "solver_stalled" ->
          let* conflicts_per_s = num "conflicts_per_s" in
          let* learnts_per_s = num "learnts_per_s" in
          Ok (Solver_stalled { conflicts_per_s; learnts_per_s })
      | "heartbeat" -> Ok Heartbeat
      | other -> Error (Printf.sprintf "unknown event type %S" other)
    in
    Ok { seq; ts; tid; label; ev }

  (* Overflow drops used to be invisible outside {!dropped}; surfacing
     them in the metrics registry puts them on the Prometheus exposition
     where a scraper can alert on ring under-sizing. *)
  let m_dropped = lazy (Metrics.counter "bus.dropped_events")

  let push_locked st =
    let buf = !ring_buf in
    let cap = Array.length buf in
    if cap > 0 then
      if !ring_len < cap then begin
        buf.((!ring_start + !ring_len) mod cap) <- st;
        incr ring_len
      end
      else begin
        (* Full: overwrite the oldest. The file sink (when attached)
           still has it; only the in-process view drops. *)
        buf.(!ring_start) <- st;
        ring_start := (!ring_start + 1) mod cap;
        incr dropped_count;
        Metrics.add (Lazy.force m_dropped) 1
      end

  let publish ?label ev =
    if Atomic.get on then begin
      let label = match label with Some l -> l | None -> current_label () in
      let tid = domain_id () in
      Mutex.lock bus_mutex;
      incr seq;
      let st = { seq = !seq; ts = Clock.wall_s (); tid; label; ev } in
      push_locked st;
      (match !sink with
      | Some ap -> (
          try Appender.json_line ap (json_of_stamped st)
          with Sys_error _ | Unix.Unix_error _ ->
            Appender.close ap;
            sink := None)
      | None -> ());
      Mutex.unlock bus_mutex
    end

  let attach ?(ring_capacity = 1024) ?file () =
    if ring_capacity <= 0 then
      invalid_arg "Obs.Bus.attach: ring_capacity must be positive";
    Mutex.lock bus_mutex;
    (match !sink with Some ap -> Appender.close ap | None -> ());
    let dummy =
      { seq = 0; ts = 0.; tid = 0; label = ""; ev = Heartbeat }
    in
    ring_buf := Array.make ring_capacity dummy;
    ring_start := 0;
    ring_len := 0;
    dropped_count := 0;
    (* Each attach opens a fresh run: seq restarts at 1, which is how
       readers of a shared events.jsonl (Cockpit, validators) detect a
       process boundary after --resume. *)
    seq := 0;
    sink := Option.map Appender.open_path file;
    Atomic.set on true;
    Mutex.unlock bus_mutex

  let detach () =
    if Atomic.get on then begin
      Atomic.set on false;
      Mutex.lock bus_mutex;
      (match !sink with Some ap -> Appender.close ap | None -> ());
      sink := None;
      Mutex.unlock bus_mutex
    end

  let ring () =
    Mutex.lock bus_mutex;
    let buf = !ring_buf in
    let cap = Array.length buf in
    let r =
      List.init !ring_len (fun i -> buf.((!ring_start + i) mod cap))
    in
    Mutex.unlock bus_mutex;
    r

  let dropped () =
    Mutex.lock bus_mutex;
    let d = !dropped_count in
    Mutex.unlock bus_mutex;
    d
end

(* {1 Solver health watchdog}

   Slope detection over the solver's periodic samples: the BMC layer
   feeds (cumulative conflicts, cumulative learnt clauses, now) every
   [p_every] conflicts; the watchdog computes conflict-rate and
   learnt-growth slopes over a sliding window of those samples and
   latches "stalled" after [p_patience] consecutive windows with both
   slopes below threshold. Because sampling is conflict-driven, a query
   whose conflict rate merely collapses is caught; one wedged inside a
   single propagation never samples again and is left to the budget
   deadline / stop hook. *)

module Watchdog = struct
  type policy = {
    p_every : int;
    p_window : int;
    p_patience : int;
    p_min_conflicts_per_s : float;
    p_min_learnts_per_s : float;
    p_rebudget : bool;
  }

  let default_policy =
    {
      p_every = 1024;
      p_window = 4;
      p_patience = 4;
      p_min_conflicts_per_s = 25.;
      p_min_learnts_per_s = 25.;
      p_rebudget = false;
    }

  let current = ref default_policy
  let policy () = !current
  let set_policy p = current := p

  (* "every=64,window=4,patience=2,min_cps=100,min_lps=0,rebudget=1" —
     unset keys keep their default. *)
  let policy_of_string s =
    let ( let* ) = Result.bind in
    List.fold_left
      (fun acc kv ->
        let* p = acc in
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "bad AUTOCC_WATCHDOG item %S" kv)
        | Some i -> (
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            let int () =
              match int_of_string_opt v with
              | Some n when n > 0 -> Ok n
              | _ -> Error (Printf.sprintf "bad AUTOCC_WATCHDOG value %S" kv)
            in
            let flt () =
              match float_of_string_opt v with
              | Some f -> Ok f
              | None -> Error (Printf.sprintf "bad AUTOCC_WATCHDOG value %S" kv)
            in
            match k with
            | "every" ->
                let* n = int () in
                Ok { p with p_every = n }
            | "window" ->
                let* n = int () in
                Ok { p with p_window = max 2 n }
            | "patience" ->
                let* n = int () in
                Ok { p with p_patience = n }
            | "min_cps" ->
                let* f = flt () in
                Ok { p with p_min_conflicts_per_s = f }
            | "min_lps" ->
                let* f = flt () in
                Ok { p with p_min_learnts_per_s = f }
            | "rebudget" -> Ok { p with p_rebudget = v = "1" || v = "true" }
            | _ -> Error (Printf.sprintf "unknown AUTOCC_WATCHDOG key %S" k)))
      (Ok default_policy)
      (List.filter (fun s -> s <> "") (String.split_on_char ',' s))

  let arm_from_env () =
    match Sys.getenv_opt "AUTOCC_WATCHDOG" with
    | None | Some "" -> ()
    | Some s -> (
        match policy_of_string s with
        | Ok p -> current := p
        | Error msg -> failwith msg)

  type t = {
    w_policy : policy;
    w_times : float array;
    w_confl : int array;
    w_learn : int array;
    mutable w_n : int; (* samples fed so far *)
    mutable w_below : int;
    mutable w_stalled : bool;
    mutable w_cps : float;
    mutable w_lps : float;
    w_on_stall : cps:float -> lps:float -> unit;
  }

  let create ?policy ?(on_stall = fun ~cps:_ ~lps:_ -> ()) () =
    let p = match policy with Some p -> p | None -> !current in
    let w = max 2 p.p_window in
    {
      w_policy = { p with p_window = w };
      w_times = Array.make w 0.;
      w_confl = Array.make w 0;
      w_learn = Array.make w 0;
      w_n = 0;
      w_below = 0;
      w_stalled = false;
      w_cps = Float.nan;
      w_lps = Float.nan;
      w_on_stall = on_stall;
    }

  let feed t ~conflicts ~learnts ~now =
    let p = t.w_policy in
    let w = p.p_window in
    t.w_times.(t.w_n mod w) <- now;
    t.w_confl.(t.w_n mod w) <- conflicts;
    t.w_learn.(t.w_n mod w) <- learnts;
    t.w_n <- t.w_n + 1;
    if t.w_n >= w then begin
      (* The slot about to be overwritten holds the oldest sample still
         in the window. *)
      let j = t.w_n mod w in
      let dt = now -. t.w_times.(j) in
      if dt > 0. then begin
        t.w_cps <- float_of_int (conflicts - t.w_confl.(j)) /. dt;
        t.w_lps <- float_of_int (learnts - t.w_learn.(j)) /. dt;
        if
          t.w_cps < p.p_min_conflicts_per_s
          && t.w_lps < p.p_min_learnts_per_s
        then t.w_below <- t.w_below + 1
        else t.w_below <- 0;
        if t.w_below >= p.p_patience && not t.w_stalled then begin
          t.w_stalled <- true;
          Bus.publish
            (Bus.Solver_stalled
               { conflicts_per_s = t.w_cps; learnts_per_s = t.w_lps });
          t.w_on_stall ~cps:t.w_cps ~lps:t.w_lps
        end
      end
    end

  let stalled t = t.w_stalled
  let conflicts_per_s t = t.w_cps
  let learnts_per_s t = t.w_lps
end

(* {1 Prometheus text exposition} *)

module Prometheus = struct
  let sanitize name =
    "autocc_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
          | _ -> '_')
        name

  let fmt_float f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.9g" f

  let add_metric buf name value =
    let p = Buffer.add_string buf in
    (* One HELP + one TYPE line per exposed metric name, in that order —
       scrapers reject duplicated metadata lines, which the render
       property test enforces. *)
    let head n kind =
      p (Printf.sprintf "# HELP %s autocc telemetry metric %s\n" n n);
      p (Printf.sprintf "# TYPE %s %s\n" n kind)
    in
    match value with
    | Metrics.Counter n ->
        head name "counter";
        p (Printf.sprintf "%s %d\n" name n)
    | Metrics.Gauge g ->
        head name "gauge";
        p (Printf.sprintf "%s %s\n" name (fmt_float g))
    | Metrics.Histogram { buckets; counts; sum; count } ->
        head name "histogram";
        let cum = ref 0 in
        Array.iteri
          (fun i b ->
            cum := !cum + counts.(i);
            p
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (fmt_float b)
                 !cum))
          buckets;
        p (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name count);
        p (Printf.sprintf "%s_sum %s\n" name (fmt_float sum));
        p (Printf.sprintf "%s_count %d\n" name count)
    | Metrics.Series vs ->
        (* Series are unbounded per-step sequences (e.g. seconds per BMC
           depth); exposition reduces them to count/sum/last gauges. *)
        let n = Array.length vs in
        let sum = Array.fold_left ( +. ) 0. vs in
        head (name ^ "_count") "gauge";
        p (Printf.sprintf "%s_count %d\n" name n);
        head (name ^ "_sum") "gauge";
        p (Printf.sprintf "%s_sum %s\n" name (fmt_float sum));
        if n > 0 then begin
          head (name ^ "_last") "gauge";
          p (Printf.sprintf "%s_last %s\n" name (fmt_float vs.(n - 1)))
        end

  let of_snapshot snap =
    let buf = Buffer.create 1024 in
    List.iter (fun (name, v) -> add_metric buf (sanitize name) v) snap;
    Buffer.contents buf

  let render () = of_snapshot (Metrics.snapshot ())

  (* Atomic replace: a scraper (or `cat`) never sees a half-written
     snapshot. *)
  let write_file path = Files.write_atomic ~path (render ())
end

module Exposition = struct
  let stop_flag = Atomic.make true
  let ticker : unit Domain.t option ref = ref None
  let exp_mutex = Mutex.create ()
  let exp_path = ref None

  let stop () =
    Mutex.lock exp_mutex;
    let t = !ticker in
    let path = !exp_path in
    ticker := None;
    exp_path := None;
    Atomic.set stop_flag true;
    Mutex.unlock exp_mutex;
    (match t with Some d -> Domain.join d | None -> ());
    (* One final rewrite so the file reflects the end-of-run registry. *)
    match path with
    | Some p -> ( try Prometheus.write_file p with Sys_error _ -> ())
    | None -> ()

  let start ?(interval_s = 2.0) path =
    if interval_s <= 0. then
      invalid_arg "Obs.Exposition.start: interval must be positive";
    stop ();
    (try Prometheus.write_file path with Sys_error _ -> ());
    Atomic.set stop_flag false;
    let d =
      Domain.spawn (fun () ->
          while not (Atomic.get stop_flag) do
            (* Sleep in short naps so [stop] is prompt at CLI exit. *)
            let left = ref interval_s in
            while !left > 0. && not (Atomic.get stop_flag) do
              let nap = Float.min 0.05 !left in
              Unix.sleepf nap;
              left := !left -. nap
            done;
            if not (Atomic.get stop_flag) then
              try Prometheus.write_file path with Sys_error _ -> ()
          done)
    in
    Mutex.lock exp_mutex;
    ticker := Some d;
    exp_path := Some path;
    Mutex.unlock exp_mutex

  let running () = not (Atomic.get stop_flag)
end

(* {1 Cockpit: the aggregation model behind `autocc top`}

   A pure fold over stamped events (usually parsed back from an
   events.jsonl a campaign process is appending to) into one row per
   label: current depth, verdict, cache hit ratio, conflict rate, and
   an ETA extrapolated from the per-depth solve times. The CLI tails
   the file and re-renders; tests feed lines directly. *)

module Cockpit = struct
  type row = {
    ro_label : string;
    mutable ro_goal : int; (* target depth; -1 unknown *)
    mutable ro_depth : int; (* deepest solved depth; -1 none *)
    mutable ro_times : float list; (* per-depth seconds, newest first *)
    mutable ro_verdict : string;
    mutable ro_hits : int;
    mutable ro_misses : int;
    mutable ro_retries : int;
    mutable ro_faults : int;
    mutable ro_cps : float;
    mutable ro_stalled : bool;
    mutable ro_first_ts : float;
    mutable ro_last_ts : float;
    mutable ro_wall : float;
  }

  type t = {
    c_rows : (string, row) Hashtbl.t;
    mutable c_events : int;
    mutable c_bad : int;
    mutable c_last_seq : int;
  }

  let create () =
    { c_rows = Hashtbl.create 16; c_events = 0; c_bad = 0; c_last_seq = 0 }

  let find_row t label ts =
    match Hashtbl.find_opt t.c_rows label with
    | Some r -> r
    | None ->
        let r =
          {
            ro_label = label;
            ro_goal = -1;
            ro_depth = -1;
            ro_times = [];
            ro_verdict = "running";
            ro_hits = 0;
            ro_misses = 0;
            ro_retries = 0;
            ro_faults = 0;
            ro_cps = Float.nan;
            ro_stalled = false;
            ro_first_ts = ts;
            ro_last_ts = ts;
            ro_wall = Float.nan;
          }
        in
        Hashtbl.replace t.c_rows label r;
        r

  let feed t (st : Bus.stamped) =
    t.c_events <- t.c_events + 1;
    (* Sequence numbers are per-process: a resumed campaign restarts at
       1, which is not a gap. *)
    t.c_last_seq <- st.Bus.seq;
    let r = find_row t st.Bus.label st.Bus.ts in
    r.ro_last_ts <- Float.max r.ro_last_ts st.Bus.ts;
    match st.Bus.ev with
    | Bus.Job_start { goal_depth } ->
        r.ro_goal <- goal_depth;
        r.ro_verdict <- "running";
        r.ro_first_ts <- st.Bus.ts
    | Bus.Depth_solved { depth; seconds } ->
        r.ro_depth <- max r.ro_depth depth;
        r.ro_times <- seconds :: r.ro_times
    | Bus.Cex_found { depth } ->
        r.ro_depth <- max r.ro_depth depth;
        r.ro_verdict <- "cex"
    | Bus.Job_done { verdict; wall_s } ->
        r.ro_verdict <- verdict;
        r.ro_wall <- wall_s
    | Bus.Unknown { reason } ->
        if r.ro_verdict = "running" then r.ro_verdict <- "unknown:" ^ reason
    | Bus.Retry { attempt = _; reason = _ } ->
        r.ro_retries <- r.ro_retries + 1;
        r.ro_verdict <- "running"
    | Bus.Cache_hit -> r.ro_hits <- r.ro_hits + 1
    | Bus.Cache_miss -> r.ro_misses <- r.ro_misses + 1
    | Bus.Fault_injected _ -> r.ro_faults <- r.ro_faults + 1
    | Bus.Solver_progress { conflicts_per_s; _ } -> r.ro_cps <- conflicts_per_s
    | Bus.Solver_stalled { conflicts_per_s; _ } ->
        r.ro_stalled <- true;
        r.ro_cps <- conflicts_per_s
    | Bus.Heartbeat -> ()

  let feed_line t line =
    if String.trim line = "" then ()
    else
      match Json.parse line with
      | Error _ -> t.c_bad <- t.c_bad + 1
      | Ok j -> (
          match Bus.stamped_of_json j with
          | Ok st -> feed t st
          | Error _ -> t.c_bad <- t.c_bad + 1)

  let rows t =
    List.sort
      (fun a b -> compare a.ro_label b.ro_label)
      (Hashtbl.fold (fun _ r acc -> r :: acc) t.c_rows [])

  let events t = t.c_events
  let bad_lines t = t.c_bad

  (* ETA from the recorded per-depth solve times: per-depth cost in a
     CDCL-backed BMC grows roughly geometrically, so extrapolate with
     the (clamped) mean growth ratio of the most recent depths. *)
  let eta_s row =
    if row.ro_verdict <> "running" then None
    else if row.ro_goal < 0 || row.ro_depth < 0 then None
    else if row.ro_depth >= row.ro_goal then Some 0.
    else
      match row.ro_times with
      | [] -> None
      | last :: older ->
          let ratios =
            let rec go acc newer = function
              | [] -> acc
              | _ when List.length acc >= 4 -> acc
              | prev :: rest ->
                  let acc =
                    if prev > 1e-9 then (newer /. prev) :: acc else acc
                  in
                  go acc prev rest
            in
            go [] last older
          in
          let r =
            match ratios with
            | [] -> 1.5
            | rs ->
                let mean =
                  List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)
                in
                Float.max 1.0 (Float.min 3.0 mean)
          in
          let remaining = min 64 (row.ro_goal - row.ro_depth) in
          let eta = ref 0. in
          let step = ref last in
          for _ = 1 to remaining do
            step := !step *. r;
            eta := !eta +. !step
          done;
          Some !eta

  let fmt_eta = function
    | None -> "-"
    | Some s when s < 0.0005 -> "0s"
    | Some s when s < 60. -> Printf.sprintf "%.1fs" s
    | Some s when s < 3600. -> Printf.sprintf "%.1fm" (s /. 60.)
    | Some s -> Printf.sprintf "%.1fh" (s /. 3600.)

  let render ?now ?(note = fun _ -> None) t =
    let now = match now with Some n -> n | None -> Clock.wall_s () in
    let buf = Buffer.create 1024 in
    let rs = rows t in
    let hits, misses =
      List.fold_left
        (fun (h, m) r -> (h + r.ro_hits, m + r.ro_misses))
        (0, 0) rs
    in
    Buffer.add_string buf
      (Printf.sprintf
         "autocc top — %d events, %d rows%s | cache %d/%d%s\n" t.c_events
         (List.length rs)
         (if t.c_bad > 0 then Printf.sprintf ", %d bad lines" t.c_bad else "")
         hits (hits + misses)
         (if hits + misses > 0 then
            Printf.sprintf " (%.0f%% hit)"
              (100. *. float_of_int hits /. float_of_int (hits + misses))
          else ""));
    Buffer.add_string buf
      (Printf.sprintf "%-34s %7s  %-18s %7s %9s %7s  %s\n" "LABEL" "DEPTH"
         "VERDICT" "CACHE" "CONF/S" "ETA" "NOTE");
    List.iter
      (fun r ->
        let depth =
          if r.ro_depth < 0 then
            if r.ro_goal >= 0 then Printf.sprintf "-/%d" r.ro_goal else "-"
          else if r.ro_goal >= 0 then
            Printf.sprintf "%d/%d" r.ro_depth r.ro_goal
          else string_of_int r.ro_depth
        in
        let cache =
          if r.ro_hits + r.ro_misses = 0 then "-"
          else Printf.sprintf "%d/%d" r.ro_hits (r.ro_hits + r.ro_misses)
        in
        let cps =
          if Float.is_nan r.ro_cps then "-"
          else Printf.sprintf "%.3g" r.ro_cps
        in
        let age = now -. r.ro_last_ts in
        let notes =
          List.filter
            (fun s -> s <> "")
            [
              (if r.ro_stalled then "STALLED" else "");
              (if r.ro_retries > 0 then Printf.sprintf "%d retries" r.ro_retries
               else "");
              (if r.ro_faults > 0 then Printf.sprintf "%d faults" r.ro_faults
               else "");
              (if r.ro_verdict = "running" && age > 10. then
                 Printf.sprintf "silent %.0fs" age
               else "");
              (match note r.ro_label with Some s -> s | None -> "");
            ]
        in
        Buffer.add_string buf
          (Printf.sprintf "%-34s %7s  %-18s %7s %9s %7s  %s\n"
             (if String.length r.ro_label > 34 then
                String.sub r.ro_label 0 34
              else r.ro_label)
             depth r.ro_verdict cache cps
             (fmt_eta (eta_s r))
             (String.concat ", " notes)))
      rs;
    Buffer.contents buf

  (* Machine-readable snapshot of the same fold (`autocc top --json`):
     one object per row, every number raw (no terminal formatting), so
     scripts gate on verdicts or ETAs without scraping the table. *)
  let render_json ?now ?(note = fun _ -> None) t =
    let now = match now with Some n -> n | None -> Clock.wall_s () in
    let opt_float f = if Float.is_nan f then Json.Null else Json.Float f in
    let rows_json =
      List.map
        (fun r ->
          Json.Obj
            [
              ("label", Json.Str r.ro_label);
              ("goal_depth", Json.Int r.ro_goal);
              ("depth", Json.Int r.ro_depth);
              ("verdict", Json.Str r.ro_verdict);
              ("cache_hits", Json.Int r.ro_hits);
              ("cache_misses", Json.Int r.ro_misses);
              ("retries", Json.Int r.ro_retries);
              ("faults", Json.Int r.ro_faults);
              ("conflicts_per_s", opt_float r.ro_cps);
              ("stalled", Json.Bool r.ro_stalled);
              ("eta_s", match eta_s r with Some e -> Json.Float e | None -> Json.Null);
              ("wall_s", opt_float r.ro_wall);
              ("silent_s", Json.Float (Float.max 0. (now -. r.ro_last_ts)));
              ( "note",
                match note r.ro_label with
                | Some s -> Json.Str s
                | None -> Json.Null );
            ])
        (rows t)
    in
    Json.Obj
      [
        ("schema", Json.Str "autocc.top/1");
        ("ts", Json.Float now);
        ("events", Json.Int t.c_events);
        ("bad_lines", Json.Int t.c_bad);
        ("rows", Json.List rows_json);
      ]
end

(* {1 File tailing}

   The cross-process half of the cockpit: follow an append-only JSONL
   file (events.jsonl) by byte offset, carrying torn trailing lines to
   the next poll and restarting from zero when the file shrinks (a new
   campaign truncated/replaced it). Extracted from `autocc top` so the
   truncation and seq-restart behavior is testable without a terminal. *)

module Tail = struct
  type t = { t_path : string; mutable t_offset : int; t_partial : Buffer.t }

  let create path = { t_path = path; t_offset = 0; t_partial = Buffer.create 256 }
  let offset t = t.t_offset

  let poll t =
    if not (Sys.file_exists t.t_path) then []
    else
      let ic = open_in_bin t.t_path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len < t.t_offset then begin
            (* The file shrank: a fresh campaign replaced it. Restart,
               dropping any torn tail of the dead run. *)
            t.t_offset <- 0;
            Buffer.clear t.t_partial
          end;
          if len = t.t_offset then []
          else begin
            seek_in ic t.t_offset;
            let chunk = really_input_string ic (len - t.t_offset) in
            t.t_offset <- len;
            Buffer.add_string t.t_partial chunk;
            let data = Buffer.contents t.t_partial in
            Buffer.clear t.t_partial;
            match String.rindex_opt data '\n' with
            | None ->
                (* No complete line yet: keep accumulating. *)
                Buffer.add_string t.t_partial data;
                []
            | Some last ->
                let complete = String.sub data 0 last in
                Buffer.add_substring t.t_partial data (last + 1)
                  (String.length data - last - 1);
                List.filter
                  (fun l -> String.trim l <> "")
                  (String.split_on_char '\n' complete)
          end)
end

(* {1 Numeric regression diffing}

   The ratio+floor gate shared by `bench diff` and `autocc diff-runs`:
   flatten a JSON document to dotted-path numeric leaves, gate only the
   paths whose last segment names a duration (lower-better [*_s]) or a
   [speedup] (higher-better), and call a fresh value regressed when it
   is worse by more than a noise ratio AND an absolute floor. *)

module Numdiff = struct
  type direction = Lower_better | Higher_better

  let leaves j =
    let rec go prefix j acc =
      let child k = if prefix = "" then k else prefix ^ "." ^ k in
      match j with
      | Json.Obj kvs ->
          List.fold_left (fun acc (k, v) -> go (child k) v acc) acc kvs
      | Json.List l ->
          List.fold_left
            (fun (i, acc) v -> (i + 1, go (child (string_of_int i)) v acc))
            (0, acc) l
          |> snd
      | Json.Int n -> (prefix, float_of_int n) :: acc
      | Json.Float f -> (prefix, f) :: acc
      | Json.Null | Json.Bool _ | Json.Str _ -> acc
    in
    go "" j []

  let gate path =
    let last =
      match String.rindex_opt path '.' with
      | Some i -> String.sub path (i + 1) (String.length path - i - 1)
      | None -> path
    in
    let n = String.length last in
    if last = "speedup" then Some Higher_better
    else if n > 2 && String.sub last (n - 2) 2 = "_s" then Some Lower_better
    else None

  let env_float name default =
    match Sys.getenv_opt name with
    | None -> default
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0. -> f
        | _ ->
            failwith (Printf.sprintf "%s must be a positive float" name))

  let thresholds () =
    (env_float "AUTOCC_DIFF_RATIO" 1.5, env_float "AUTOCC_DIFF_FLOOR_S" 0.02)

  let regressed direction ~ratio ~floor ~base ~fresh =
    match direction with
    | Lower_better -> fresh > (base *. ratio) && fresh -. base > floor
    | Higher_better ->
        (* Speedups are dimensionless; the floor guards the absolute
           drop instead. *)
        fresh < (base /. ratio) && base -. fresh > floor
end

(* {1 Run ledger}

   The cross-run memory: every analyze/prove/campaign/bench appends one
   [autocc.run/1] line to an append-only [runs.jsonl] (line-flushed,
   crash loses at most the final partial line — same contract as
   events.jsonl), recording the configuration fingerprint, the DUT's
   structural hash, per-assertion verdicts and the cache traffic. The
   cache's provenance records point back into this file by run id, which
   is what makes a warm Unsat auditable: `autocc why` resolves the hit
   to the run that actually carried the solve. *)

module Ledger = struct
  let schema = "autocc.run/1"

  type assert_record = {
    a_name : string;
    a_verdict : string;
    a_depth : int;  (* CEX/proof depth; -1 unknown *)
    a_wall_s : float;
    a_cached : bool;
  }

  type run = {
    r_id : string;
    r_tool : string;
    r_subject : string;
    r_config : string;
    r_dut_hash : string;
    r_ts : float;
    r_wall_s : float;
    r_cpu_s : float;
    r_cache_hits : int;
    r_cache_misses : int;
    r_cache_stores : int;
    r_asserts : assert_record list;
    r_artifacts : string list;
  }

  (* One id per process: a CLI invocation is one run, and everything it
     stores into the verdict cache cites this id as producer. Wall-clock
     centiseconds + pid: concurrent processes differ by pid, successive
     ones by time. *)
  let generated = ref None
  let id_mutex = Mutex.create ()

  let run_id () =
    Mutex.lock id_mutex;
    let id =
      match !generated with
      | Some id -> id
      | None ->
          let id =
            Printf.sprintf "r%011x-%05d"
              (int_of_float (Unix.gettimeofday () *. 100.))
              (Unix.getpid ())
          in
          generated := Some id;
          id
    in
    Mutex.unlock id_mutex;
    id

  let resolve_dir ?explicit () =
    let nonempty = function Some d when d <> "" -> Some d | _ -> None in
    match explicit with
    | Some d -> Some d
    | None -> (
        match nonempty (Sys.getenv_opt "AUTOCC_LEDGER_DIR") with
        | Some d -> Some d
        | None -> nonempty (Sys.getenv_opt "AUTOCC_CACHE_DIR"))

  let path dir = Filename.concat dir "runs.jsonl"

  let json_of_assert a =
    Json.Obj
      [
        ("name", Json.Str a.a_name);
        ("verdict", Json.Str a.a_verdict);
        ("depth", Json.Int a.a_depth);
        ("wall_s", Json.Float a.a_wall_s);
        ("cached", Json.Bool a.a_cached);
      ]

  let json_of_run r =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("id", Json.Str r.r_id);
        ("tool", Json.Str r.r_tool);
        ("subject", Json.Str r.r_subject);
        ("config", Json.Str r.r_config);
        ("dut_hash", Json.Str r.r_dut_hash);
        ("ts", Json.Float r.r_ts);
        ("wall_s", Json.Float r.r_wall_s);
        ("cpu_s", Json.Float r.r_cpu_s);
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Int r.r_cache_hits);
              ("misses", Json.Int r.r_cache_misses);
              ("stores", Json.Int r.r_cache_stores);
            ] );
        ("asserts", Json.List (List.map json_of_assert r.r_asserts));
        ("artifacts", Json.List (List.map (fun s -> Json.Str s) r.r_artifacts));
      ]

  let run_of_json j =
    let ( let* ) = Result.bind in
    let str k =
      Option.to_result
        ~none:(Printf.sprintf "missing string field %S" k)
        (Json.str k j)
    in
    let num k d = Option.value ~default:d (Json.num k j) in
    let cache_int k =
      match Json.member "cache" j with
      | Some c -> Option.value ~default:0 (Json.int k c)
      | None -> 0
    in
    let* s = str "schema" in
    if s <> schema then Error (Printf.sprintf "unknown schema %S" s)
    else
      let* id = str "id" in
      let* tool = str "tool" in
      let* subject = str "subject" in
      let* config = str "config" in
      let* dut_hash = str "dut_hash" in
      let asserts =
        match Json.member "asserts" j with
        | Some (Json.List l) ->
            List.filter_map
              (fun a ->
                match (Json.member "name" a, Json.member "verdict" a) with
                | Some (Json.Str n), Some (Json.Str v) ->
                    Some
                      {
                        a_name = n;
                        a_verdict = v;
                        a_depth =
                          Option.value ~default:(-1) (Json.int "depth" a);
                        a_wall_s =
                          Option.value ~default:(-1.) (Json.num "wall_s" a);
                        a_cached =
                          (match Json.member "cached" a with
                          | Some (Json.Bool b) -> b
                          | _ -> false);
                      }
                | _ -> None)
              l
        | _ -> []
      in
      let artifacts =
        match Json.member "artifacts" j with
        | Some (Json.List l) ->
            List.filter_map
              (function Json.Str s -> Some s | _ -> None)
              l
        | _ -> []
      in
      Ok
        {
          r_id = id;
          r_tool = tool;
          r_subject = subject;
          r_config = config;
          r_dut_hash = dut_hash;
          r_ts = num "ts" 0.;
          r_wall_s = num "wall_s" (-1.);
          r_cpu_s = num "cpu_s" (-1.);
          r_cache_hits = cache_int "hits";
          r_cache_misses = cache_int "misses";
          r_cache_stores = cache_int "stores";
          r_asserts = asserts;
          r_artifacts = artifacts;
        }

  let append ~dir r =
    (try Files.mkdir_p dir with Sys_error _ -> ());
    (* One write(2) per row: campaign coordinator and service workers
       append concurrently from separate processes. *)
    Appender.with_path (path dir) (fun ap ->
        Appender.json_line ap (json_of_run r))

  (* File order is run order. Unparseable lines (torn final line of a
     crashed writer, foreign junk) are counted, not fatal. *)
  let load dir =
    let p = path dir in
    if not (Sys.file_exists p) then ([], 0)
    else
      let ic = open_in p in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let runs = ref [] and bad = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.trim line <> "" then
                 match Json.parse line with
                 | Error _ -> incr bad
                 | Ok j -> (
                     match run_of_json j with
                     | Ok r -> runs := r :: !runs
                     | Error _ -> incr bad)
             done
           with End_of_file -> ());
          (List.rev !runs, !bad))

  (* A run reference is either an id prefix or ["~N"]: the Nth run from
     the end of the ledger (["~1"] = latest). *)
  let find dir ~ref:r =
    let runs, _ = load dir in
    if String.length r > 1 && r.[0] = '~' then
      match int_of_string_opt (String.sub r 1 (String.length r - 1)) with
      | Some n when n >= 1 && n <= List.length runs ->
          Some (List.nth runs (List.length runs - n))
      | _ -> None
    else
      let matches =
        List.filter
          (fun run ->
            String.length run.r_id >= String.length r
            && String.sub run.r_id 0 (String.length r) = r)
          runs
      in
      match List.rev matches with last :: _ -> Some last | [] -> None
end

(* {1 Span profiler}

   Post-mortem answer to "where did the time go": fold the Chrome-trace
   spans of a finished run back into a merged call tree (children with
   the same name at the same stack position aggregate), attribute self
   time per category (the [layer.] prefix: sat vs cnf vs opt vs bmc vs
   cache vs explain), and render either a text table or a self-contained
   flamegraph SVG. Nesting is reconstructed from interval containment
   per domain: spans are recorded at exit but each fully contains its
   children, so sorting by start time (ties: longer span first) and
   running a stack gives the original tree. *)

module Profile = struct
  type node = {
    pn_name : string;
    mutable pn_total_us : float;
    mutable pn_self_us : float;
    mutable pn_count : int;
    mutable pn_children : node list; (* insertion order, reversed *)
  }

  type t = {
    p_roots : node list;
    p_total_us : float;  (* sum of root totals = attributed time *)
    p_wall_us : float;  (* extent of the trace: max end - min start *)
    p_categories : (string * float) list;  (* category -> self us, desc *)
    p_events : int;
  }

  let category name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  (* Sub-microsecond slack: timestamps round-trip through %.9g, so a
     child's recorded end can exceed its parent's by a hair. *)
  let eps = 0.5

  let of_trace j =
    match Json.member "traceEvents" j with
    | Some (Json.List evs) ->
        let spans =
          List.filter_map
            (fun e ->
              match (Json.member "ph" e, Json.member "name" e) with
              | Some (Json.Str "X"), Some (Json.Str name) -> (
                  match
                    (Json.num "ts" e, Json.num "dur" e, Json.num "tid" e)
                  with
                  | Some ts, Some dur, Some tid when dur >= 0. ->
                      Some (tid, ts, dur, name)
                  | _ -> None)
              | _ -> None)
            evs
        in
        let tids =
          List.sort_uniq compare (List.map (fun (tid, _, _, _) -> tid) spans)
        in
        let roots = ref [] in
        let find_or_create siblings name =
          match List.find_opt (fun n -> n.pn_name = name) !siblings with
          | Some n -> n
          | None ->
              let n =
                {
                  pn_name = name;
                  pn_total_us = 0.;
                  pn_self_us = 0.;
                  pn_count = 0;
                  pn_children = [];
                }
              in
              siblings := n :: !siblings;
              n
        in
        List.iter
          (fun tid ->
            (* Spans are recorded when they end, so when a coarse clock
               gives two nested spans the same start and duration, the
               later-recorded one is the parent. *)
            let mine =
              List.filter (fun (t, _, _, _) -> t = tid) spans
              |> List.mapi (fun i span -> (i, span))
              |> List.sort (fun (i1, (_, ts1, d1, _)) (i2, (_, ts2, d2, _)) ->
                     match compare ts1 ts2 with
                     | 0 -> ( match compare d2 d1 with 0 -> compare i2 i1 | c -> c)
                     | c -> c)
              |> List.map snd
            in
            (* Stack of (end_ts, node): pop until the current span fits
               inside the top, then merge it into that level. *)
            let stack = ref [] in
            List.iter
              (fun (_, ts, dur, name) ->
                while
                  match !stack with
                  | (end_ts, _) :: rest when ts +. eps >= end_ts ->
                      stack := rest;
                      true
                  | _ -> false
                do
                  ()
                done;
                let node =
                  match !stack with
                  | [] ->
                      let n = find_or_create roots name in
                      n
                  | (_, parent) :: _ ->
                      let siblings = ref parent.pn_children in
                      let n = find_or_create siblings name in
                      parent.pn_children <- !siblings;
                      n
                in
                node.pn_total_us <- node.pn_total_us +. dur;
                node.pn_count <- node.pn_count + 1;
                stack := (ts +. dur, node) :: !stack)
              mine)
          tids;
        (* Self time: total minus children (clamped — fp slack can make
           the child sum overshoot by nanoseconds). *)
        let rec finalize n =
          n.pn_children <- List.rev n.pn_children;
          List.iter finalize n.pn_children;
          let child_total =
            List.fold_left
              (fun acc c -> acc +. c.pn_total_us)
              0. n.pn_children
          in
          n.pn_self_us <- Float.max 0. (n.pn_total_us -. child_total)
        in
        let roots = List.rev !roots in
        List.iter finalize roots;
        let total =
          List.fold_left (fun acc n -> acc +. n.pn_total_us) 0. roots
        in
        let wall =
          match spans with
          | [] -> 0.
          | _ ->
              let lo =
                List.fold_left
                  (fun acc (_, ts, _, _) -> Float.min acc ts)
                  Float.infinity spans
              and hi =
                List.fold_left
                  (fun acc (_, ts, dur, _) -> Float.max acc (ts +. dur))
                  Float.neg_infinity spans
              in
              hi -. lo
        in
        let cats = Hashtbl.create 16 in
        let rec walk n =
          let c = category n.pn_name in
          Hashtbl.replace cats c
            (n.pn_self_us
            +. (match Hashtbl.find_opt cats c with Some v -> v | None -> 0.));
          List.iter walk n.pn_children
        in
        List.iter walk roots;
        let categories =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) cats []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        Ok
          {
            p_roots = roots;
            p_total_us = total;
            p_wall_us = wall;
            p_categories = categories;
            p_events = List.length spans;
          }
    | _ -> Error "not a trace: no traceEvents array"

  let of_file path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e -> Result.Error e
    | body -> (
        match Json.parse body with
        | Result.Error e -> Result.Error (Printf.sprintf "%s: %s" path e)
        | Ok j -> of_trace j)

  let fmt_ms us =
    if us >= 100000. then Printf.sprintf "%.2fs" (us /. 1e6)
    else Printf.sprintf "%.2fms" (us /. 1e3)

  let table t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "attributed %.6fs of %.6fs wall (%.1f%% covered)\n"
         (t.p_total_us /. 1e6) (t.p_wall_us /. 1e6)
         (if t.p_wall_us > 0. then 100. *. t.p_total_us /. t.p_wall_us
          else 0.));
    Buffer.add_string buf
      (Printf.sprintf "%10s %10s %6s %5s  %s\n" "TOTAL" "SELF" "COUNT" "%"
         "SPAN");
    let rec emit depth n =
      Buffer.add_string buf
        (Printf.sprintf "%10s %10s %6d %4.0f%%  %s%s\n"
           (fmt_ms n.pn_total_us) (fmt_ms n.pn_self_us) n.pn_count
           (if t.p_total_us > 0. then 100. *. n.pn_total_us /. t.p_total_us
            else 0.)
           (String.make (2 * depth) ' ')
           n.pn_name);
      List.iter (emit (depth + 1)) n.pn_children
    in
    List.iter (emit 0) t.p_roots;
    Buffer.add_string buf "\nself time by category:\n";
    List.iter
      (fun (c, us) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-12s %10s %4.0f%%\n" c (fmt_ms us)
             (if t.p_total_us > 0. then 100. *. us /. t.p_total_us else 0.)))
      t.p_categories;
    Buffer.contents buf

  let xml_escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (function
        | '<' -> Buffer.add_string buf "&lt;"
        | '>' -> Buffer.add_string buf "&gt;"
        | '&' -> Buffer.add_string buf "&amp;"
        | '"' -> Buffer.add_string buf "&quot;"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* Deterministic per-category pastel: hash the category name to a hue. *)
  let color name =
    let c = category name in
    let h = ref 17 in
    String.iter (fun ch -> h := ((!h * 31) + Char.code ch) land 0xffffff) c;
    Printf.sprintf "hsl(%d,65%%,%d%%)" (!h mod 360) (55 + (!h / 360 mod 15))

  let flamegraph_svg t =
    let width = 1200. in
    let row_h = 17. in
    let rec depth_of n =
      1 + List.fold_left (fun acc c -> max acc (depth_of c)) 0 n.pn_children
    in
    let levels =
      List.fold_left (fun acc n -> max acc (depth_of n)) 1 t.p_roots
    in
    let height = (float_of_int levels *. row_h) +. 40. in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "<?xml version=\"1.0\" standalone=\"no\"?>\n\
          <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" \
          height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n\
          <style>text{font:11px monospace;fill:#111}rect{stroke:#fff;stroke-width:0.5}</style>\n\
          <rect x=\"0\" y=\"0\" width=\"%.0f\" height=\"%.0f\" \
          fill=\"#f8f8f8\"/>\n\
          <text x=\"6\" y=\"14\">autocc profile — attributed %s of %s wall \
          (%d spans)</text>\n"
         width height width height width height
         (fmt_ms t.p_total_us) (fmt_ms t.p_wall_us) t.p_events);
    let scale =
      if t.p_total_us > 0. then width /. t.p_total_us else 0.
    in
    (* Icicle layout: roots on top, children below their parent, widths
       proportional to total time. *)
    let rec emit x y n =
      let w = n.pn_total_us *. scale in
      if w >= 0.4 then begin
        Buffer.add_string buf
          (Printf.sprintf
             "<g><title>%s — %s total, %s self, ×%d (%.1f%%)</title><rect \
              x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" height=\"%.0f\" \
              fill=\"%s\"/>"
             (xml_escape n.pn_name) (fmt_ms n.pn_total_us)
             (fmt_ms n.pn_self_us) n.pn_count
             (if t.p_total_us > 0. then
                100. *. n.pn_total_us /. t.p_total_us
              else 0.)
             x y w (row_h -. 1.) (color n.pn_name));
        if w > 40. then
          Buffer.add_string buf
            (Printf.sprintf "<text x=\"%.2f\" y=\"%.2f\">%s</text>" (x +. 3.)
               (y +. 12.)
               (xml_escape
                  (let max_chars = int_of_float (w /. 7.) in
                   if String.length n.pn_name > max_chars then
                     String.sub n.pn_name 0 max_chars
                   else n.pn_name)));
        Buffer.add_string buf "</g>\n";
        let cx = ref x in
        List.iter
          (fun c ->
            emit !cx (y +. row_h) c;
            cx := !cx +. (c.pn_total_us *. scale))
          n.pn_children
      end
    in
    let cx = ref 0. in
    List.iter
      (fun n ->
        emit !cx 24. n;
        cx := !cx +. (n.pn_total_us *. scale))
      t.p_roots;
    Buffer.add_string buf "</svg>\n";
    Buffer.contents buf
end

let enabled () =
  tracing () || Atomic.get log_on || Metrics.enabled () || Bus.enabled ()

let shutdown () =
  Exposition.stop ();
  close_trace ();
  close_log ();
  Bus.detach ();
  Metrics.disable ()
