(* Spans recorded by the benchmark around its calls into each layer of
   the program (the program's own telemetry stays off).

   A span has a name of the form [<layer>.<call>], a start, an end, a
   parent and the id of the job it belongs to. Spans stay in memory while
   the workload runs and are written once, at the end, as Chrome trace
   events that [Obs.Profile] (and so [autocc profile]) folds into
   per-layer self time. Everything runs on one thread, so nesting is by
   time containment on a single track. *)

module Json = Obs.Json

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root *)
  job : string;
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_job = ref ""
let now = Unix.gettimeofday

let fresh () =
  incr next_id;
  !next_id

let record ~id ~name ~parent ~t0 ~t1 =
  recorded := { id; name; parent; job = !current_job; t0; t1 } :: !recorded

let with_job job f =
  let saved = !current_job in
  current_job := job;
  Fun.protect ~finally:(fun () -> current_job := saved) f

(* [span name f] times [f] as one span. [split] names the parts of the
   call that the call itself reports on return (solver time, optimizer
   time): they become child spans laid end to end from the span's start,
   clamped to its end, so the remainder is the span's own self time. *)
let span ?(split = fun _ -> []) name f =
  if not !on then f ()
  else begin
    let id = fresh () in
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let t0 = now () in
    let close r =
      let t1 = now () in
      open_ids := List.tl !open_ids;
      let cursor = ref t0 in
      List.iter
        (fun (child, dur) ->
          if dur > 0. then begin
            let a = !cursor in
            let b = Float.min t1 (a +. dur) in
            record ~id:(fresh ()) ~name:child ~parent:id ~t0:a ~t1:b;
            cursor := b
          end)
        (match r with Some r -> split r | None -> []);
      record ~id ~name ~parent ~t0 ~t1
    in
    match f () with
    | r ->
        close (Some r);
        r
    | exception e ->
        close None;
        raise e
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let chrome_trace () =
  let spans = List.rev !recorded in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity spans
  in
  let us x = Json.Float ((x -. base) *. 1e6) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str (layer s.name));
                   ("ph", Json.Str "X");
                   ("ts", us s.t0);
                   ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("job", Json.Str s.job);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path = Json.write_file ~path (chrome_trace ())
