(* CDCL SAT solver in the MiniSat lineage.

   Literal encoding: literal [2*v] is variable [v], literal [2*v+1] is its
   negation. Assignments are kept per literal: [vals.(l)] is 0 when [l] is
   unassigned, 1 when it is true and 2 when it is false, and assigning a
   variable writes both of its literals.

   Clause storage: every clause lives in one growable [int array], the
   arena, and is named by its offset [c] there. [arena.(c)] is the header
   [len lsl 2 lor deleted lsl 1 lor learnt], [arena.(c+1)] holds the
   clause activity (the bits of a float, see [activity_of]), and the
   [len] literals follow inline from [c+2]. A watch list is a flat
   [int array] of (clause word, blocker literal) pairs: the clause word
   is [c lsl 1 lor binary], flagging a two-literal clause, and the
   blocker is some literal of the clause. When the blocker is true
   propagation skips the clause without reading it. A binary clause's
   blocker is always its other literal, so propagation turns a flagged
   entry whose blocker is not true into a unit or a conflict without
   reading the clause either.

   [reduce_db] marks dead clauses and then compacts the arena in place
   ([compact]): live clauses slide down in address order and
   every offset held elsewhere (clause lists, reasons, watch lists) is
   remapped or rebuilt in the same pass.

   Invariants:
   - The two watched literals of every live clause are at positions 0 and 1.
   - When a clause of three or more literals becomes the reason of an
     implied literal, that literal is at position 0. A binary clause is
     not reordered when it implies a literal, so its implied literal may
     be at either position: analysis puts it at position 0 when it reads
     the reason ([order_reason]), and [compact] re-points the reason of
     either literal.
   - [clauses] and [learnts] list offsets in increasing address order.
   - The trail holds assigned literals in assignment order; [trail_lim]
     marks decision-level boundaries. Assumption decisions occupy the
     lowest levels during a [solve] call. *)

type lit = int
type result = Sat | Unsat

(* A solver configuration. All search heuristics that are safe to vary
   without affecting soundness live here, so that a retry can re-run a
   query under a different search. Every field is deterministic: two
   solvers built from the same configuration and fed the same clauses
   perform the same search. *)
type config = {
  cfg_name : string;
  var_decay : float; (* VSIDS decay, in (0, 1); MiniSat uses 0.95 *)
  restart_first : int; (* conflicts in the first Luby restart period *)
  default_polarity : bool; (* initial saved phase of fresh variables *)
}

let default_config =
  {
    cfg_name = "default";
    var_decay = 0.95;
    restart_first = 100;
    default_polarity = false;
  }

(* Diverse configurations. Index 0 is always the default
   configuration. *)
let portfolio k =
  let decays = [| 0.95; 0.85; 0.99; 0.91 |] in
  let restarts = [| 100; 50; 400; 150 |] in
  List.init k (fun i ->
      if i = 0 then default_config
      else
        {
          cfg_name = Printf.sprintf "p%d" i;
          var_decay = decays.(i mod 4);
          restart_first = restarts.((i + 1) mod 4);
          default_polarity = i mod 2 = 1;
        })

exception Stopped

type budget_kind = Wall_clock | Conflicts | Memory

type budget = {
  b_deadline : float option;
  b_conflicts : int option;
  b_learnts : int option;
  b_clock : unit -> float;
}

let no_budget =
  { b_deadline = None; b_conflicts = None; b_learnts = None; b_clock = (fun () -> 0.) }

exception Out_of_budget of budget_kind

let budget_kind_to_string = function
  | Wall_clock -> "wall_clock"
  | Conflicts -> "conflicts"
  | Memory -> "memory"

type interrupt = I_stopped | I_budget of budget_kind

(* The reason of a decision, an assumption or a root-level unit. *)
let no_reason = -1

type t = {
  config : config;
  stop : unit -> bool; (* polled during propagation; true aborts the search *)
  mutable vals : int array; (* literal -> 0/1/2 *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause offset or [no_reason] *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase: last assigned value *)
  mutable heap : int array;
  mutable heap_index : int array; (* -1 when not in heap *)
  mutable heap_size : int;
  mutable arena : int array;
  mutable arena_top : int; (* first free arena slot *)
  mutable watches : int array array; (* literal -> (clause, blocker) pairs *)
  mutable watch_len : int array; (* literal -> ints in use in its list *)
  mutable seen : bool array;
  mutable trail : int array;
  mutable trail_size : int;
  trail_lim : Vec.t;
  mutable qhead : int;
  clauses : Vec.t;
  learnts : Vec.t;
  (* [analyze] scratch, sized by [new_var]: the learnt clause being built
     (asserting literal at index 0) and the variables to unmark. *)
  mutable learnt_buf : int array;
  mutable clear_buf : int array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable nvars : int;
  mutable ok : bool;
  mutable model : bool array;
  mutable model_valid : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reduces : int;
  mutable learned_total : int;
  (* Periodic statistics sampling: [sample_hook] (when installed) runs
     every [sample_every] conflicts, on the domain running the solve.
     The telemetry layer hooks this to publish solver-progress curves;
     with no hook the per-conflict cost is one comparison. *)
  mutable sample_every : int;
  mutable sample_hook : (stats -> unit) option;
  (* Resource governance: [budget] bounds this instance; [interrupt]
     records why the last solve aborted, so reports can tell budget
     exhaustion from external cancellation. *)
  mutable budget : budget;
  mutable interrupt : interrupt option;
  (* External early-exhaustion request ([trip_budget]): set from a
     sample hook (which must not raise into the search loop itself),
     consumed at the next [check_budget] poll as a normal budget
     abort. *)
  mutable tripped : budget_kind option;
  (* Counter snapshots taken at every [solve] entry, so [last_solve] can
     report the work of the most recent query alone — the number an
     incremental caller wants when the cumulative counters span many
     queries. *)
  mutable base_conflicts : int;
  mutable base_decisions : int;
  mutable base_propagations : int;
  mutable base_restarts : int;
  mutable base_reduces : int;
  mutable base_learned : int;
}

and stats = {
  s_vars : int;
  s_clauses : int;
  s_learnts : int;
  s_conflicts : int;
  s_decisions : int;
  s_propagations : int;
  s_restarts : int;
  s_reduces : int;
  s_learned_total : int;
  s_interrupt : interrupt option;
}

let lit v sign = if sign then 2 * v else (2 * v) + 1
let neg l = l lxor 1
let var_of_lit l = l lsr 1
let lit_sign l = l land 1 = 0

let create ?(config = default_config) ?(stop = fun () -> false) () =
  {
    config;
    stop;
    vals = Array.make 32 0;
    level = Array.make 16 0;
    reason = Array.make 16 no_reason;
    activity = Array.make 16 0.;
    polarity = Array.make 16 config.default_polarity;
    heap = Array.make 16 0;
    heap_index = Array.make 16 (-1);
    heap_size = 0;
    arena = Array.make 1024 0;
    arena_top = 0;
    watches = Array.make 32 [||];
    watch_len = Array.make 32 0;
    seen = Array.make 16 false;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Vec.create ();
    qhead = 0;
    clauses = Vec.create ();
    learnts = Vec.create ();
    learnt_buf = Array.make 17 0;
    clear_buf = Array.make 16 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    nvars = 0;
    ok = true;
    model = [||];
    model_valid = false;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    reduces = 0;
    learned_total = 0;
    sample_every = 0;
    sample_hook = None;
    budget = no_budget;
    interrupt = None;
    tripped = None;
    base_conflicts = 0;
    base_decisions = 0;
    base_propagations = 0;
    base_restarts = 0;
    base_reduces = 0;
    base_learned = 0;
  }

let set_budget s b = s.budget <- b

let num_vars s = s.nvars
let num_clauses s = Vec.size s.clauses
let num_propagations s = s.propagations

let stats s =
  {
    s_vars = s.nvars;
    s_clauses = Vec.size s.clauses;
    s_learnts = Vec.size s.learnts;
    s_conflicts = s.conflicts;
    s_decisions = s.decisions;
    s_propagations = s.propagations;
    s_restarts = s.restarts;
    s_reduces = s.reduces;
    s_learned_total = s.learned_total;
    s_interrupt = s.interrupt;
  }

(* The delta view: cumulative counters minus the snapshot taken when the
   last [solve] began. Size-like fields (vars, clauses, live learnts) are
   absolute — a delta of those is meaningless. *)
let last_solve s =
  {
    s_vars = s.nvars;
    s_clauses = Vec.size s.clauses;
    s_learnts = Vec.size s.learnts;
    s_conflicts = s.conflicts - s.base_conflicts;
    s_decisions = s.decisions - s.base_decisions;
    s_propagations = s.propagations - s.base_propagations;
    s_restarts = s.restarts - s.base_restarts;
    s_reduces = s.reduces - s.base_reduces;
    s_learned_total = s.learned_total - s.base_learned;
    s_interrupt = s.interrupt;
  }

(* Abort helpers: every interruption path records its cause before
   unwinding, so [stats] can report it after the exception. *)
let abort_stopped s =
  s.interrupt <- Some I_stopped;
  raise Stopped

let abort_budget s kind =
  s.interrupt <- Some (I_budget kind);
  raise (Out_of_budget kind)

(* Budget poll, shared by the propagation cancellation point and the
   solve entry. The conflict cap is checked where conflicts happen (in
   the search loop); here we watch the clock and the learnt watermark. *)
let check_budget s =
  (match s.tripped with
  | Some kind ->
      (* Clear before aborting so the solver stays reusable after the
         exception is handled (a retry with a fresh budget must not
         re-trip on entry). *)
      s.tripped <- None;
      abort_budget s kind
  | None -> ());
  (match s.budget.b_deadline with
  | Some d when s.budget.b_clock () > d -> abort_budget s Wall_clock
  | _ -> ());
  match s.budget.b_learnts with
  | Some m when Vec.size s.learnts > m -> abort_budget s Memory
  | _ -> ()

let trip_budget s kind = s.tripped <- Some kind

let on_sample s ~every hook =
  if every <= 0 then invalid_arg "Sat.Solver.on_sample: every must be positive";
  s.sample_every <- every;
  s.sample_hook <- Some hook

(* {1 Variable order: binary max-heap on activity}

   Both sifts move a hole: the moving variable is held aside while the
   variables it passes shift into the hole, and it is written once,
   where it stops. A variable rises above its parent only when its
   activity is strictly higher, and sinking takes the left child when
   the two children tie. The layout among equal activities, and so the
   decisions, depend on that rule. *)

let sift_up s i =
  let heap = s.heap and index = s.heap_index and act = s.activity in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let u = heap.(parent) in
    if a > act.(u) then begin
      heap.(!i) <- u;
      index.(u) <- !i;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- v;
  index.(v) <- !i

let sift_down s i =
  let heap = s.heap and index = s.heap_index and act = s.activity in
  let size = s.heap_size in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let child = if r < size && act.(heap.(r)) > act.(heap.(l)) then r else l in
      let u = heap.(child) in
      if act.(u) > a then begin
        heap.(!i) <- u;
        index.(u) <- !i;
        i := child
      end
      else moving := false
    end
  done;
  heap.(!i) <- v;
  index.(v) <- !i

(* Precondition: [v] is not in the heap. *)
let heap_push s v =
  let n = s.heap_size in
  s.heap.(n) <- v;
  s.heap_size <- n + 1;
  sift_up s n

let heap_pop s =
  let heap = s.heap in
  let top = heap.(0) in
  let n = s.heap_size - 1 in
  s.heap_size <- n;
  s.heap_index.(top) <- -1;
  if n > 0 then begin
    heap.(0) <- heap.(n);
    sift_down s 0
  end;
  top

(* {1 Growth} *)

let grow_array a n dummy =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  let n = s.nvars in
  s.vals <- grow_array s.vals (2 * n) 0;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n no_reason;
  s.activity <- grow_array s.activity n 0.;
  s.polarity <- grow_array s.polarity n s.config.default_polarity;
  s.heap <- grow_array s.heap n 0;
  s.heap_index <- grow_array s.heap_index n (-1);
  s.seen <- grow_array s.seen n false;
  s.trail <- grow_array s.trail n 0;
  s.learnt_buf <- grow_array s.learnt_buf (n + 1) 0;
  s.clear_buf <- grow_array s.clear_buf n 0;
  s.watches <- grow_array s.watches (2 * n) [||];
  s.watch_len <- grow_array s.watch_len (2 * n) 0;
  heap_push s v;
  v

(* {1 Clause arena} *)

let clause_len s c = s.arena.(c) lsr 2
let is_learnt_hdr h = h land 1 = 1
let is_deleted_hdr h = h land 2 = 2
let mark_deleted s c = s.arena.(c) <- s.arena.(c) lor 2

(* Clause activities are non-negative floats stored in one int slot: the
   IEEE bits shifted right by one, which drops the sign bit (always 0)
   and keeps every other bit. *)
let activity_of s c =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int s.arena.(c + 1)) 1)

let set_activity s c a =
  s.arena.(c + 1) <- Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 1)

(* Copy [lits.(0 .. len-1)] into the arena as a new clause; returns its
   offset. The arena doubles when full: every outgrown copy is garbage
   until the next major GC cycle reaches it, and growing by 1.5x left
   half again as many of them behind, which raised the peak RSS of
   campaigns that run many solver sessions in one process. *)
let alloc_clause s lits len ~learnt =
  let top = s.arena_top + len + 2 in
  if top > Array.length s.arena then begin
    let a = Array.make (max top (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  let c = s.arena_top in
  s.arena.(c) <- (len lsl 2) lor if learnt then 1 else 0;
  s.arena.(c + 1) <- 0;
  Array.blit lits 0 s.arena (c + 2) len;
  s.arena_top <- top;
  c

(* Append the pair ([cw], [blocker]) to literal [l]'s watch list; [cw]
   is a clause word, [c lsl 1 lor binary]. *)
let watch watches watch_len l cw blocker =
  let ws = watches.(l) and n = watch_len.(l) in
  let ws =
    if n + 2 <= Array.length ws then ws
    else begin
      let ws' = Array.make (max 4 (2 * Array.length ws)) 0 in
      Array.blit ws 0 ws' 0 n;
      watches.(l) <- ws';
      ws'
    end
  in
  ws.(n) <- cw;
  ws.(n + 1) <- blocker;
  watch_len.(l) <- n + 2

(* Watch positions 0 and 1, each with the other as its blocker. *)
let attach s c =
  let l0 = s.arena.(c + 2) and l1 = s.arena.(c + 3) in
  let cw = (c lsl 1) lor if clause_len s c = 2 then 1 else 0 in
  watch s.watches s.watch_len l0 cw l1;
  watch s.watches s.watch_len l1 cw l0

(* {1 Values and assignment} *)

let decision_level s = Vec.size s.trail_lim

(* Make literal [l] true with the given reason. Precondition: unassigned. *)
let assign s l reason =
  let v = l lsr 1 in
  s.vals.(l) <- 1;
  s.vals.(l lxor 1) <- 2;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.polarity.(v) <- l land 1 = 0;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

(* Returns false on inconsistency (literal already false). *)
let enqueue s l reason =
  match s.vals.(l) with
  | 1 -> true
  | 2 -> false
  | _ ->
      assign s l reason;
      true

let cancel_until s lv =
  if decision_level s > lv then begin
    let bound = Vec.get s.trail_lim lv in
    let trail = s.trail and vals = s.vals and reason = s.reason in
    let index = s.heap_index in
    for i = s.trail_size - 1 downto bound do
      let l = trail.(i) in
      let v = l lsr 1 in
      vals.(l) <- 0;
      vals.(l lxor 1) <- 0;
      reason.(v) <- no_reason;
      if index.(v) < 0 then heap_push s v
    done;
    s.trail_size <- bound;
    Vec.shrink s.trail_lim lv;
    s.qhead <- bound
  end

(* {1 Activities} *)

let cla_decay = 1.0 /. 0.999

let bump_var s v =
  let act = s.activity in
  let a = act.(v) +. s.var_inc in
  act.(v) <- a;
  if a > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  let i = s.heap_index.(v) in
  if i >= 0 then sift_up s i

let bump_clause s c =
  let a = activity_of s c +. s.cla_inc in
  set_activity s c a;
  if a > 1e20 then begin
    Vec.iter (fun c -> set_activity s c (activity_of s c *. 1e-20)) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_activities s =
  s.var_inc <- s.var_inc *. (1.0 /. s.config.var_decay);
  s.cla_inc <- s.cla_inc *. cla_decay

(* {1 Propagation} *)

(* Propagate the trail from [qhead] to a fixpoint; returns the offset of
   a conflicting clause, or [no_reason]. The queue head and the trail
   size live in locals, written back before every poll and on return;
   an implied literal is assigned in place, as [assign] would. *)
let propagate s =
  let vals = s.vals and arena = s.arena in
  let watches = s.watches and watch_len = s.watch_len in
  let trail = s.trail and level = s.level and reason = s.reason in
  let polarity = s.polarity in
  let dl = decision_level s in
  let confl = ref no_reason in
  let qhead = ref s.qhead and tsize = ref s.trail_size in
  while !confl = no_reason && !qhead < !tsize do
    s.propagations <- s.propagations + 1;
    (* Cancellation point: cheap modulo check so the poll costs nothing
       on the hot path; a firing stop or an exhausted budget aborts the
       whole solve before the next literal is dequeued (see {!Stopped} /
       {!Out_of_budget}). *)
    if s.propagations land 1023 = 0 then begin
      s.qhead <- !qhead;
      s.trail_size <- !tsize;
      if s.stop () then abort_stopped s;
      check_budget s
    end;
    let p = trail.(!qhead) in
    incr qhead;
    let false_lit = p lxor 1 in
    let ws = watches.(false_lit) and n = watch_len.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cw = ws.(!i) and blocker = ws.(!i + 1) in
      i := !i + 2;
      let bval = vals.(blocker) in
      if bval = 1 then begin
        (* Satisfied by the blocker; the clause is not read. *)
        ws.(!j) <- cw;
        ws.(!j + 1) <- blocker;
        j := !j + 2
      end
      else if cw land 1 = 1 then begin
        (* Binary: the blocker is the other literal, so the clause is a
           unit or a conflict, and is not read. *)
        ws.(!j) <- cw;
        ws.(!j + 1) <- blocker;
        j := !j + 2;
        let c = cw lsr 1 in
        if bval = 2 then begin
          (* Conflict: analysis reads the other literal first, then the
             false watch. Keep the remaining watchers and stop. *)
          arena.(c + 2) <- blocker;
          arena.(c + 3) <- false_lit;
          confl := c;
          while !i < n do
            ws.(!j) <- ws.(!i);
            incr i;
            incr j
          done
        end
        else begin
          let v = blocker lsr 1 in
          vals.(blocker) <- 1;
          vals.(blocker lxor 1) <- 2;
          level.(v) <- dl;
          reason.(v) <- c;
          polarity.(v) <- blocker land 1 = 0;
          trail.(!tsize) <- blocker;
          incr tsize
        end
      end
      else begin
        (* Ensure the false literal is at position 1. *)
        let c = cw lsr 1 in
        let l0 = c + 2 in
        let first = arena.(l0) in
        let first =
          if first = false_lit then begin
            let other = arena.(l0 + 1) in
            arena.(l0) <- other;
            arena.(l0 + 1) <- false_lit;
            other
          end
          else first
        in
        if first <> blocker && vals.(first) = 1 then begin
          (* Satisfied by the other watch, which becomes the blocker. *)
          ws.(!j) <- cw;
          ws.(!j + 1) <- first;
          j := !j + 2
        end
        else begin
          (* Look for a replacement watch. *)
          let stop = l0 + (arena.(c) lsr 2) in
          let k = ref (l0 + 2) in
          while !k < stop && vals.(arena.(!k)) = 2 do
            incr k
          done;
          if !k < stop then begin
            let w = arena.(!k) in
            arena.(l0 + 1) <- w;
            arena.(!k) <- false_lit;
            watch watches watch_len w cw first
          end
          else begin
            (* Unit or conflicting. *)
            ws.(!j) <- cw;
            ws.(!j + 1) <- first;
            j := !j + 2;
            if vals.(first) = 2 then begin
              (* Conflict: keep the remaining watchers and stop. *)
              confl := c;
              while !i < n do
                ws.(!j) <- ws.(!i);
                incr i;
                incr j
              done
            end
            else begin
              let v = first lsr 1 in
              vals.(first) <- 1;
              vals.(first lxor 1) <- 2;
              level.(v) <- dl;
              reason.(v) <- c;
              polarity.(v) <- first land 1 = 0;
              trail.(!tsize) <- first;
              incr tsize
            end
          end
        end
      end
    done;
    watch_len.(false_lit) <- !j
  done;
  s.qhead <- !qhead;
  s.trail_size <- !tsize;
  !confl

(* {1 Conflict analysis (first UIP)} *)

(* Put the implied literal [p] of reason [c] at position 0, where the
   readers of a reason expect it: a binary clause may imply the literal
   at its position 1. *)
let order_reason arena c p =
  if arena.(c) lsr 2 = 2 && arena.(c + 2) <> p then begin
    arena.(c + 3) <- arena.(c + 2);
    arena.(c + 2) <- p
  end

(* Local minimization, as in basic MiniSat: literal [q] of the learnt
   clause is redundant when every antecedent in its reason is at level
   0 or already in the clause (still marked seen). *)
let redundant s q =
  let v = q lsr 1 in
  let r = s.reason.(v) in
  r <> no_reason
  &&
  let arena = s.arena and seen = s.seen and level = s.level in
  order_reason arena r (q lxor 1);
  let stop = r + 2 + (arena.(r) lsr 2) in
  let j = ref (r + 3) in
  while
    !j < stop
    &&
    let w = arena.(!j) lsr 1 in
    level.(w) = 0 || seen.(w)
  do
    incr j
  done;
  !j = stop

(* Build the learnt clause of conflict [confl] in [learnt_buf], asserting
   literal first; returns its length. *)
let analyze s confl =
  let arena = s.arena and seen = s.seen and level = s.level in
  let trail = s.trail and reason = s.reason in
  let buf = s.learnt_buf and clear_buf = s.clear_buf in
  let n = ref 1 in
  let nclear = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let dl = decision_level s in
  let continue = ref true in
  while !continue do
    let c = !confl in
    let h = arena.(c) in
    if is_learnt_hdr h then bump_clause s c;
    (* The conflict clause contributes every literal; a reason clause
       all but its implied literal at position 0. *)
    let start =
      if !p < 0 then c + 2
      else begin
        order_reason arena c !p;
        c + 3
      end
    in
    for j = start to c + 1 + (h lsr 2) do
      let q = arena.(j) in
      let v = q lsr 1 in
      if (not seen.(v)) && level.(v) > 0 then begin
        seen.(v) <- true;
        clear_buf.(!nclear) <- v;
        incr nclear;
        bump_var s v;
        if level.(v) >= dl then incr counter
        else begin
          buf.(!n) <- q;
          incr n
        end
      end
    done;
    (* Walk the trail back to the next marked literal. *)
    while not seen.(trail.(!idx) lsr 1) do
      decr idx
    done;
    p := trail.(!idx);
    decr idx;
    seen.(!p lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue := false else confl := reason.(!p lsr 1)
  done;
  let m = ref 1 in
  for i = 1 to !n - 1 do
    let q = buf.(i) in
    if not (redundant s q) then begin
      buf.(!m) <- q;
      incr m
    end
  done;
  buf.(0) <- !p lxor 1;
  for i = 0 to !nclear - 1 do
    seen.(clear_buf.(i)) <- false
  done;
  !m

(* {1 Clause management} *)

let is_locked s c =
  let l = s.arena.(c + 2) in
  s.reason.(l lsr 1) = c && s.vals.(l) <> 0

(* Drop every clause marked deleted by sliding the live ones down over
   it, in address order, and re-point everything that names a clause by
   offset: the clause lists are rebuilt in the same order, the watch
   lists are rebuilt from positions 0 and 1, and a reason is moved with
   its clause. A clause is the reason of at most one variable, the one
   at its position 0, or at position 1 in a binary clause; clauses only
   move down, so one pass needs no forwarding table. *)
let compact s =
  let a = s.arena in
  Vec.clear s.clauses;
  Vec.clear s.learnts;
  Array.fill s.watch_len 0 (2 * s.nvars) 0;
  let src = ref 0 and dst = ref 0 in
  while !src < s.arena_top do
    let h = a.(!src) in
    let size = (h lsr 2) + 2 in
    if not (is_deleted_hdr h) then begin
      let c = !dst in
      if c <> !src then Array.blit a !src a c size;
      let v = a.(c + 2) lsr 1 in
      if s.reason.(v) = !src then s.reason.(v) <- c;
      if h lsr 2 = 2 then begin
        let v = a.(c + 3) lsr 1 in
        if s.reason.(v) = !src then s.reason.(v) <- c
      end;
      Vec.push (if is_learnt_hdr h then s.learnts else s.clauses) c;
      attach s c;
      dst := c + size
    end;
    src := !src + size
  done;
  s.arena_top <- !dst

let reduce_db s =
  s.reduces <- s.reduces + 1;
  (* Remove the less active half of the learnt clauses. *)
  let by_activity = Array.init (Vec.size s.learnts) (Vec.get s.learnts) in
  Array.sort
    (fun a b -> Float.compare (activity_of s a) (activity_of s b))
    by_activity;
  for i = 0 to (Array.length by_activity / 2) - 1 do
    let c = by_activity.(i) in
    if clause_len s c > 2 && not (is_locked s c) then mark_deleted s c
  done;
  compact s

(* Record the learnt clause of length [len] in [learnt_buf]: backjump to
   the second-highest level in it, store it, and assert its first
   literal. *)
let record_learnt s len =
  s.learned_total <- s.learned_total + 1;
  let buf = s.learnt_buf in
  if len = 1 then begin
    cancel_until s 0;
    if not (enqueue s buf.(0) no_reason) then s.ok <- false
  end
  else begin
    (* Position 1 must hold a literal from the backtrack level so the
       watches are on the two highest-level literals. *)
    let best = ref 1 in
    for k = 2 to len - 1 do
      if s.level.(buf.(!best) lsr 1) < s.level.(buf.(k) lsr 1) then best := k
    done;
    let tmp = buf.(1) in
    buf.(1) <- buf.(!best);
    buf.(!best) <- tmp;
    cancel_until s s.level.(buf.(1) lsr 1);
    let c = alloc_clause s buf len ~learnt:true in
    Vec.push s.learnts c;
    bump_clause s c;
    attach s c;
    assign s buf.(0) c
  end

let add_clause s lits =
  if s.ok then begin
    assert (decision_level s = 0);
    (* Simplify: drop duplicates and false literals, detect tautologies and
       satisfied clauses. Sorted, a literal [2v] and its negation [2v+1]
       are adjacent, so one pass over neighbours finds any tautology. *)
    let lits = List.sort_uniq Int.compare lits in
    let rec tautology = function
      | a :: (b :: _ as rest) -> a lxor 1 = b || tautology rest
      | _ -> false
    in
    if not (tautology lits || List.exists (fun l -> s.vals.(l) = 1) lits) then
      match List.filter (fun l -> s.vals.(l) <> 2) lits with
      | [] -> s.ok <- false
      | [ l ] -> assign s l no_reason
      | lits ->
          let lits = Array.of_list lits in
          let c = alloc_clause s lits (Array.length lits) ~learnt:false in
          Vec.push s.clauses c;
          attach s c
  end

(* {1 Search} *)

let luby y x =
  (* Luby restart sequence, as in MiniSat. *)
  let rec find_size size seq x = if size < x + 1 then find_size ((2 * size) + 1) (seq + 1) x else (size, seq) in
  let rec go size seq x =
    if size - 1 = x then Float.pow y (float_of_int seq)
    else
      let size = (size - 1) / 2 in
      let seq = seq - 1 in
      go size seq (x mod size)
  in
  let size, seq = find_size 1 0 x in
  go size seq x

(* Pop variables until an unassigned one: the next decision. *)
let decide s =
  let vals = s.vals in
  let v = ref (-1) in
  while !v < 0 && s.heap_size > 0 do
    let u = heap_pop s in
    if vals.(2 * u) = 0 then v := u
  done;
  let v = !v in
  if v < 0 then false
  else begin
    s.decisions <- s.decisions + 1;
    Vec.push s.trail_lim s.trail_size;
    assign s (lit v s.polarity.(v)) no_reason;
    true
  end

let solve ?(assumptions = []) s =
  s.model_valid <- false;
  s.interrupt <- None;
  s.base_conflicts <- s.conflicts;
  s.base_decisions <- s.decisions;
  s.base_propagations <- s.propagations;
  s.base_restarts <- s.restarts;
  s.base_reduces <- s.reduces;
  s.base_learned <- s.learned_total;
  if not s.ok then Unsat
  else begin
    (* A solve aborted by an exception leaves its decisions behind. The
       root level stays propagated up to [qhead], so later calls resume
       from there instead of re-propagating the whole level-0 trail. *)
    cancel_until s 0;
    (* A deadline that already passed (or a conflict cap already spent by
       earlier incremental calls) must abort even if this query would
       propagate to an answer without ever reaching a poll point. *)
    check_budget s;
    (match s.budget.b_conflicts with
    | Some cap when s.conflicts >= cap -> abort_budget s Conflicts
    | _ -> ());
    let assumptions = Array.of_list assumptions in
    let max_learnts = ref (float_of_int (max 1000 (Vec.size s.clauses / 3))) in
    let restart = ref 0 in
    let status = ref None in
    while !status = None do
      let budget =
        int_of_float (float_of_int s.config.restart_first *. luby 2. !restart)
      in
      incr restart;
      let conflict_count = ref 0 in
      (* One restart period. *)
      let inner_done = ref false in
      while (not !inner_done) && !status = None do
        let confl = propagate s in
        if confl <> no_reason then begin
          s.conflicts <- s.conflicts + 1;
          incr conflict_count;
          (match s.budget.b_conflicts with
          | Some cap when s.conflicts >= cap -> abort_budget s Conflicts
          | _ -> ());
          (match s.sample_hook with
          | Some hook when s.conflicts mod s.sample_every = 0 -> hook (stats s)
          | _ -> ());
          if decision_level s = 0 then begin
            s.ok <- false;
            status := Some Unsat
          end
          else begin
            record_learnt s (analyze s confl);
            decay_activities s;
            if not s.ok then status := Some Unsat
          end
        end
        else if !conflict_count >= budget then begin
          s.restarts <- s.restarts + 1;
          cancel_until s 0;
          inner_done := true
        end
        else if float_of_int (Vec.size s.learnts) > !max_learnts then begin
          max_learnts := !max_learnts *. 1.5;
          reduce_db s
        end
        else if decision_level s < Array.length assumptions then begin
          let p = assumptions.(decision_level s) in
          match s.vals.(p) with
          | 1 ->
              (* Already true: open a dummy decision level. *)
              Vec.push s.trail_lim s.trail_size
          | 2 -> status := Some Unsat
          | _ ->
              Vec.push s.trail_lim s.trail_size;
              assign s p no_reason
        end
        else if not (decide s) then begin
          (* All variables assigned: a model. *)
          s.model <- Array.init s.nvars (fun v -> s.vals.(2 * v) = 1);
          s.model_valid <- true;
          status := Some Sat
        end
      done
    done;
    cancel_until s 0;
    (match !status with
    | Some Sat -> ()
    | _ -> s.model_valid <- false);
    Option.get !status
  end

let value s v =
  if not s.model_valid then failwith "Sat.value: no model available";
  if v < Array.length s.model then s.model.(v) else false

(* {1 Activation literals}

   The incremental-BMC protocol: guard a clause group with a fresh
   literal [a] by adding each clause as [¬a ∨ C], solve under the
   assumption [a] to activate the group, and retire the group forever
   with the unit clause [¬a] — after which every guarded clause is
   satisfied at level 0. *)

let new_act s = lit (new_var s) true
let add_clause_act s ~act lits = add_clause s (neg act :: lits)
let retire s act = add_clause s [ neg act ]

let config s = s.config

let pp_stats fmt s =
  Format.fprintf fmt
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d reduces=%d"
    s.nvars (Vec.size s.clauses) (Vec.size s.learnts) s.conflicts s.decisions
    s.propagations s.restarts s.reduces
