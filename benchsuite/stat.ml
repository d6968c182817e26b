(* Order statistics over timing samples. *)

let sorted l = Array.of_list (List.sort compare l)

(* Linear interpolation between closest ranks, [p] in [0, 1]. *)
let percentile p l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n ->
      let pos = p *. float_of_int (n - 1) in
      let i = truncate pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile 0.5 l

(* The first and third quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] (method "exclusive") computes
   them, so spreads read the same as any script comparing run files. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let sum l = List.fold_left ( +. ) 0. l
