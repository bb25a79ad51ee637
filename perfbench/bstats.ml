(* Order statistics over samples of one run. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array; nan when empty *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

let median l = percentile 50.0 (sorted l)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let geomean l = exp (mean (List.map log l))

(* a/b, with 0 when nothing was counted *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
