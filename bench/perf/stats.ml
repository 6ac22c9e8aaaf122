(** Order statistics shared by the runner, the summaries and [compare]. *)

let sorted xs = List.sort Float.compare xs

(** Quartiles by the "exclusive" method of Python's
    [statistics.quantiles(xs, n=4)], so spreads printed here match ones
    recomputed from the raw values with that function.  Needs two
    values. *)
let quartiles xs =
  let d = Array.of_list (sorted xs) in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile of a sorted array ([p] in 0..100). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: empty";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(** Spread between quartiles as a share of the median (0 below two
    values, where no spread is measurable). *)
let rel_iqr xs =
  if List.length xs < 2 then 0.0
  else
    let q1, q2, q3 = quartiles xs in
    if q2 = 0.0 then if q3 = q1 then 0.0 else infinity
    else (q3 -. q1) /. Float.abs q2
