(* Order statistics over run and pass samples. *)

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman-Fan type 7). *)
let interpolate ~n ~get q =
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    get lo +. ((h -. float_of_int lo) *. (get hi -. get lo))

let median xs =
  let a = sorted xs in
  interpolate ~n:(Array.length a) ~get:(Array.get a) 0.5

(* Latency percentiles of one pass's integer samples (sorted in place). *)
let percentiles_ns (samples : int array) qs =
  Array.sort Int.compare samples;
  let get i = float_of_int samples.(i) in
  Array.map (interpolate ~n:(Array.length samples) ~get) qs

(* First and third quartiles the way Python's
   [statistics.quantiles(xs, n=4)] computes them (the "exclusive"
   method), so spreads printed here match the ones an external
   repeatability check takes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)

(* Pointwise minimum of [xs] into [into]: over repeated passes, the
   time each window or datagram takes when nothing else on the host
   interferes.  Interference only ever adds time, and it rarely hits
   the same window in every pass. *)
let keep_min into xs = Array.iteri (fun i x -> if x < into.(i) then into.(i) <- x) xs
