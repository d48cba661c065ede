type virtual_ = { mutable instant : float }

(* A variant rather than a closure, so [store] can write each built-in
   source's reading into a float array without boxing it. *)
type t =
  | Wall
  | Monotonic
  | Virtual of virtual_
  | Fixed of float
  | Fun of (unit -> float)

(* CLOCK_MONOTONIC via bechamel's stub: never steps backwards and is
   unaffected by NTP slews, unlike [Unix.gettimeofday]. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now = function
  | Wall -> Unix.gettimeofday ()
  | Monotonic -> Int64.to_float (Monotonic_clock.now ()) /. 1e9
  | Virtual v -> v.instant
  | Fixed instant -> instant
  | Fun f -> f ()

(* Each branch reads and stores its float in one expression, so the
   compiler keeps it unboxed; [now]'s result is boxed at the return. *)
let store t times i =
  match t with
  | Wall -> times.(i) <- Unix.gettimeofday ()
  | Monotonic -> times.(i) <- Int64.to_float (Monotonic_clock.now ()) /. 1e9
  | Virtual v -> times.(i) <- v.instant
  | Fixed instant -> times.(i) <- instant
  | Fun f -> times.(i) <- f ()

let wall () = Wall
let monotonic () = Monotonic
let of_fun f = Fun f
let fixed instant = Fixed instant

let create_virtual ?(start = 0.0) () =
  if Float.is_nan start || start < 0.0 then
    invalid_arg "Clock.create_virtual: negative or NaN start";
  { instant = start }

let read v = Virtual v

let set v time =
  if Float.is_nan time then invalid_arg "Clock.set: NaN time";
  if time < v.instant then invalid_arg "Clock.set: time in the past";
  v.instant <- time

let advance v delta =
  if Float.is_nan delta || delta < 0.0 then
    invalid_arg "Clock.advance: negative or NaN delta";
  v.instant <- v.instant +. delta
