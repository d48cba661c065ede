type 'a t = {
  slots : 'a option array;
  mask : int;
  head : int Atomic.t;   (* next index the consumer will read *)
  tail : int Atomic.t;   (* next index the producer will write *)
  closed : bool Atomic.t;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity <= 0";
  let capacity = next_pow2 capacity 1 in
  { slots = Array.make capacity None; mask = capacity - 1;
    head = Atomic.make 0; tail = Atomic.make 0; closed = Atomic.make false }

let capacity t = Array.length t.slots

let length t =
  (* Racy by nature (two independent atomic reads); clamp so a torn
     pair never reports a negative or over-capacity depth. *)
  let depth = Atomic.get t.tail - Atomic.get t.head in
  if depth < 0 then 0 else min depth (capacity t)

let is_empty t = length t = 0

let try_push ?(limit = max_int) t value =
  if Atomic.get t.closed then invalid_arg "Ring.try_push: ring is closed";
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head >= min limit (capacity t) then false
  else begin
    (* Plain write, then the Atomic.set on [tail] publishes it: the
       consumer's acquiring read of [tail] orders the slot contents. *)
    t.slots.(tail land t.mask) <- Some value;
    Atomic.set t.tail (tail + 1);
    true
  end

let try_pop t =
  let head = Atomic.get t.head in
  if head >= Atomic.get t.tail then None
  else begin
    let index = head land t.mask in
    let value = t.slots.(index) in
    (* Clear before publishing [head], so the producer's acquiring
       read of [head] knows the slot is free to overwrite — and so the
       ring does not retain the element against the GC. *)
    t.slots.(index) <- None;
    Atomic.set t.head (head + 1);
    match value with
    | Some _ -> value
    | None -> assert false (* producer published tail after the write *)
  end

let push ?(spin = ignore) ?limit t value =
  while not (try_push ?limit t value) do
    spin ();
    Domain.cpu_relax ()
  done

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

let rec pop_all t f =
  match try_pop t with
  | Some v ->
    f v;
    pop_all t f
  | None -> ()

(* The protocol of ring.mli's {!close}: a [None] is authoritative only
   once [closed] has been observed, so one more pass follows it. *)
let rec drain t f =
  pop_all t f;
  if is_closed t then pop_all t f
  else begin
    Domain.cpu_relax ();
    drain t f
  end
