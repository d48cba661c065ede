(* [id] only orders timers that share a deadline. *)
type 'a entry = {
  id : int;
  deadline : float;
  payload : 'a;
  mutable pending : bool;  (* false once fired or cancelled *)
}

type 'a t = {
  slots : 'a entry list array; (* unordered within a slot *)
  tick : float;
  mutable clock : float;
  mutable next_id : int;
  mutable live : int;
  mutable owner : int option;  (* domain that claimed the wheel *)
}

type timer = Timer : 'a entry -> timer [@@unboxed]

let create ?(slot_count = 256) ~tick () =
  if tick <= 0.0 then invalid_arg "Timer_wheel.create: tick <= 0";
  if slot_count <= 0 then invalid_arg "Timer_wheel.create: slot_count <= 0";
  { slots = Array.make slot_count []; tick; clock = 0.0; next_id = 0;
    live = 0; owner = None }

let now t = t.clock

let owner t = t.owner

(* Single-domain ownership: the first mutating operation claims the
   wheel for the calling domain; any later mutation from a different
   domain is a steering bug upstream (a connection's timers being
   driven from a core that does not own its stack) and must fail loudly
   — the silent alternative is two domains concurrently rewriting the
   same slot lists. *)
let claim t op =
  let self = (Domain.self () :> int) in
  match t.owner with
  | None -> t.owner <- Some self
  | Some id when id = self -> ()
  | Some id ->
    invalid_arg
      (Printf.sprintf
         "Timer_wheel.%s: wheel is owned by domain %d but was called \
          from domain %d (mis-steered timer)"
         op id self)

let slot_of t deadline =
  int_of_float (Float.floor (deadline /. t.tick)) mod Array.length t.slots

let schedule t ~delay payload =
  claim t "schedule";
  if Float.is_nan delay || delay < 0.0 then
    invalid_arg "Timer_wheel.schedule: negative or NaN delay";
  let deadline = t.clock +. delay in
  let entry = { id = t.next_id; deadline; payload; pending = true } in
  t.next_id <- t.next_id + 1;
  let slot = slot_of t deadline in
  t.slots.(slot) <- entry :: t.slots.(slot);
  t.live <- t.live + 1;
  Timer entry

let cancel t (Timer entry) =
  claim t "cancel";
  if entry.pending then begin
    entry.pending <- false;
    t.live <- t.live - 1;
    true
  end
  else false

let advance t ~now =
  claim t "advance";
  if Float.is_nan now || now < t.clock then
    invalid_arg "Timer_wheel.advance: clock cannot move backwards";
  let slot_count = Array.length t.slots in
  let target_index = int_of_float (Float.floor (now /. t.tick)) in
  let current_index = int_of_float (Float.floor (t.clock /. t.tick)) in
  (* Visit every slot the clock passes, inclusive of both endpoints:
     the loop below runs [steps + 1] iterations, covering the current
     slot (entries due within the tick the clock sits in) through the
     target slot.  An advance of a full revolution or more must visit
     each of the [slot_count] slots exactly once, so the clamp is
     [slot_count - 1] — clamping to [slot_count] would revisit the
     starting slot a second time. *)
  let steps = min (target_index - current_index) (slot_count - 1) in
  let fired = ref [] in
  let visit slot =
    let due, remaining =
      List.partition (fun e -> e.pending && e.deadline <= now) t.slots.(slot)
    in
    (* Drop cancelled entries while we are here. *)
    t.slots.(slot) <- List.filter (fun e -> e.pending) remaining;
    List.iter
      (fun e ->
        e.pending <- false;
        t.live <- t.live - 1;
        fired := e :: !fired)
      due
  in
  for i = 0 to steps do
    visit ((current_index + i) mod slot_count)
  done;
  t.clock <- now;
  !fired
  |> List.sort (fun a b ->
         match Float.compare a.deadline b.deadline with
         | 0 -> Int.compare a.id b.id
         | c -> c)
  |> List.map (fun e -> (e.deadline, e.payload))

let pending t = t.live
