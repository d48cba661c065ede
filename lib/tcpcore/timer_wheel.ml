(* A timer is an entry index: its deadline, scheduling id, argument,
   generation and slot links sit at that index in one array each, and
   its payload in [payloads].  A slot is a doubly linked list through
   [prev]/[next], kept in (deadline, id) order; a released entry is
   threaded onto the free list through [next]. *)

(* A handle is [generation lsl index_bits lor index].  An entry's
   generation is odd while it is scheduled, and each schedule and
   release bumps it, so only the scheduling that returned a handle
   matches it. *)
type timer = int

let index_bits = 32
let index_mask = (1 lsl index_bits) - 1
let generation_mask = (1 lsl 30) - 1

(* An all-float record stores its field unboxed, so moving the clock
   allocates nothing. *)
type clock = { mutable now : float }

type 'a t = {
  tick : float;
  slot_count : int;
  clock : clock;
  mutable cursor : int;  (* no pending entry has an earlier tick *)
  (* Made at the first [schedule]: [heads] and [tails] have
     [slot_count] cells, -1 for an empty slot; the entry arrays double
     when the free list runs out. *)
  mutable heads : int array;
  mutable tails : int array;
  mutable deadlines : float array;
  mutable ids : int array;  (* scheduling order: breaks deadline ties *)
  mutable args : int array;
  mutable generations : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable payloads : 'a array;
  mutable filler : 'a option;  (* the first payload: fills unused cells *)
  mutable free : int;  (* first free entry, or -1 *)
  mutable next_id : int;
  mutable live : int;
  mutable advancing : bool;
  mutable owner : int option;  (* domain that claimed the wheel *)
  mutable fired : int;
  mutable visited : int;
  mutable insert_steps : int;
}

let create ?(slot_count = 256) ~tick () =
  if tick <= 0.0 then invalid_arg "Timer_wheel.create: tick <= 0";
  if slot_count <= 0 then invalid_arg "Timer_wheel.create: slot_count <= 0";
  { tick; slot_count; clock = { now = 0.0 }; cursor = 0; heads = [||];
    tails = [||]; deadlines = [||]; ids = [||]; args = [||];
    generations = [||]; prev = [||]; next = [||]; payloads = [||];
    filler = None; free = -1; next_id = 0; live = 0; advancing = false;
    owner = None; fired = 0; visited = 0; insert_steps = 0 }

let now t = t.clock.now

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

(* A time's tick index is [floor (time / tick)], truncated since times
   are never negative.  A time can be placed when that index fits in
   an int: NaN and infinity cannot. *)
let[@inline] placeable t time = time /. t.tick < 0x1p62
let[@inline] tick_index t time = int_of_float (time /. t.tick)

(* Double the entry arrays (or make them, at the first [schedule]) and
   thread the new entries onto the empty free list.  Unused cells hold
   the first payload, not the one being scheduled: an [Array.make]
   larger than the minor heap's largest block, with a fill value still
   in the minor heap, runs a minor collection first. *)
let grow t payload =
  let old = Array.length t.ids in
  let size = max 16 (2 * old) in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 old;
    b
  in
  if old = 0 then begin
    t.heads <- Array.make t.slot_count (-1);
    t.tails <- Array.make t.slot_count (-1);
    t.filler <- Some payload
  end;
  t.deadlines <- extend t.deadlines 0.0;
  t.ids <- extend t.ids 0;
  t.args <- extend t.args 0;
  t.generations <- extend t.generations 0;
  t.prev <- extend t.prev (-1);
  t.next <- Array.init size (fun i -> if i < old then t.next.(i) else i + 1);
  t.next.(size - 1) <- -1;
  t.payloads <- extend t.payloads (Option.value t.filler ~default:payload);
  t.free <- old

(* Link entry [e] into its slot after the last entry whose deadline is
   not later than its own.  Ids only grow, so ties keep scheduling
   order.  The walk starts at the tail, where a new deadline usually
   belongs, and counts each entry it passes. *)
let insert t e =
  let deadline = t.deadlines.(e) in
  let slot = tick_index t deadline mod t.slot_count in
  let p = ref t.tails.(slot) in
  while !p >= 0 && t.deadlines.(!p) > deadline do
    t.insert_steps <- t.insert_steps + 1;
    p := t.prev.(!p)
  done;
  let p = !p in
  let n = if p >= 0 then t.next.(p) else t.heads.(slot) in
  t.prev.(e) <- p;
  t.next.(e) <- n;
  if p >= 0 then t.next.(p) <- e else t.heads.(slot) <- e;
  if n >= 0 then t.prev.(n) <- e else t.tails.(slot) <- e

let unlink t e =
  let p = t.prev.(e) and n = t.next.(e) in
  if p < 0 || n < 0 then begin
    let slot = tick_index t t.deadlines.(e) mod t.slot_count in
    if p < 0 then t.heads.(slot) <- n;
    if n < 0 then t.tails.(slot) <- p
  end;
  if p >= 0 then t.next.(p) <- n;
  if n >= 0 then t.prev.(n) <- p

(* Return an unlinked entry to the free list.  Its cell drops the
   payload, so the wheel keeps no fired or cancelled timer's payload
   alive. *)
let release t e =
  t.generations.(e) <- (t.generations.(e) + 1) land generation_mask;
  (match t.filler with Some f -> t.payloads.(e) <- f | None -> ());
  t.next.(e) <- t.free;
  t.free <- e;
  t.live <- t.live - 1

let schedule t ~delay payload arg =
  claim t "schedule";
  if Float.is_nan delay || delay < 0.0 then
    invalid_arg "Timer_wheel.schedule: negative or NaN delay";
  let deadline = t.clock.now +. delay in
  if not (placeable t deadline) then
    invalid_arg "Timer_wheel.schedule: deadline is infinite or out of range";
  if t.free < 0 then grow t payload;
  let e = t.free in
  t.free <- t.next.(e);
  let generation = t.generations.(e) + 1 in
  t.generations.(e) <- generation;
  t.deadlines.(e) <- deadline;
  t.ids.(e) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.args.(e) <- arg;
  t.payloads.(e) <- payload;
  insert t e;
  t.live <- t.live + 1;
  (generation lsl index_bits) lor e

let cancel t timer =
  claim t "cancel";
  let e = timer land index_mask and generation = timer lsr index_bits in
  if
    generation land 1 = 1
    && e < Array.length t.generations
    && t.generations.(e) = generation
  then begin
    unlink t e;
    release t e;
    true
  end
  else false

(* Fire the entries due at tick [k], popping heads of its slot while
   they are: a head belongs to tick [k] or to a later revolution, and
   one that [fire] scheduled (id at or past [limit]) waits for the next
   advance.  Every head read counts as a visit. *)
let fire_tick t ~now ~fire ~limit k =
  let slot = k mod t.slot_count in
  let more = ref true in
  while !more do
    let e = t.heads.(slot) in
    if e < 0 then more := false
    else begin
      t.visited <- t.visited + 1;
      let deadline = t.deadlines.(e) in
      if deadline <= now && t.ids.(e) < limit && tick_index t deadline = k
      then begin
        let n = t.next.(e) in
        t.heads.(slot) <- n;
        if n >= 0 then t.prev.(n) <- -1 else t.tails.(slot) <- -1;
        let payload = t.payloads.(e) and arg = t.args.(e) in
        release t e;
        t.fired <- t.fired + 1;
        fire payload arg
      end
      else more := false
    end
  done

(* The tick of the earliest entry, or [max_int] for an empty wheel: a
   head is its slot's earliest entry. *)
let earliest_tick t =
  let earliest = ref max_int in
  for slot = 0 to t.slot_count - 1 do
    let e = t.heads.(slot) in
    if e >= 0 then begin
      t.visited <- t.visited + 1;
      earliest := min !earliest (tick_index t t.deadlines.(e))
    end
  done;
  !earliest

(* Sweep from the cursor to tick [last].  A full revolution empties the
   ticks it covers of due entries, so the sweep then jumps to the
   earliest entry left.  The cursor stays on the tick being fired, so
   if [fire] raises, the next advance resumes there. *)
let sweep t ~now ~fire last =
  let limit = t.next_id in
  let revolution_end = ref (t.cursor + t.slot_count) in
  let more = ref true in
  while !more do
    fire_tick t ~now ~fire ~limit t.cursor;
    if t.cursor >= last then more := false
    else begin
      t.cursor <- t.cursor + 1;
      if t.cursor = !revolution_end then begin
        t.cursor <- min last (earliest_tick t);
        revolution_end := t.cursor + t.slot_count
      end
    end
  done

let advance t ~now ~fire =
  claim t "advance";
  if Float.is_nan now || now < t.clock.now then
    invalid_arg "Timer_wheel.advance: clock cannot move backwards";
  if not (placeable t now) then
    invalid_arg "Timer_wheel.advance: time is infinite or out of range";
  if t.advancing then invalid_arg "Timer_wheel.advance: called from fire";
  let last = tick_index t now in
  t.clock.now <- now;
  if t.live = 0 then t.cursor <- last
  else begin
    t.advancing <- true;
    match sweep t ~now ~fire last with
    | () -> t.advancing <- false
    | exception exn ->
      t.advancing <- false;
      raise exn
  end

let pending t = t.live
let fired t = t.fired
let visited t = t.visited
let insert_steps t = t.insert_steps
let scheduled t = t.next_id
