(* Tiered overload controller shared by the dispatcher and the
   concurrent tables.

   The controller watches two load signals — worker-ring occupancy
   (sampled by [Dispatcher.offer] at each offer) and table insert
   latency (sampled by [Striped] under its stripe lock) — against
   high/low watermarks, and folds them into one degradation tier:

     Normal -> Shed_new_flows -> Drop_batches -> Reject

   Escalation and recovery are deliberately asymmetric (hysteresis): a
   run of [trip] consecutive hot observations escalates one tier, but
   only a run of [hold] consecutive calm observations — every signal
   back under its *low* watermark — recovers one tier.  Observations
   between the watermarks are neutral: they break both streaks, so the
   controller neither flaps under oscillating load nor recovers while
   the signal merely dipped below "hot".

   The tier itself and every counter are atomics, so any domain may
   read [tier] on its hot path without a lock.  The streak state is
   guarded by a mutex.  Ring observations come once per offer: per
   batch for the chaos harness, but per datagram for [Smp]'s dispatcher,
   which with a controller attached pays a lock and an unlock per
   datagram.  Insert observations come once per insert. *)

type tier = Tcpcore.Stack.overload_tier =
  | Normal
  | Shed_new_flows
  | Drop_batches
  | Reject

let tiers = [ Normal; Shed_new_flows; Drop_batches; Reject ]

let tier_index = function
  | Normal -> 0
  | Shed_new_flows -> 1
  | Drop_batches -> 2
  | Reject -> 3

let tier_of_index = function
  | 0 -> Normal
  | 1 -> Shed_new_flows
  | 2 -> Drop_batches
  | _ -> Reject

let tier_name = function
  | Normal -> "normal"
  | Shed_new_flows -> "shed-new-flows"
  | Drop_batches -> "drop-batches"
  | Reject -> "reject"

type config = {
  ring_high_pct : int;   (* ring occupancy %: hot at or above *)
  ring_low_pct : int;    (* ring occupancy %: calm at or below *)
  insert_ns_high : int;  (* insert latency ns: hot at or above *)
  insert_ns_low : int;   (* insert latency ns: calm at or below *)
  trip : int;            (* consecutive hot observations to escalate *)
  hold : int;            (* consecutive calm observations to recover *)
}

let config ?(ring_high_pct = 75) ?(ring_low_pct = 25)
    ?(insert_ns_high = 50_000) ?(insert_ns_low = 5_000) ?(trip = 4)
    ?(hold = 16) () =
  if ring_high_pct <= ring_low_pct then
    invalid_arg "Pressure.config: ring_high_pct <= ring_low_pct";
  if insert_ns_high <= insert_ns_low then
    invalid_arg "Pressure.config: insert_ns_high <= insert_ns_low";
  if trip <= 0 then invalid_arg "Pressure.config: trip <= 0";
  if hold <= 0 then invalid_arg "Pressure.config: hold <= 0";
  { ring_high_pct; ring_low_pct; insert_ns_high; insert_ns_low; trip; hold }

type t = {
  cfg : config;
  cur : int Atomic.t;             (* tier_index of the current tier *)
  lock : Mutex.t;
  mutable hot_streak : int;
  mutable calm_streak : int;
  mutable pinned : bool;          (* a forced tier ignores observations *)
  transitions : int Atomic.t array;  (* entries into each tier *)
  observations : int Atomic.t;
  shed_flows : int Atomic.t;      (* inserts refused at >= Shed_new_flows *)
  dropped_batches : int Atomic.t; (* batches dropped at Drop_batches *)
  dropped_batch_packets : int Atomic.t;
  rejected_packets : int Atomic.t; (* packets refused outright at Reject *)
}

let create ?(config = config ()) () =
  { cfg = config;
    cur = Atomic.make 0;
    lock = Mutex.create ();
    hot_streak = 0;
    calm_streak = 0;
    pinned = false;
    transitions = Array.init 4 (fun _ -> Atomic.make 0);
    observations = Atomic.make 0;
    shed_flows = Atomic.make 0;
    dropped_batches = Atomic.make 0;
    dropped_batch_packets = Atomic.make 0;
    rejected_packets = Atomic.make 0 }

let tier t = tier_of_index (Atomic.get t.cur)
let configuration t = t.cfg

let set_tier t target =
  let target = tier_index target in
  if Atomic.exchange t.cur target <> target then
    Atomic.incr t.transitions.(target)

let force t target =
  Mutex.lock t.lock;
  t.pinned <- true;
  t.hot_streak <- 0;
  t.calm_streak <- 0;
  set_tier t target;
  Mutex.unlock t.lock

let release t =
  Mutex.lock t.lock;
  t.pinned <- false;
  t.hot_streak <- 0;
  t.calm_streak <- 0;
  Mutex.unlock t.lock

(* Fold one observation, already classified against its watermarks. *)
let observe t ~hot ~calm =
  Atomic.incr t.observations;
  Mutex.lock t.lock;
  (if not t.pinned then
     if hot then begin
       t.calm_streak <- 0;
       t.hot_streak <- t.hot_streak + 1;
       if t.hot_streak >= t.cfg.trip then begin
         t.hot_streak <- 0;
         let cur = Atomic.get t.cur in
         if cur < 3 then set_tier t (tier_of_index (cur + 1))
       end
     end
     else if calm then begin
       t.hot_streak <- 0;
       t.calm_streak <- t.calm_streak + 1;
       if t.calm_streak >= t.cfg.hold then begin
         t.calm_streak <- 0;
         let cur = Atomic.get t.cur in
         if cur > 0 then set_tier t (tier_of_index (cur - 1))
       end
     end
     else begin
       (* Between the watermarks: neither escalating nor recovering. *)
       t.hot_streak <- 0;
       t.calm_streak <- 0
     end);
  Mutex.unlock t.lock

let note_ring_depth t ~depth ~capacity =
  if capacity > 0 then begin
    let pct = depth * 100 / capacity in
    observe t ~hot:(pct >= t.cfg.ring_high_pct) ~calm:(pct <= t.cfg.ring_low_pct)
  end

let note_insert_ns t ns =
  observe t ~hot:(ns >= t.cfg.insert_ns_high) ~calm:(ns <= t.cfg.insert_ns_low)

(* Decision helpers: what does the current tier permit? *)
let admits_new_flows t = Atomic.get t.cur < tier_index Shed_new_flows
let drops_batches t = Atomic.get t.cur >= tier_index Drop_batches
let rejecting t = Atomic.get t.cur >= tier_index Reject

let note_shed_flow t = Atomic.incr t.shed_flows

let note_dropped_batch t ~packets =
  Atomic.incr t.dropped_batches;
  ignore (Atomic.fetch_and_add t.dropped_batch_packets packets)

let note_rejected t ~packets =
  ignore (Atomic.fetch_and_add t.rejected_packets packets)

let shed_flows t = Atomic.get t.shed_flows
let dropped_batches t = Atomic.get t.dropped_batches
let dropped_batch_packets t = Atomic.get t.dropped_batch_packets
let rejected_packets t = Atomic.get t.rejected_packets
let observations t = Atomic.get t.observations

let transitions t =
  List.map
    (fun tr -> (tier_name tr, Atomic.get t.transitions.(tier_index tr)))
    tiers

let counters t =
  [ ("shed-new-flows", shed_flows t);
    ("drop-batches", dropped_batch_packets t);
    ("reject", rejected_packets t) ]
