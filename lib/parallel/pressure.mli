(** Tiered overload controller for the parallel pipeline.

    One controller is shared by the {!Dispatcher} (which samples
    worker-ring occupancy at each {!Dispatcher.offer}) and the
    {!Striped} table (which samples insert latency under its stripe
    lock); both signals are classified against high/low watermarks and
    folded into a single degradation tier:

    {ul
    {- {!Normal} — full service.}
    {- {!Shed_new_flows} — tables refuse {e new} flows
       ({!Striped.try_insert} answers [`Shed]); established traffic is
       untouched.}
    {- {!Drop_batches} — the dispatcher drops a whole batch instead of
       blocking when a worker ring is full.}
    {- {!Reject} — the dispatcher stops offering batches entirely.}}

    Movement between tiers is hysteretic: [trip] consecutive hot
    observations (any signal at or above its high watermark) escalate
    one tier; [hold] consecutive calm observations (every signal at or
    below its {e low} watermark) recover one tier; observations between
    the watermarks reset both streaks.  So a brief spike does not
    escalate, and recovery waits for genuinely quiet load, not just a
    dip below "hot".

    [tier] is a single atomic read — safe and cheap from any domain.
    Every shed/drop/reject decision is counted per tier, so accounting
    can be audited exactly ({!Check}'s chaos oracle does). *)

type tier = Tcpcore.Stack.overload_tier =
  | Normal
  | Shed_new_flows
  | Drop_batches
  | Reject
(** The stack's own tier type, so a stack's overload probe is
    [fun () -> tier p]. *)

val tiers : tier list
(** In severity order, mildest first. *)

val tier_name : tier -> string
(** ["normal"], ["shed-new-flows"], ["drop-batches"], ["reject"]. *)

type config

val config :
  ?ring_high_pct:int -> ?ring_low_pct:int -> ?insert_ns_high:int ->
  ?insert_ns_low:int -> ?trip:int -> ?hold:int -> unit -> config
(** Watermarks and hysteresis.  Ring occupancy is classified in percent
    of capacity (hot at or above [ring_high_pct], default 75; calm at
    or below [ring_low_pct], default 25); insert latency in
    nanoseconds (hot at or above [insert_ns_high], default 50_000;
    calm at or below [insert_ns_low], default 5_000).  [trip] (default
    4) and [hold] (default 16) are the escalation and recovery streak
    lengths.
    @raise Invalid_argument if a high watermark does not exceed its
    low, or a streak length is non-positive. *)

type t

val create : ?config:config -> unit -> t
(** A fresh controller at {!Normal}. *)

val tier : t -> tier
(** Current tier — one atomic read, callable from any domain. *)

val configuration : t -> config

(** {1 Observations} *)

val note_ring_depth : t -> depth:int -> capacity:int -> unit
(** One ring-occupancy sample ({!Dispatcher.offer}, at each offer). *)

val note_insert_ns : t -> int -> unit
(** One insert-latency sample ({!Striped}, under the stripe lock). *)

val force : t -> tier -> unit
(** Pin the tier, ignoring observations until {!release} — chaos
    scenarios and tests use this to stage a specific degradation. *)

val release : t -> unit
(** Undo {!force}; observations drive the tier again (from wherever
    [force] left it). *)

(** {1 Decisions}

    Hot-path predicates (one atomic read each) plus the matching
    accounting note, called by the component that acted on the
    decision. *)

val admits_new_flows : t -> bool
(** [false] at {!Shed_new_flows} or worse. *)

val drops_batches : t -> bool
(** [true] at {!Drop_batches} or worse. *)

val rejecting : t -> bool
(** [true] at {!Reject}. *)

val note_shed_flow : t -> unit
val note_dropped_batch : t -> packets:int -> unit
val note_rejected : t -> packets:int -> unit

(** {1 Accounting} *)

val shed_flows : t -> int
val dropped_batches : t -> int
val dropped_batch_packets : t -> int
val rejected_packets : t -> int
val observations : t -> int

val transitions : t -> (string * int) list
(** Entries into each tier since creation, keyed by {!tier_name}, in
    {!tiers} order. *)

val counters : t -> (string * int) list
(** The three degradation counters keyed by the tier that caused them:
    [("shed-new-flows", flows); ("drop-batches", packets);
    ("reject", packets)]. *)
