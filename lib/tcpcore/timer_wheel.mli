(** Hashed timing wheel (Varghese & Lauck 1987) — the timer substrate
    a real TCP needs for 2MSL, retransmission and delayed-ack timers.
    Here it drives TIME-WAIT reaping in {!Stack}, keeping PCB removal
    on the same unmetered maintenance path the paper assumes.

    Timers hash into [slot_count] buckets of width [tick] seconds;
    {!advance} walks the buckets the clock has passed and fires due
    timers in deadline order, scheduling order breaking ties.  Schedule
    and cancel are O(1), since a {!timer} handle is its entry; advance
    is O(buckets passed + timers fired).

    A wheel is {e single-domain}: the first call to {!schedule},
    {!cancel} or {!advance} claims it for the calling domain, and any
    later mutation from a different domain raises [Invalid_argument].
    In a shared-nothing deployment ({!Parallel.Smp}) each per-core
    stack owns its wheel, so a mis-steered timer — a connection whose
    timers are driven from a core that does not own its stack — fires
    an error instead of silently corrupting another core's slot
    lists. *)

type 'a t

type timer
(** Handle for cancellation: the scheduled entry itself.  Pass it
    only to the wheel that returned it. *)

val create : ?slot_count:int -> tick:float -> unit -> 'a t
(** A wheel starting at time 0.  Defaults: 256 slots.
    @raise Invalid_argument if [tick <= 0] or [slot_count <= 0]. *)

val now : 'a t -> float
(** The wheel's clock: the last time passed to {!advance}. *)

val owner : 'a t -> int option
(** The domain id that claimed this wheel with its first mutating
    operation, or [None] for a wheel never yet scheduled against. *)

val schedule : 'a t -> delay:float -> 'a -> timer
(** Fire [delay] seconds from {!now} (delays shorter than one tick
    fire on the next advance).
    @raise Invalid_argument if [delay] is negative or NaN, or if the
    wheel is owned by a different domain. *)

val cancel : 'a t -> timer -> bool
(** True if the timer was still pending (and is now cancelled); false
    once it has fired or been cancelled.
    @raise Invalid_argument if the wheel is owned by a different
    domain. *)

val advance : 'a t -> now:float -> (float * 'a) list
(** Move the clock forward and return fired timers as
    [(deadline, payload)] in deadline order.
    @raise Invalid_argument if [now] is behind the wheel's clock, or
    if the wheel is owned by a different domain. *)

val pending : 'a t -> int
(** Timers scheduled and not yet fired or cancelled. *)
