(** Hashed timing wheel (Varghese & Lauck 1987) — the timer substrate
    a real TCP needs for its 2MSL and retransmission timers.  {!Stack}
    drives its TIME-WAIT reaping and RTO retransmissions from one
    wheel, keeping PCB removal on the same unmetered maintenance path
    the paper assumes.

    {b Layout.}  A timer is an entry in a struct of arrays: its
    deadline in a float array; its scheduling id, int argument,
    generation and slot links in int arrays; its payload in one array.
    Released entries are reused from a free list.  Timers hash by
    deadline into [slot_count] slots of width [tick] seconds, and each
    slot is a doubly linked list kept in (deadline, id) order, where
    the id is the scheduling order.  Every array, slot heads included,
    is made at the first {!schedule} and doubles on demand, so
    {!create} allocates no array.

    {b Costs.}  {!schedule} places a new entry by walking its slot back
    from the tail, past the entries due later ({!insert_steps});
    {!cancel} unlinks in O(1).  {!advance} sweeps tick by tick from the
    last advance's tick and pops the due heads of each slot it passes,
    so it fires in (deadline, id) order with no list, no sort and no
    map, and reads one head beyond the due ones per non-empty slot
    ({!visited}).  After a full revolution the sweep jumps to the
    earliest head.  Once the arrays are large enough, scheduling,
    cancelling and firing allocate nothing.

    {b Handles.}  A {!timer} is its entry's index tagged with the
    entry's generation, which each schedule and each release bumps:
    cancelling a timer that has fired or was cancelled returns [false],
    even after its entry was reused.

    {b Firing.}  {!advance} moves the clock first and then calls
    [fire payload arg] for each due timer, after releasing its entry.
    [fire] may schedule and cancel: a timer it cancels does not fire,
    and a timer it schedules waits for the next advance, even with
    delay 0.  [fire] must not call {!advance}.

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
(** Handle for cancellation: an entry index tagged with its
    generation.  Pass it only to the wheel that returned it. *)

val create : ?slot_count:int -> tick:float -> unit -> 'a t
(** A wheel starting at time 0.  Defaults: 256 slots.
    @raise Invalid_argument if [tick <= 0] or [slot_count <= 0]. *)

val placeable : 'a t -> float -> bool
(** Whether a time in seconds has a tick index that fits in an int, as
    every deadline {!schedule} accepts and every clock {!advance}
    accepts must: with [tick] seconds a tick, times below
    [2^62 * tick] (NaN and infinity are not placeable). *)

val now : 'a t -> float
(** The wheel's clock: the last time passed to {!advance}. *)

val owner : 'a t -> int option
(** The domain id that claimed this wheel with its first mutating
    operation, or [None] for a wheel never yet scheduled against. *)

val schedule : 'a t -> delay:float -> 'a -> int -> timer
(** [schedule t ~delay payload arg] fires [fire payload arg]
    [delay] seconds from {!now}, at the first {!advance} that reaches
    the deadline.
    @raise Invalid_argument if [delay] is negative or NaN, if the
    deadline is infinite or its tick index does not fit in an int, or
    if the wheel is owned by a different domain. *)

val cancel : 'a t -> timer -> bool
(** True if the timer was still pending (and is now cancelled); false
    once it has fired or been cancelled.
    @raise Invalid_argument if the wheel is owned by a different
    domain. *)

val advance : 'a t -> now:float -> fire:('a -> int -> unit) -> unit
(** Move the clock to [now] and fire every timer scheduled before this
    call whose deadline is at most [now], in (deadline, scheduling
    order).  If [fire] raises, the exception propagates, and the due
    timers it did not reach stay pending for the next advance.
    @raise Invalid_argument if [now] is behind the wheel's clock, is
    infinite or its tick index does not fit in an int, if called from
    [fire], or if the wheel is owned by a different domain. *)

val pending : 'a t -> int
(** Timers scheduled and not yet fired or cancelled. *)

(** {1 Counters}

    Since creation; {!Stack.register_obs} exports them. *)

val scheduled : 'a t -> int
(** Calls to {!schedule}. *)

val fired : 'a t -> int
(** Timers passed to [fire]. *)

val visited : 'a t -> int
(** Slot heads {!advance} read: one per fired timer, plus one per
    non-empty slot whose head was not due, plus the heads a jump
    after a full revolution compares. *)

val insert_steps : 'a t -> int
(** Entries {!schedule} walked back past, from a slot's tail, to place
    a deadline earlier than theirs: 0 for an append. *)
