(** Bounded single-producer / single-consumer ring.

    The queue between a dispatcher and each worker domain: the
    dispatcher is the only pusher, the worker the only popper, so
    neither side ever takes a lock — one atomic read and one atomic
    write per operation, and the bounded capacity is the pipeline's
    backpressure signal (a full ring means the worker is behind).
    The chaos harness ([lib/check/chaos.ml]) feeds one ring per worker
    with batches; {!Smp} feeds one ring per core with messages, and
    adds one control ring whose only producer is the listener core and
    whose only consumer is the dispatcher.

    Safety relies on the SPSC contract: concurrent {!try_push} or
    {!push} from two domains (or {!try_pop} or {!drain} from two) is a
    race.  {!length}, {!is_closed} and {!capacity} may be read from
    anywhere. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacity is rounded up to the next power of two.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int
(** The rounded capacity actually in force. *)

val try_push : ?limit:int -> 'a t -> 'a -> bool
(** Producer side.  [false] means full — the caller decides whether to
    spin (backpressure) or drop.  With [limit], the ring counts as full
    once it holds [limit] elements, so one kind of value can be kept to
    part of the ring while another may use all of it.
    @raise Invalid_argument if the ring has been {!close}d. *)

val push : ?spin:(unit -> unit) -> ?limit:int -> 'a t -> 'a -> unit
(** Blocking {!try_push}: while the ring is full, call [spin] (default
    nothing) and relax the CPU, then try again.  [spin] is the
    producer's chance to keep its own inputs moving while it waits —
    it must not push onto this ring, or it could overtake [value].
    @raise Invalid_argument if the ring has been {!close}d. *)

val try_pop : 'a t -> 'a option
(** Consumer side.  [None] means currently empty, not finished: check
    {!is_closed}, and after observing it closed, pop again until empty
    (a push may land between a failed pop and the close check) — or
    let {!drain} do both. *)

val length : 'a t -> int
(** Current depth.  Approximate under concurrency (the two ends move
    independently) but always within [0, capacity] — good enough for
    the pipeline's ring-depth gauge. *)

val is_empty : 'a t -> bool

val close : 'a t -> unit
(** Producer signals end-of-stream.  Elements already queued remain
    poppable; further pushes raise [Invalid_argument].  Idempotent.

    {b Close semantics.}  [close] is part of the producer's program
    order: every element pushed before the call is published (the
    producer's [Atomic] write of the tail index happens before the
    closed flag is set), so a consumer that {e observes}
    [is_closed t = true] is guaranteed that one final drain —
    popping until {!try_pop} returns [None] — delivers every element
    that was ever pushed, exactly once and in push order.  The full
    consumer protocol is therefore:

    {v
      pop until None;
      if is_closed then pop until None  (* authoritative: done *)
      else retry / back off             (* None just meant empty *)
    v}

    The second drain is not optional: a push can land between a
    failed pop and the close check, and [None] from {!try_pop} means
    "empty right now", never "finished", until closed has been
    observed.  Nothing is lost and nothing is duplicated when pushes
    race [close] from the producer's own domain — the race that
    matters is only ever producer-vs-consumer, which the SPSC
    index discipline already orders.  {!drain} is this protocol; see
    the produce-vs-close property test in [test_parallel.ml]. *)

val is_closed : 'a t -> bool

val drain : 'a t -> ('a -> unit) -> unit
(** Consumer side: apply [f] to every element in push order until the
    ring is closed and empty, relaxing the CPU while it is empty but
    open — the protocol {!close} describes.  Returns after the
    producer has closed the ring and every element has been handed to
    [f], each exactly once. *)
