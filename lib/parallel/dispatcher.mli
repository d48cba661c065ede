(** Batched, sharded pipeline: one producer feeding N worker domains
    through bounded SPSC rings — the demux pipeline of
    [tcpdemux parallel --pipeline] and the chaos harness
    ([Fault.Chaos]) both run on it.

    This is the software shape of hardware RSS (receive-side scaling):
    the producer hashes each item and sends it to the worker that owns
    that hash shard, so all of a connection's packets meet the same
    worker — per-chain caches stay warm and no two workers ever contend
    on one connection.  Items travel in {e batches} of up to [batch]
    per worker, and each worker hands every batch to its [consume]
    callback — for a lookup pipeline, a batched lookup such as
    {!Striped.lookup_batch_keyed}, which takes each stripe mutex once
    per batch rather than once per packet.

    The rings are bounded, so a slow worker surfaces as backpressure:
    the producer spins until space frees (lossless).  With a
    {!Pressure} controller attached, degradation is tiered instead:
    ring occupancy feeds the controller, and at [Drop_batches] or worse
    a full ring sheds the batch (attributed to the tier), while at
    [Reject] batches are refused before the ring is tried at all.

    {!Smp}'s dispatcher runs on the same two pieces: it stages each
    datagram for the core it steered it to ({!staging}), and ships
    every batch through the tier policy ({!offer}). *)

type result = {
  workers : int;
  batch : int;
  packets : int;              (** Items offered to the producer. *)
  found : int;                (** Sum of what [consume] returned. *)
  batches : int;              (** Batches actually pushed. *)
  tier_dropped_packets : int; (** Shed on full rings at [Drop_batches]. *)
  rejected_packets : int;     (** Refused outright at [Reject]. *)
  max_ring_depth : int;       (** Deepest ring occupancy observed. *)
  elapsed_seconds : float;
      (** Monotonic, from {!start}'s clock read before it spawns the
          workers to the last join — the window {!Smp.result}'s
          [elapsed_s] covers too. *)
  packets_per_second : float;
  per_worker_packets : int array;  (** Delivered per shard — shows hash balance. *)
}

val lost_packets : result -> int
(** [tier_dropped_packets + rejected_packets]: every offered item is
    either delivered to a worker or counted here — the conservation
    law the chaos harness audits. *)

(** {1 Staging} *)

type 'a staging
(** Per-target batch buffers: {!push} stages through one, and so does
    {!Smp}'s dispatcher, which picks each datagram's core itself and
    flushes a core's partial batch before a control message goes onto
    that core's ring.  Producer-side only. *)

val staging :
  targets:int -> batch:int ->
  ship:(int -> 'a array -> int array -> int -> unit) -> 'a staging
(** Buffers for [targets] targets of up to [batch] items each.
    [ship target items hashes fill] is called when [fill] items are
    staged for [target] — its batch filled, or {!flush} — with the
    target's own buffers, which hold the items and their hashes in
    [0, fill) in staging order.  The buffers are reused once [ship]
    returns, so it must copy what it keeps.  [targets] and [batch]
    must be positive. *)

val stage : 'a staging -> target:int -> hash:int -> 'a -> unit
(** Stage [item] with its [hash] for [target], shipping the target's
    batch when it fills. *)

val flush : 'a staging -> int -> unit
(** Ship the target's partial batch, if it has one. *)

(** {1 Tier policy} *)

type offered = Shipped | Rejected | Dropped

val offer :
  ?pressure:Pressure.t -> ?spin:(unit -> unit) -> ?limit:int -> 'a Ring.t ->
  'a -> packets:int -> offered
(** The tier policy for one push of a value carrying [packets] items:
    - at {!Pressure.Reject} the value is refused before the ring is
      tried ([Rejected]);
    - otherwise, if the ring is full, it is dropped at
      {!Pressure.Drop_batches} or worse ([Dropped]);
    - below that a full ring is backpressure: {!Ring.push} spins, with
      [spin], until the consumer frees a slot ([Shipped]).

    With [limit], the ring counts as full at [limit] values
    ({!Ring.try_push}), and its occupancy is taken against [limit].
    With [pressure], every offer, a refused one included, samples the
    ring's depth into the controller ({!Pressure.note_ring_depth}), and
    refusals and drops are counted there
    ({!Pressure.note_rejected}, {!Pressure.note_dropped_batch}).
    Without it every offer ships.  Producer-side only. *)

(** {1 The pipeline} *)

type 'a t
(** A running pipeline; the producer loop belongs to the caller. *)

val start :
  ?obs:Obs.Registry.t -> ?tracer:Obs.Trace.t -> ?ring_capacity:int ->
  ?pressure:Pressure.t ->
  workers:int -> batch:int -> hash:('a -> int) ->
  consume:(int -> 'a array -> hashes:int array -> int) -> unit -> 'a t
(** Spawn [workers] domains.  Worker [w] applies [consume w] once in
    its own domain before its first pop (the place for per-worker
    state or an injected start-up stall), then calls the result on
    every batch it pops, with [hashes] holding each item's [hash],
    computed {e once} by the producer — a keyed batch lookup reuses
    them instead of re-deriving per-packet keys.  [consume] must be
    safe to run in several domains at once.

    [hash] must be non-negative; an item goes to worker
    [hash item mod workers].  [ring_capacity] (default 64 batches per
    worker) is rounded up to a power of two.

    With [?obs], registers [pipeline.batch_size] and
    [pipeline.ring_depth] histograms, the [pipeline.backpressure_drops]
    counter (tier drops) and the [pipeline.ring_depth_max] gauge.  With
    [?tracer], records one [Batch] event per push ([a] = size, [b] =
    worker shard); the tracer is touched only by the producer.

    With [?pressure], every batch goes through {!offer}; its
    tier-attributed losses are counted both in the controller and in
    [tier_dropped_packets] / [rejected_packets].

    @raise Invalid_argument if [workers], [batch] or [ring_capacity]
    is non-positive. *)

val push : 'a t -> 'a -> unit
(** Stage one item for its worker, shipping the worker's batch when it
    fills.  Producer-side only: call from the domain that called
    {!start}, never after {!finish}. *)

val finish : 'a t -> result
(** Ship every partial batch, close the rings, join the workers and
    report. *)

val run :
  ?obs:Obs.Registry.t -> ?tracer:Obs.Trace.t -> ?ring_capacity:int ->
  ?pressure:Pressure.t ->
  workers:int -> batch:int -> hash:('a -> int) ->
  consume:(int -> 'a array -> hashes:int array -> int) -> 'a array -> result
(** {!start}, {!push} every item in order, {!finish}. *)

val pp : Format.formatter -> result -> unit
