(** The producer side of a sharded ring pipeline: per-target staging
    and the tier policy every push meets.

    A producer picks each item's target itself (for {!Smp}, the core
    its datagram's flow steers to; for the chaos harness in
    [lib/check/chaos.ml], the worker owning the op's flow hash),
    stages it there ({!stage}), and ships each target's batch onto its
    bounded SPSC {!Ring} through {!offer}.  The rings are bounded, so
    a slow consumer surfaces as backpressure: the producer spins until
    space frees (lossless).  With a {!Pressure} controller attached,
    degradation is tiered instead: ring occupancy feeds the
    controller, and at [Drop_batches] or worse a full ring sheds the
    batch (attributed to the tier), while at [Reject] batches are
    refused before the ring is tried at all. *)

(** {1 Staging} *)

type 'a staging
(** Per-target batch buffers.  {!Smp}'s dispatcher flushes a core's
    partial batch before a control message goes onto that core's ring.
    Producer-side only. *)

val staging :
  targets:int -> batch:int -> ship:(int -> 'a array -> int -> unit) ->
  'a staging
(** Buffers for [targets] targets of up to [batch] items each.
    [ship target items fill] is called when [fill] items are staged for
    [target] — its batch filled, or {!flush} — with the target's own
    buffer, which holds the items in [0, fill) in staging order.  The
    buffer is reused once [ship] returns, so it must copy what it
    keeps.  [targets] and [batch] must be positive. *)

val stage : 'a staging -> target:int -> 'a -> unit
(** Stage [item] for [target], shipping the target's batch when it
    fills. *)

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
