(** Per-packet-kind measurement wrapper around a demultiplexer.

    {!Demux.Lookup_stats} aggregates over all lookups; the paper's
    analysis distinguishes transaction entries from response
    acknowledgements, so this wrapper additionally records each
    lookup's examined count into a per-kind accumulator by diffing the
    aggregate counter around the call.  Measurement can be switched
    off during simulation warm-up. *)

type t

val create :
  ?obs:Obs.Registry.t -> ?tracer:Obs.Trace.t -> unit Demux.Registry.t -> t
(** Wrap a demultiplexer.  [?obs] registers its accounting via
    {!Demux.Registry.observe} (counters, PCB gauge, examined-count
    histogram); [?tracer] attaches a hot-path tracer via
    {!Demux.Lookup_stats.set_tracer}.  Both default to off, leaving
    the demultiplexer untouched — every simulation workload funnels
    through here, so these two hooks instrument them all. *)

val demux : t -> unit Demux.Registry.t

val set_measuring : t -> bool -> unit
val measuring : t -> bool
(** Lookups still happen while off (the data structure must stay
    warm); they are just not recorded. *)

val start_measuring : t -> unit
(** Reset the demultiplexer's aggregate statistics and the per-kind
    accumulators, then switch measurement on — the end-of-warm-up
    action. *)

val lookup : t -> kind:Demux.Types.packet_kind -> Packet.Flow.t -> unit
(** Perform a metered receive-path lookup and record the PCBs it
    examined, read from the ledger's running total
    ({!Demux.Lookup_stats.pcbs_examined}).  A lookup that finds no PCB
    — a flow an overload guard (["guarded-*"]) shed — is recorded like
    any other: its examinations were charged all the same. *)

val note_send : t -> Packet.Flow.t -> unit

val entry_examined : t -> Numerics.Stats.t
(** Per-lookup examined counts for {!Demux.Types.Data} packets. *)

val ack_examined : t -> Numerics.Stats.t
(** Same for {!Demux.Types.Pure_ack} packets. *)
