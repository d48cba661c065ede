(** Shared-nothing per-core TCP stacks with flow steering.

    {!Striped}, {!Coarse} and [Epoch.Packed] share one table between
    domains; this module replicates the entire stack instead.  Each
    domain owns a private {!Tcpcore.Stack} — its own connection table
    and demultiplexer — and the dispatcher steers raw datagrams to the
    owning core with a constant-time header peek, exactly as NIC
    receive-side scaling would.  It stages each datagram for its core
    through {!Dispatcher.staging}, and ships each core's datagrams as
    one ring message of up to 32, through {!Dispatcher.offer}'s tier
    policy (the chaos harness in [lib/check/chaos.ml] runs on the same
    two pieces).  No mutable state is shared between domains: every
    cross-core interaction travels over an SPSC {!Ring}, so the full
    receive path — parse, steer, enqueue, demux, state machine — runs
    without a single lock or shared write.

    {!run} never advances a stack's clock
    ({!Tcpcore.Stack.advance_clock}): each stack's timing wheel holds
    the timers its connections arm, but no RTO, TIME-WAIT or
    delayed-ACK timer fires during a run, so nothing is retransmitted,
    reaped or acknowledged late, and a connection's replies are exactly
    those its datagrams trigger.

    {2 Steering}

    The dispatcher shards by the demultiplexer's own chain bucket
    (chain-affine steering), so every hash chain lives wholly on one
    core and an N-core run performs {e bit-identical} per-chain work
    to a single-core run — the property the cross-core lockstep tests
    assert, down to exact {!Demux.Lookup_stats} equality.  It reads the
    bucket from the flow's packed words in place
    ({!Packet.Segment.peek_w0}), with no {!Packet.Flow.t}, boxed
    address or [result] per datagram ({!steer}).  Every stack
    listens on port 8888 and draws its initial sequence numbers from
    {!Tcpcore.Stack.deterministic_iss}; per-stack ISS counters would
    break that lockstep.

    {2 Flow migration}

    With [migrate] every datagram is first steered to domain 0, the
    listener core.  When a handshake completes there, the connection
    moves to its owning core k once every datagram already routed to
    the listener core has been handled there.  Every core has one
    input ring, and the dispatcher is its only producer, so the
    listener core talks to the dispatcher over a control ring, and all
    handoff state lives in the dispatcher's route map:

    {v
      worker 0:   Migrate f -> ctrl
      dispatcher: route[f] <- held;  Flush f -> ring 0
                  (f's later datagrams wait in the hold, in order)
      worker 0:   on Flush f: extract_connection f -> ctrl
                  (none if it closed meanwhile)
      dispatcher: Adopt conn -> ring k;  held datagrams -> ring k;
                  route[f] <- k
    v}

    FIFO order on one ring carries the protocol, because the
    dispatcher ships a ring's partial batch before it pushes [Flush] or
    [Adopt] there, so ring order is steering order:
    - [Flush] follows on ring 0 every datagram of the flow steered
      there before its hold;
    - [Adopt] goes onto ring k before the held datagrams are staged and
      before the route changes, so it precedes every datagram of the
      flow on that ring.

    So each datagram is steered once, to the core that then handles
    it, and none is ever forwarded; {!violations} checks the ledger.
    A flow whose connection closed before its [Flush] goes back to the
    listener core with its held datagrams.  Handoff messages block on
    a full ring and are never shed by a pressure tier; held datagrams
    meet the tier policy when they are staged.  While a push spins,
    the dispatcher only reads the control ring into its relay queue,
    so no message can overtake the datagram it is blocked on.

    Shutdown is by count, in datagrams: the listener core counts the
    datagrams of each message it has finished, control sends included,
    and the dispatcher counts the datagrams it shipped onto ring 0.
    Each [Flush] counts one on both sides.  Once the two agree and the
    control ring and relay queue are empty, the dispatcher closes every
    ring at once.

    At [domains = 1] the handoff degenerates to a {e self-handoff} —
    the same extract and adopt table operations against the same
    stack, at once — so single-domain runs remain op-for-op comparable
    with multi-domain ones. *)

type config = {
  domains : int;
  ring_capacity : int;
      (** The most steered datagrams a core may have queued.  Its
          ring has [ring_capacity] slots, rounded up to a power of
          two; a batch of at most [b = min 32 ring_capacity]
          datagrams goes onto it only while it holds fewer than
          [ring_capacity / b] messages, and handoff messages may use
          the rest. *)
  demux : Demux.Registry.spec;
  migrate : bool;
  migrate_target : int option;
      (** With [migrate]: adopt every flow on this domain, or spread
          across domains 1..N-1 by flow hash when [None]. *)
  local_addr : Packet.Ipv4.addr;
  on_data :
    Tcpcore.Stack.t -> Tcpcore.Stack.connection -> string -> unit;
      (** Application callback, invoked on whichever domain owns the
          connection — it must not capture domain-unsafe state. *)
  pressure : Pressure.config option;
      (** Per-domain overload controllers (one {!Pressure.t} each, so
          a stalled core degrades locally without dragging siblings
          down).  Each samples its ring's occupancy, against the
          [ring_capacity / b] messages batches may fill, at every
          datagram steered to it; a batch meets the tier policy
          whole. *)
  on_pressure : Pressure.t array -> unit;
      (** Observation hook handed the per-domain controllers before
          the run starts — tests use it to {!Pressure.force} tiers. *)
}

val config :
  ?ring_capacity:int ->
  ?demux:Demux.Registry.spec ->
  ?migrate:bool ->
  ?migrate_target:int ->
  ?on_data:(Tcpcore.Stack.t -> Tcpcore.Stack.connection -> string -> unit) ->
  ?pressure:Pressure.config ->
  ?on_pressure:(Pressure.t array -> unit) ->
  domains:int ->
  local_addr:Packet.Ipv4.addr ->
  unit ->
  config
(** Defaults: ring capacity 1024, Sequent with
    {!Demux.Sequent.default_chains} chains (the stack's own default),
    no migration, no-op [on_data], no pressure.
    @raise Invalid_argument on non-positive domains / capacity,
    a migrate target outside [0, domains), or [migrate_target]
    without [migrate]. *)

type conn_summary = {
  flow : Packet.Flow.t;
  state : Tcpcore.State.t;
  bytes_in : int;
  bytes_out : int;
  snd_nxt : int32;
  rcv_nxt : int32;
  snd_una : int32;
}
(** The cross-core comparable image of one connection.  Structural
    equality on sorted summary lists is the lockstep oracle. *)

type domain_result = {
  index : int;
  steered : int;        (** Datagrams pushed to this domain's ring. *)
  rejected : int;       (** Refused at dispatch ({!Pressure.Reject}). *)
  dropped_full : int;   (** Dropped at dispatch on a full ring
                            ({!Pressure.Drop_batches}). *)
  processed : int;      (** Datagrams fed to the stack. *)
  adopted : int;        (** Connections adopted from the listener core. *)
  migrated_out : int;   (** Connections extracted and handed off. *)
  self_handoffs : int;  (** Extract+adopt against the same stack
                            ([domains = 1] or target = listener). *)
  flushes : int;        (** [Flush] messages answered (listener core
                            only). *)
  tx : int;             (** Reply segments emitted by this stack. *)
  connections : int;
  drops : (string * int) list;        (** {!Tcpcore.Stack.drop_counts}. *)
  stats : Demux.Lookup_stats.snapshot;
  tier : string option;               (** Final pressure tier. *)
  tier_transitions : (string * int) list;
  pressure_counters : (string * int) list;
}

type result = {
  domains : int;
  total : int;                        (** Datagrams offered. *)
  per_domain : domain_result array;
  merged_drops : (string * int) list;
  merged_stats : Demux.Lookup_stats.snapshot;
  connections : conn_summary list;    (** All domains, sorted by flow. *)
  handoffs : int;                     (** Cross-core migrations. *)
  self_handoffs : int;
  held : int;
      (** Datagrams the dispatcher held while their flow moved. *)
  flushes : int;                      (** [Flush] messages pushed. *)
  unreleased : int;
      (** Flows still held at shutdown: 0 unless the handoff protocol
          is broken. *)
  elapsed_s : float;
      (** Wall clock from before the first spawn to after the last
          join, the run's only clock reads: no datagram is timed.
          The per-stage costs of this path are rxbench's traced
          smp-oltp run ([bench/rx]). *)
  packets_per_s : float;              (** Delivered datagrams / s. *)
}

val steer : config -> bytes -> int
(** [steer cfg] is the dispatcher's steering without migration: the
    datagram's chain bucket under [cfg.demux]'s
    {!Demux.Registry.chain_geometry}, mod [cfg.domains], read from its
    flow words in place; core 0 when {!Packet.Segment.peek_tcp} cannot
    read its 4-tuple.  Apply it to [cfg] once: the function it returns
    allocates nothing under a word-folding hasher such as the default
    spec's. *)

val run : config -> bytes array -> result
(** Replay a wire-format datagram trace (e.g.
    {!Sim.Segment_workload.generate}) through [domains] per-core
    stacks.  Spawns one domain per stack (each stack is created,
    driven and summarized entirely inside its domain — the
    {!Tcpcore.Timer_wheel} ownership check holds the pipeline to
    that); the calling domain runs the dispatcher.
    @raise Invalid_argument on an empty trace. *)

val violations : result -> string list
(** The conservation ledger, empty when sound: each domain processed
    every datagram steered to it, every offered datagram was steered,
    rejected or dropped at dispatch, adoptions match handoffs, every
    [Flush] was answered, and no flow is held at shutdown. *)

val register_obs : ?prefix:string -> result -> Obs.Registry.t -> unit
(** Register the run's counters (totals and per-domain), rate and
    elapsed time under ["<prefix>."] (default ["smp"]). *)

val pp : Format.formatter -> result -> unit
