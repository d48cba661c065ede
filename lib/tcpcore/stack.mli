(** A minimal TCP segment-processing engine.

    Enough of a stack to drive every demultiplexing algorithm with
    real wire-format segments: passive and active opens, in-order data
    delivery with an immediate cumulative acknowledgement of each
    segment, RTO retransmission of SYN/FIN/data via a timing wheel
    with jittered exponential backoff, TIME-WAIT reaping after 2MSL
    (60 s), orderly close, and RST for segments that match no socket.
    It has one configuration: only the demultiplexer, the base RTO and
    the ISS function are chosen at {!create}.
    Out of scope (documented in DESIGN.md): adaptive RTO estimation,
    delayed acknowledgement (the paper's footnote 2 is modelled by the
    TPC/A simulation instead, [Sim.Tpca_workload]'s [delayed_acks]),
    congestion control, flow-control windows, urgent data — none of
    which affect PCB lookup, which is what this library studies.

    The stack is push-driven and owns no I/O: callers feed segments in
    with {!handle_segment} / {!handle_bytes} and drain replies with
    {!poll_output}.  It reads no clock: time enters only through
    {!advance_clock}, and the per-layer cost of its receive path is
    measured from outside, by rxbench's traced run ([bench/rx]).

    {b The receive path.}  Both entry points feed one receive core
    that takes a segment's fields as immediate ints: its packed flow
    words ({!Packet.Flow.w0}/{!Packet.Flow.w1}), flags byte, sequence
    and acknowledgement numbers, and payload.  {!handle_bytes} reads
    them where they lie in the datagram, after
    {!Packet.Segment.check}; {!handle_segment} reads them from its
    record.  Either way a segment costs exactly one metered lookup,
    the demultiplexer's one lookup, on words
    ({!Demux.Registry.t.lookup}: one closure call into the table's
    own), and no [Ipv4.t], [Tcp_header.t], flags record or [Flow.t]
    is built on the way to the state machine: a flow is made only for
    a new connection or an RST.  Payload-less segments (pure ACKs,
    SYNs, SYN-ACKs and FINs) are built on the connection's [template],
    without {!Packet.Segment.make}, with the same bytes.  Under every
    registry spec but ["splay"], a warm duplicate pure ACK through
    {!handle_bytes} and {!poll_output} allocates nothing; with the
    default demultiplexer an in-sequence data segment allocates its
    payload copy, its [rcv_nxt] box and its ACK.
    A warm accepted SYN allocates about 89 words: its connection, flow,
    template, PCB and table entry, and its SYN-ACK with the SYN-ACK's
    queue and outbox cells.

    {b Timers.}  One {!Timer_wheel} with a 1/64-s tick and 256 slots
    holds every 2MSL and RTO timer.  A timer's payload is its
    connection, and its argument is an int that says whether it reaps
    and, for a retransmission, packs the segment's sequence number and
    attempt, so arming, cancelling and firing one allocate nothing.
    {!advance_clock} fires due timers in (deadline, scheduling order);
    what a firing arms waits for the next call.  The wheel's arrays
    are made at the first timer, not by {!create}. *)

type t

val log_src : Logs.src
(** Log source ["tcpdemux.stack"]; connection events at debug level. *)

type listener
(** A port's [on_data] callback, as registered by {!listen}. *)

type connection = {
  flow : Packet.Flow.t;
  template : Packet.Ipv4.t;
      (** The IPv4 header of the connection's payload-less segments
          (ACK, SYN, SYN-ACK, FIN), made once when the connection is
          (4.3BSD's [t_template]). *)
  mutable state : State.t;
  mutable snd_nxt : int32;   (** Next sequence number we will send. *)
  mutable rcv_nxt : int32;   (** Next sequence number we expect. *)
  mutable snd_una : int32;   (** Oldest unacknowledged sequence number. *)
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable unacked : (int32 * Packet.Segment.t) list;
      (** Retransmission queue, oldest first: sequence-space-consuming
          segments (SYN, FIN, data) not yet covered by [snd_una]. *)
  mutable listener : listener option;
      (** The listener this connection delivers its data to, [None] for
          nowhere: see {!listen}.  Owned by the stack. *)
  mutable time_wait_timer : Timer_wheel.timer option;
      (** The armed 2MSL timer, while the connection waits in
          TIME-WAIT.  Owned by the stack. *)
}

val create :
  ?demux:Demux.Registry.spec -> ?retransmit_timeout:float ->
  ?iss:(Packet.Flow.t -> int32) ->
  local_addr:Packet.Ipv4.addr -> unit -> t
(** A host at [local_addr].  Default demultiplexer: the Sequent
    algorithm with 19 chains.  [retransmit_timeout] is the base RTO
    for SYN/FIN/data segments (default 1 s; no adaptive estimation —
    out of scope per DESIGN.md).  Each unanswered retransmission backs
    off exponentially, capped at 64x, and a segment is abandoned after
    12 attempts.  Each backoff delay is {e full-jittered}: attempt [n]
    waits a uniform draw from [[base, min(base * 2^(n-1), base * 64)]],
    so hosts that lost the same burst do not retransmit in a
    synchronized wave that re-creates the overload; draws come from a
    generator with a fixed seed, so two stacks created the same way
    draw the same delay sequence.  {!advance_clock} reaps a TIME-WAIT
    connection 60 s (2MSL) after it entered TIME-WAIT.
    [iss] overrides initial-sequence-number assignment with a per-flow
    function (see {!deterministic_iss}); by default each open draws
    from a per-stack counter, which makes ISS depend on accept order.
    @raise Invalid_argument if [retransmit_timeout] is not positive
    and finite, or if its capped backoff, 64 × [retransmit_timeout],
    lies beyond the timer wheel's range from clock 0
    ({!Timer_wheel.placeable}: about 7.2e16 s at the 1/64-s tick).  A
    clock advanced to within that delay (or the 60-s 2MSL) of the
    range's end cannot arm them: there {!handle_bytes} sheds a segment
    that arms a timer as a ["handler-error"], a SYN to a listener after
    its connection was added and its SYN-ACK queued. *)

val deterministic_iss : Packet.Flow.t -> int32
(** A fixed mix of the 4-tuple (RFC 6528 minus the secret and clock):
    with [~iss:deterministic_iss], a connection's sequence state no
    longer depends on the order the stack accepted its neighbours, so
    N per-core stacks accepting the same flows in any interleaving
    produce bit-identical [snd_*] fields — what the cross-core
    lockstep tests compare. *)

val rto_for_attempt : t -> int -> float
(** The delay armed before retransmission attempt [n >= 1] (attempt 1
    is the initial send's timer, the base RTO, and draws nothing).  A
    later attempt consumes one draw from the stack's generator per
    call, exactly as the retransmission path does — exposed so tests
    can audit the bounds and determinism of the schedule. *)

val local_addr : t -> Packet.Ipv4.addr

val listen : t -> port:int -> on_data:(t -> connection -> string -> unit) -> unit
(** Accept connections on [port] ({!Conn_table.listen}: one listener
    per port, not per address; {!handle_bytes} has already dropped
    datagrams for other hosts).  [on_data] fires for each in-order
    data segment delivered on a connection bound to this listener.  A
    connection is bound once, when it is made: one accepted here is
    bound to the listener its SYN reached, one opened by {!connect}
    from [port] to the listener on [port] at that moment, and one
    installed by {!adopt_connection} to the adopting stack's listener
    on its local port.  So a listener registered on a port after an
    active open from it does not receive that connection's data.
    @raise Invalid_argument if the port is busy. *)

val connect : t -> local_port:int -> remote:Packet.Flow.endpoint -> connection
(** Active open: emits a SYN and returns the new connection in
    [Syn_sent], bound to the listener on [local_port], if any (see
    {!listen}).
    @raise Invalid_argument if the flow already exists. *)

val send : t -> connection -> string -> unit
(** Queue a data segment on an established connection.
    @raise Invalid_argument unless the connection can carry data
    ([Established] or [Close_wait]). *)

val close : t -> connection -> unit
(** Orderly close: emits FIN.
    @raise Invalid_argument if the connection cannot close from its
    current state. *)

val handle_segment : t -> Packet.Segment.t -> unit
(** Process one received segment: demultiplex (metered), advance the
    state machine, queue any replies.  The receive core reads the
    segment's fields from the record; the destination address is not
    checked. *)

val handle_bytes : t -> bytes -> (unit, string) result
(** Validate a raw datagram in place ({!Packet.Segment.check}: both
    checksums and every check {!Packet.Segment.parse} makes) and
    process it, reading its header fields where they lie and copying
    only a non-empty payload.  A datagram the check rejects is named by
    {!Packet.Segment.reason}, without parsing: its [Error] is the only
    allocation.  Never raises, whatever the bytes: malformed input,
    datagrams for other hosts, and segments whose processing fails are
    shed, counted under a named counter ({!drop_counts}), and reported
    as [Error]; it behaves as [Segment.parse] followed by a destination
    check and {!handle_segment}. *)

val drop_counts : t -> (string * int) list
(** Segments and datagrams shed since creation, by reason:
    ["parse-error"], ["wrong-destination"] and ["handler-error"] from
    {!handle_bytes}'s input validation, plus the overload tiers'
    named reasons — ["overload-shed-new-flow"] (listener SYNs refused
    at {!Shed_new_flows}), ["overload-drop-batch"] (non-established
    traffic shed at {!Drop_batches}) and ["overload-reject"]
    (datagrams refused outright at {!Reject}). *)

val drops_total : t -> int
(** Sum of {!drop_counts}. *)

val drop_reasons : string list
(** The {!drop_counts} keys, in drop-code order: code [i] in a traced
    [Drop] event names reason [List.nth drop_reasons i]. *)

(** {1 Overload degradation}

    The parallel pipeline's pressure controller
    ({!Parallel.Pressure}) lives above this library; the stack sees
    its tier through a closure, keeping tcpcore dependency-free.  Each
    tier maps onto a named drop reason (see {!drop_counts}). *)

type overload_tier = Normal | Shed_new_flows | Drop_batches | Reject
(** In severity order; [Parallel.Pressure.tier] re-exports it. *)

val set_overload_probe : t -> (unit -> overload_tier) -> unit
(** Install the tier source, read once per {!handle_bytes} datagram
    or direct {!handle_segment} call (default: always {!Normal}), so a
    tier that moves mid-datagram cannot shed a datagram already
    admitted.  At {!Shed_new_flows},
    listener SYNs are shed silently (the peer's RTO retries the open;
    no RST).  At {!Drop_batches}, everything except established
    connections' traffic is shed, including the RST courtesy for
    strays.  At {!Reject}, {!handle_bytes} sheds before parsing and
    {!handle_segment} before demultiplexing.  Every shed is counted
    under its tier's reason and traced as a [Drop] event. *)

val drop_reason_of_code : int -> string option
(** Decode a traced [Drop] event's payload [a] back to its reason;
    [None] for any other integer, as a damaged trace may carry. *)

val set_tracer : t -> Obs.Trace.t -> unit
(** Attach a tracer to both the stack ([Drop] events, payload: reason
    code and datagram length) and its demultiplexer's
    {!Demux.Lookup_stats}, so one event stream interleaves drops with
    lookups.  Pass {!Obs.Trace.disabled} to detach. *)

val register_obs : ?prefix:string -> t -> Obs.Registry.t -> unit
(** Register the stack's accounting into an observability registry
    under ["<prefix>."] (default ["stack"]): per-reason and total drop
    counters, [segments_sent] / [rsts_sent] / [retransmissions],
    connection-population gauges, the timer wheel's [timer.pending]
    gauge and [timer.scheduled] / [timer.fired] / [timer.visited] /
    [timer.insert_steps] counters ({!Timer_wheel.visited} and
    {!Timer_wheel.insert_steps} say what the last two count), and —
    via {!Demux.Registry.observe} under ["<prefix>.demux"] — the
    demultiplexer's lookup counters and examined-count histogram. *)

val poll_output : t -> Packet.Segment.t list
(** Drain queued outbound segments, oldest first.  Transmit-side demux
    bookkeeping ({!Demux.Registry.t.note_send}) has already run.  A
    one-segment outbox is returned as it is, without a copy. *)

val advance_clock : t -> now:float -> int
(** Drive the stack's {!Timer_wheel}, its only way to reap:
    connections that entered TIME-WAIT more than 2MSL (60 s) before
    [now] are reaped, and unacknowledged SYN/FIN/data segments whose
    RTO has elapsed are retransmitted (and re-armed with exponentially
    longer timeouts, up to 12 attempts).  Returns the number of
    effective actions (reaps + retransmissions); timers made moot by
    later acks fire silently.  The caller owns the clock (wall time,
    simulated time, ...); time starts at 0.

    A circuit breaker stops every retransmission once the stack has
    made 768 (12 × 64) since it was created, and the count never
    falls: a burst of SYNs that are never answered (a SYN flood)
    spends it, and later connections' SYN-ACKs and data are then
    never retransmitted.  rxbench's synflood reaches it (its pinned
    768 retransmissions).
    @raise Invalid_argument if [now] moves backwards or is infinite, or
    if its tick index does not fit in an int. *)

val pending_time_wait : t -> int
(** TIME-WAIT connections whose 2MSL timer is armed: those awaiting
    reaping. *)

val retransmissions : t -> int
(** Segments re-sent by the RTO timer since the stack was created (at
    most 768: see {!advance_clock}). *)

val connection_of_flow : t -> Packet.Flow.t -> connection option
(** Uncharged lookup for applications that track their peers. *)

val iter_connections : t -> (connection -> unit) -> unit
(** Visit every resident connection (unmetered maintenance view), in
    no particular order. *)

(** {1 Flow migration}

    The shared-nothing handoff primitive: a listener core completes
    the handshake, {!extract_connection} detaches the connection from
    its table and timers, the connection record travels to the owning
    core (over an SPSC ring in {!Parallel.Smp}), and
    {!adopt_connection} installs it there.  Extraction ships a {e
    fresh} record and neutralizes the original (Closed, empty
    retransmission queue), so timers still pending on the old core's
    wheel can never touch state that now lives on another domain. *)

val set_on_established : t -> (t -> connection -> unit) option -> unit
(** Hook fired when a {e passive} open completes its handshake (the
    ACK of our SYN-ACK arrives), after any piggybacked data has been
    delivered.  This is where a steering layer decides whether to
    migrate the accepted connection to another core.  The hook runs
    inside segment processing: it must not reenter the stack for this
    segment (defer table mutations to after {!handle_bytes} returns). *)

val extract_connection : t -> Packet.Flow.t -> connection option
(** Detach the connection for handoff: remove it from the demux table
    (unmetered maintenance removal, counted as a remove in
    {!demux_stats}), cancel its 2MSL timer if armed, and return a
    fresh copy of the record, bound to no listener and with no timer;
    the original is closed and emptied so pending RTO timers on this
    stack fire as no-ops.
    [None] if the flow is not resident. *)

val adopt_connection : t -> connection -> unit
(** Install an extracted connection into this stack: bind it to this
    stack's listener on its local port (see {!listen}), demux-table
    insert (counted), re-arm 2MSL if the connection is in TIME-WAIT, and
    a first-attempt RTO for each still-unacknowledged segment.
    @raise Invalid_argument if the connection is [Closed] or its local
    address is not this stack's. *)

val connection_count : t -> int
val demux_stats : t -> Demux.Lookup_stats.t
val segments_sent : t -> int
val rsts_sent : t -> int
