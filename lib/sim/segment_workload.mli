(** Segment-level workload generation: deterministic wire-format
    datagram traces for driving full stacks end-to-end.

    Every other workload in this library speaks demultiplexer
    operations; the shared-nothing pipeline ({!Parallel.Smp}) consumes
    {e bytes} — the full path is parse → steer → demux → state
    machine.  This generator plays the client side of [clients]
    concurrent connections against {!Topology.server}: handshake, an
    optional stream of request segments, optionally an orderly close,
    all serialized with valid checksums.

    The trace is pure data, computed before the run, so it can be
    replayed identically into one stack or sharded across N — which
    requires knowing the server's SYN-ACK sequence number in advance.
    The generator takes it from [Tcpcore.Stack.deterministic_iss]:
    give the server stacks that function as their [~iss] and every
    client acknowledgement in the trace is exactly right. *)

type interleave =
  | Sequential   (** All of flow 0's segments, then flow 1's, ... *)
  | Round_robin  (** Phase-by-phase: every SYN, every handshake ACK,
                     every first request, ... — maximal concurrency. *)
  | Shuffled     (** Seeded random merge of the per-flow queues;
                     each flow's own order is preserved. *)

type config = {
  clients : int;               (** Concurrent connections. *)
  requests_per_client : int;   (** Data segments after the handshake. *)
  payload : int;               (** Bytes per data segment (>= 1). *)
  close_after : bool;          (** End each flow with a client FIN. *)
  interleave : interleave;
  seed : int;                  (** Only consulted by [Shuffled]. *)
}

val config :
  ?requests_per_client:int -> ?payload:int -> ?close_after:bool ->
  ?interleave:interleave -> ?seed:int -> clients:int -> unit -> config
(** Defaults: 4 requests of 64 bytes, no close, [Round_robin],
    seed 42.
    @raise Invalid_argument on non-positive clients or payload, or
    negative request count. *)

type trace = {
  datagrams : bytes array;       (** Wire-format, in delivery order. *)
  flows : Packet.Flow.t array;   (** Server-view flow of client [i]. *)
  payload_bytes : int;           (** Total data bytes offered. *)
  payload_bytes_per_flow : int;  (** Data bytes offered per flow. *)
  syns : int;                    (** = clients. *)
  fins : int;                    (** = clients if closing, else 0. *)
}

val generate : config -> trace
(** Build the trace.  Per client: SYN; ACK of the server's SYN-ACK;
    [requests_per_client] data segments; optionally FIN.  A server
    stack replaying this (with [Tcpcore.Stack.deterministic_iss] as
    its [~iss]) ends with every
    flow [Established] ([Close_wait] after a client FIN) and
    [bytes_in = payload_bytes_per_flow] — the conservation oracle the
    lockstep and migration tests assert. *)
