(** Two-level connection lookup, the shape real stacks use: a full
    4-tuple demultiplexer (any algorithm from {!Demux.Registry}) for
    established connections, falling back to a listener table for SYNs
    to listening sockets.

    A listener is its local port: one listener per port answers a SYN
    to that port on any local address, so the fallback is one probe.
    There is no address-specific bind, so BSD's [in_pcblookup] rule
    that a specific bind beats the wildcard one on the same port does
    not arise; a stack that owns one address drops datagrams for other
    destinations before it looks (see {!Stack.handle_bytes}). *)

type ('conn, 'listener) t

val create : Demux.Registry.spec -> ('conn, 'listener) t

val demux : ('conn, 'listener) t -> 'conn Demux.Registry.t
(** The underlying 4-tuple demultiplexer (e.g. for statistics). *)

val listen : ('conn, 'listener) t -> port:int -> 'listener -> unit
(** Register a listener on a local port, for every local address.
    @raise Invalid_argument if the port is out of range or already has
    a listener. *)

val unlisten : ('conn, 'listener) t -> port:int -> unit

val listener : ('conn, 'listener) t -> port:int -> 'listener option
(** The listener an inbound SYN to [port] would reach. *)

val add_connection :
  ('conn, 'listener) t -> Packet.Flow.t -> 'conn -> 'conn Demux.Pcb.t
(** @raise Invalid_argument if the flow already has a connection. *)

val remove_connection : ('conn, 'listener) t -> Packet.Flow.t -> bool

type ('conn, 'listener) result =
  | Connection of 'conn Demux.Pcb.t
  | Listener of 'listener
  | No_match

val lookup :
  ('conn, 'listener) t -> kind:Demux.Types.packet_kind -> Packet.Flow.t ->
  ('conn, 'listener) result
(** Full receive-path lookup: 4-tuple first (metered by the demux
    algorithm's one lookup, {!Demux.Registry.t.lookup}, on the flow's
    words), then the listener on its local port ({!find_listener}).  [kind] is a plain argument, so a call
    allocates no option for it; under every spec but ["splay"] a hit
    allocates only its [Connection] and a listener fallback only its
    [Listener].  A receive path that reads a
    datagram's flow words in place takes the same two steps itself,
    without the result constructor. *)

val find_listener : ('conn, 'listener) t -> w0:int -> 'listener
(** The listener an inbound SYN to the local endpoint whose packed
    word ({!Packet.Flow.w0}) is [w0] would reach: the one on its port,
    in one [Hashtbl] probe.  Unmetered and allocation-free.
    @raise Not_found if the port has no listener. *)

val note_send : ('conn, 'listener) t -> Packet.Flow.t -> unit
val connections : ('conn, 'listener) t -> int
