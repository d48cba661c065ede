(** Two-level connection lookup, the shape real stacks use: a full
    4-tuple demultiplexer (any algorithm from {!Demux.Registry}) for
    established connections, falling back to a listener table for SYNs
    to listening sockets.

    Listener matching follows BSD's [in_pcblookup] wildcard rules: a
    listener bound to a specific local address beats one bound to the
    wildcard address on the same port; both beat no match. *)

type ('conn, 'listener) t

val create : Demux.Registry.spec -> ('conn, 'listener) t

val demux : ('conn, 'listener) t -> 'conn Demux.Registry.t
(** The underlying 4-tuple demultiplexer (e.g. for statistics). *)

val listen :
  ?addr:Packet.Ipv4.addr -> ('conn, 'listener) t -> port:int -> 'listener ->
  unit
(** Register a listener on a local port; without [addr] it accepts the
    port on any local address (a wildcard bind).
    @raise Invalid_argument if the port is out of range or that
    (address, port) binding already has a listener. *)

val unlisten : ?addr:Packet.Ipv4.addr -> ('conn, 'listener) t -> port:int -> unit

val listener :
  ?addr:Packet.Ipv4.addr -> ('conn, 'listener) t -> port:int ->
  'listener option
(** The listener an inbound SYN to (addr, port) would reach: the
    address-specific binding if present, else the wildcard one.
    Without [addr], only the wildcard binding is consulted. *)

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
    words), then address-specific listener, then wildcard listener
    ({!find_listener}).  [kind] is a plain argument, so a call
    allocates no option for it; under every spec but ["splay"] a hit
    allocates only its [Connection] and a listener fallback only its
    [Listener].  A receive path that reads a
    datagram's flow words in place takes the same two steps itself,
    without the result constructor. *)

val find_listener : ('conn, 'listener) t -> w0:int -> 'listener
(** The listener an inbound SYN to the local endpoint whose packed
    word ({!Packet.Flow.w0}) is [w0] would reach: the address-specific
    binding, else the wildcard one on its port.  Unmetered and
    allocation-free.
    @raise Not_found if neither is bound. *)

val note_send : ('conn, 'listener) t -> Packet.Flow.t -> unit
val connections : ('conn, 'listener) t -> int
