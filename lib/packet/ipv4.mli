(** IPv4 addresses and headers (RFC 791).

    The demultiplexing key the paper analyses is the 96-bit
    (source address, destination address, source port, destination
    port) tuple; the address half comes from this header. *)

(** {1 Addresses} *)

type addr = private int32
(** An IPv4 address in host order, e.g. 10.0.0.1 is [0x0A000001l]. *)

val addr_of_int32 : int32 -> addr
val addr_to_int32 : addr -> int32

val addr_of_octets : int -> int -> int -> int -> addr
(** [addr_of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val addr_of_string : string -> (addr, string) result
(** Parse dotted-quad notation. *)

val addr_to_string : addr -> string
val pp_addr : Format.formatter -> addr -> unit
val equal_addr : addr -> addr -> bool
val compare_addr : addr -> addr -> int

(** {1 Header} *)

type t = {
  tos : int;                (** Type of service. *)
  identification : int;     (** Fragment identification. *)
  dont_fragment : bool;
  ttl : int;
  src : addr;
  dst : addr;
  payload_length : int;     (** Bytes following the header and its options. *)
}
(** The IPv4 header of a TCP datagram that is not a fragment: the only
    kind {!Segment.parse} accepts, so the protocol (6), the
    more-fragments bit and the fragment offset (0) are not fields.  We
    do not model IP options: no 1992 TCP fast path did either (options
    forced the slow path), and the demultiplexing question is
    unaffected.  {!Segment.parse} skips a received header's options. *)

val header_length : int
(** Serialized size: 20 bytes (IHL = 5, no options). *)

val make :
  ?tos:int -> ?identification:int -> ?dont_fragment:bool -> ?ttl:int ->
  src:addr -> dst:addr -> payload_length:int -> unit -> t
(** Header for an unfragmented TCP datagram.  Defaults: [tos = 0],
    [identification = 0], [dont_fragment = true], [ttl = 64].
    @raise Invalid_argument if a field is out of range. *)

val serialize : t -> bytes -> off:int -> unit
(** Write 20 bytes at [off], protocol 6, computing the header
    checksum.  Headers are read back by {!Segment.parse}, which
    validates them with {!Segment.check}.
    @raise Invalid_argument if the buffer is too small. *)

val pseudo_header_sum : t -> int
(** One's-complement sum of the TCP pseudo-header (src, dst, protocol,
    TCP length) for this datagram, to seed the TCP checksum. *)

val pp : Format.formatter -> t -> unit
(** [src > dst tcp ttl=.. len=.. id=..], and [DF] when set. *)
