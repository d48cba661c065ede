(** Connection identity: the 96-bit demultiplexing key.

    A flow names one TCP connection {e from the receiving host's point
    of view}: [local] is this host's address/port, [remote] the peer's.
    Every PCB-lookup algorithm in the library maps an inbound
    segment's flow to a PCB using exactly this key, which is the
    "source and destination Internet Protocol addresses and TCP ports
    [totalling] 96 bits" of the paper's introduction. *)

type endpoint = { addr : Ipv4.addr; port : int }

val endpoint : Ipv4.addr -> int -> endpoint
(** @raise Invalid_argument if the port is outside [0, 65535]. *)

val pp_endpoint : Format.formatter -> endpoint -> unit

type t = { local : endpoint; remote : endpoint }

val v : local:endpoint -> remote:endpoint -> t

val of_headers : Ipv4.t -> Tcp_header.t -> t
(** The flow of a {e received} segment: local = (dst addr, dst port),
    remote = (src addr, src port). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val reverse : t -> t
(** Swap local and remote — the flow of traffic in the other
    direction. *)

val to_key_bytes : t -> bytes
(** The canonical 12-byte (96-bit) wire-order key: local addr, remote
    addr, local port, remote port.  This is the byte string the
    {!Hashing} functions consume; it is {!key_bytes_of_words} of the
    flow's {!w0} and {!w1}. *)

(** {2 Packed words}

    The same key as two immediate ints, one per endpoint:

    {v
      w0 = local  addr (32 bits) lsl 16  lor  local  port (16 bits)
      w1 = remote addr (32 bits) lsl 16  lor  remote port (16 bits)
    v}

    Every table in [Demux] keys on these words, and hashing them is
    bit-identical to hashing {!to_key_bytes} (asserted by qcheck in
    test_hashing.ml).  Each word has 48 significant bits, so this
    module refuses to load where [Sys.int_size < 63] (32-bit,
    js_of_ocaml): it raises [Failure] at startup rather than truncate
    addresses.  {!Segment.peek_w0}/{!Segment.peek_w1} read the same
    words straight from a datagram. *)

val word : Ipv4.addr -> int -> int
(** [word addr port] packs one endpoint.  Allocation-free. *)

val w0 : t -> int
(** The local endpoint's word.  Allocation-free. *)

val w1 : t -> int
(** The remote endpoint's word.  Allocation-free. *)

val of_words : w0:int -> w1:int -> t
(** The flow whose words are [w0] and [w1]; inverts {!w0}/{!w1}.
    Bits above 48 must be zero. *)

val key_bytes_of_words : w0:int -> w1:int -> bytes
(** [to_key_bytes (of_words ~w0 ~w1)] without building the flow. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
