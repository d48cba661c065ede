(** Whole TCP/IPv4 segments: build and parse headers + payload as one
    datagram, with both checksums correct on the wire. *)

type t = { ip : Ipv4.t; tcp : Tcp_header.t; payload : string }

val make :
  ?seq:int32 -> ?ack_number:int32 -> ?flags:Tcp_header.flags -> ?window:int ->
  ?options:Tcp_header.option_ list -> ?payload:string -> ?ttl:int ->
  ?identification:int -> src:Flow.endpoint -> dst:Flow.endpoint -> unit -> t
(** A segment travelling from [src] to [dst].
    @raise Invalid_argument on out-of-range fields (see
    {!Tcp_header.make}, {!Ipv4.make}). *)

val flow : t -> Flow.t
(** The demultiplexing key {e at the receiver} of this segment. *)

val length : t -> int
(** Total datagram size in bytes. *)

val to_bytes : t -> bytes
(** Serialize to a fresh buffer with valid IP and TCP checksums. *)

val write : t -> bytes -> off:int -> int
(** Serialize at [off]; returns bytes written.
    @raise Invalid_argument if the buffer is too small. *)

val parse : ?verify_checksum:bool -> bytes -> off:int -> (t, string) result
(** Parse an IPv4+TCP datagram: {!check}'s one validation pass, then
    the records and the payload read where they lie, the options
    decoded without a second walk.  [verify_checksum] (default true)
    switches the TCP checksum alone; the IPv4 header checksum is always
    verified.  A rejection's error is {!reason}'s string. *)

val peek_flow : bytes -> off:int -> (Flow.t, string) result
(** The demultiplexing key of the datagram at [off], read straight
    from the header bytes without checksum verification, option
    parsing or payload extraction — the constant-time peek an RSS
    steering layer performs before handing the datagram to the core
    that will {!parse} and validate it.  Rejects only what makes the
    4-tuple unreadable (an [off] outside the buffer, truncation, wrong
    IP version, non-TCP). *)

(** {2 In-place flow words}

    The same peek without building a {!Flow.t}: {!peek_tcp} makes
    {!peek_flow}'s header checks, and {!peek_w0}/{!peek_w1} then read
    the key as the two packed immediate words of {!Flow.w0}/{!Flow.w1}
    ([w0 = local addr lsl 16 lor local port], [w1] the same for the
    remote endpoint).  None of the three allocates. *)

val peek_tcp : bytes -> off:int -> int
(** The absolute offset of the TCP header of the datagram at [off]
    when {!peek_flow} would read its 4-tuple, a negative number when
    it would reject it. *)

val peek_w0 : bytes -> off:int -> tcp:int -> int
(** The receiver's local endpoint — the datagram's destination — as
    a packed word; [tcp] is {!peek_tcp}'s non-negative answer for
    [off].
    @raise Invalid_argument if the header lies outside the buffer. *)

val peek_w1 : bytes -> off:int -> tcp:int -> int
(** The remote endpoint — the datagram's source — as {!peek_w0}
    packs the local one. *)

(** {2 In-place validation}

    The one validation pass: {!check} validates a datagram where it
    lies, {!parse} builds its records on the same pass, and the readers
    below then take its header fields as immediate ints.  None of
    {!check}, {!reason} and the readers allocates, so a receive path
    can go from bytes to the flow words, flags and sequence numbers, or
    to the name of a rejection, without building an {!Ipv4.t}, a
    {!Tcp_header.t} or a {!Flow.t}. *)

val check : bytes -> off:int -> int
(** The absolute offset of the TCP header of the datagram at [off]
    when it is valid, a negative code when it is not.  The checks, in
    order, each with its own code: for IPv4 a truncated header, the
    version, the IHL, truncated options, the header checksum, a total
    length below the header length, a truncated payload; then the
    protocol (TCP) and fragments (the more-fragments bit and the
    offset); for TCP a truncated header, a data offset below 20 or
    beyond the segment, the checksum (its pseudo-header summed from
    the bytes), a truncated option and a bad option length. *)

val reason : bytes -> off:int -> int -> string
(** [reason buf ~off code] names {!check}'s rejection [code] of the
    datagram at [off]: ["ipv4: bad version 6"], ["tcp: checksum
    mismatch"] and so on, a string per code (the version and IHL ones
    read the header byte).  Every string is made once, so the answer
    allocates nothing.
    @raise Invalid_argument if [code] is not a code {!check} answers. *)

(** The readers take {!check}'s non-negative answer as [tcp] (and the
    datagram's offset as [off]); {!peek_w0}/{!peek_w1} read its flow
    words.  On a buffer {!check} did not accept they may raise
    [Invalid_argument]. *)

val flags : bytes -> tcp:int -> int
(** The flags, as {!Tcp_header.flags_to_int} encodes {!parse}'s
    [tcp.flags]: the flags byte's low six bits. *)

val seq : bytes -> tcp:int -> int
(** The sequence number as an int in [[0, 2^32)]. *)

val ack_number : bytes -> tcp:int -> int
(** The acknowledgement number as an int in [[0, 2^32)]. *)

val payload_off : bytes -> tcp:int -> int
(** The absolute offset of the payload: past the TCP options. *)

val payload_length : bytes -> off:int -> tcp:int -> int
(** The payload's length in bytes: what {!parse} copies into
    [payload]. *)

val pp : Format.formatter -> t -> unit
