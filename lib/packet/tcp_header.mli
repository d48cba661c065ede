(** TCP segment headers (RFC 793), including the option kinds a
    1992-era stack would meet plus RFC 1323 timestamps. *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags
val flag_syn : flags
val flag_ack : flags
val flag_syn_ack : flags
val flag_fin_ack : flags
val flag_psh_ack : flags
val flag_rst : flags

val flags_to_int : flags -> int
(** The wire's flags byte: FIN [0x01], SYN [0x02], RST [0x04], PSH
    [0x08], ACK [0x10], URG [0x20]; {!Segment.flags} reads the same
    byte in place. *)

val flags_of_int : int -> flags
(** The flags of a flags byte; the bits above URG are dropped. *)

val pp_flags : Format.formatter -> flags -> unit

type option_ =
  | Mss of int                     (** Maximum segment size. *)
  | Window_scale of int            (** RFC 1323 shift count. *)
  | Sack_permitted
  | Timestamps of { value : int32; echo : int32 }  (** RFC 1323. *)
  | Nop
  | Unknown of { kind : int; payload : string }

val pp_option : Format.formatter -> option_ -> unit

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_number : int32;
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
}

val make :
  ?seq:int32 -> ?ack_number:int32 -> ?flags:flags -> ?window:int ->
  ?urgent:int -> ?options:option_ list -> src_port:int -> dst_port:int ->
  unit -> t
(** Defaults: zero sequence numbers, {!no_flags}, window 65535, no
    urgent data, no options.
    @raise Invalid_argument if a port or field is out of range or the
    options exceed 40 bytes. *)

val options_length : option_ list -> int
(** Serialized size of the option block, padded to a 4-byte multiple. *)

val header_length : t -> int
(** 20 bytes plus padded options. *)

val serialize :
  t -> pseudo_sum:int -> ?payload:string -> bytes -> off:int -> int
(** [serialize t ~pseudo_sum ~payload buf ~off] writes the header then
    [payload] at [off], with the TCP checksum computed over header,
    payload and the pseudo-header whose sum is [pseudo_sum] (from
    {!Ipv4.pseudo_header_sum}), and returns the number of bytes
    written.  Headers are read back by {!Segment.parse}.
    @raise Invalid_argument if the buffer is too small. *)

val pp : Format.formatter -> t -> unit
