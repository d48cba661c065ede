type packet_kind = Data | Pure_ack

(* ACK set; SYN and FIN clear (bits 0x10, 0x02, 0x01). *)
let kind_of_flags ~flags ~payload_length =
  if payload_length = 0 && flags land 0x13 = 0x10 then Pure_ack else Data

let kind_of_segment (segment : Packet.Segment.t) =
  kind_of_flags
    ~flags:(Packet.Tcp_header.flags_to_int segment.tcp.Packet.Tcp_header.flags)
    ~payload_length:(String.length segment.payload)

module type TABLE = sig
  type 'a t

  val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
  val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option
  val lookup : 'a t -> packet_kind -> w0:int -> w1:int -> 'a Pcb.t
  val note_send : 'a t -> Packet.Flow.t -> unit
  val stats : 'a t -> Lookup_stats.t
  val length : 'a t -> int
  val iter : ('a Pcb.t -> unit) -> 'a t -> unit
end
