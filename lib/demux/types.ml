type packet_kind = Data | Pure_ack

let kind_of_segment (segment : Packet.Segment.t) =
  let flags = segment.tcp.Packet.Tcp_header.flags in
  if
    String.length segment.payload = 0
    && flags.Packet.Tcp_header.ack
    && (not flags.Packet.Tcp_header.syn)
    && not flags.Packet.Tcp_header.fin
  then Pure_ack
  else Data

module type TABLE = sig
  type 'a t

  val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
  val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option
  val lookup : 'a t -> ?kind:packet_kind -> Packet.Flow.t -> 'a Pcb.t option
  val note_send : 'a t -> Packet.Flow.t -> unit
  val stats : 'a t -> Lookup_stats.t
  val length : 'a t -> int
  val iter : ('a Pcb.t -> unit) -> 'a t -> unit
end
