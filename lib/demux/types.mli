(** Shared types for the lookup algorithms. *)

type packet_kind = Data | Pure_ack
(** What kind of segment a lookup is for.  Only the Partridge/Pink
    send/receive cache distinguishes them: its receive-side cache is
    probed first for data segments and its send-side cache first for
    pure acknowledgements (paper footnote 5). *)

val kind_of_segment : Packet.Segment.t -> packet_kind
(** [Pure_ack] for an ACK carrying no payload, SYN or FIN; [Data] for
    everything else.  The one classification every receive path hands
    its demultiplexer. *)

(** What every demultiplexer offers.  Each algorithm's interface
    includes it, and {!Registry} erases any of them to one record of
    closures. *)
module type TABLE = sig
  type 'a t

  val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
  (** @raise Invalid_argument if the flow is already present. *)

  val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option

  val lookup : 'a t -> ?kind:packet_kind -> Packet.Flow.t -> 'a Pcb.t option
  (** The metered receive path: every PCB compared is charged to
      {!stats}.  Only {!Sr_cache} reads [kind] (default [Data]). *)

  val note_send : 'a t -> Packet.Flow.t -> unit
  (** Transmit-side bookkeeping, uncharged: the sender already holds
      its PCB. *)

  val stats : 'a t -> Lookup_stats.t
  val length : 'a t -> int
  val iter : ('a Pcb.t -> unit) -> 'a t -> unit
end
