(** Shared types for the lookup algorithms. *)

type packet_kind = Data | Pure_ack
(** What kind of segment a lookup is for.  Only the Partridge/Pink
    send/receive cache distinguishes them: its receive-side cache is
    probed first for data segments and its send-side cache first for
    pure acknowledgements (paper footnote 5). *)

val kind_of_flags : flags:int -> payload_length:int -> packet_kind
(** [Pure_ack] for an ACK carrying no payload, SYN or FIN; [Data] for
    everything else.  [flags] is the flags byte as
    {!Packet.Tcp_header.flags_to_int} encodes it.  The one
    classification every receive path hands its demultiplexer. *)

val kind_of_segment : Packet.Segment.t -> packet_kind
(** {!kind_of_flags} of a parsed segment. *)

(** What every demultiplexer offers.  Each algorithm's interface
    includes it, and {!Registry} erases any of them to one record of
    closures. *)
module type TABLE = sig
  type 'a t

  val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
  (** @raise Invalid_argument if the flow is already present. *)

  val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option

  val lookup : 'a t -> packet_kind -> w0:int -> w1:int -> 'a Pcb.t
  (** The metered receive path, and the one lookup: the PCB of the
      flow whose packed words ({!Packet.Flow.w0}, {!Packet.Flow.w1})
      are [w0] and [w1], as a receive path reads them in place.  Every
      PCB compared is charged to {!stats}.  Only {!Sr_cache} reads
      [kind].  A lookup allocates nothing, hit or miss, but in
      {!Splay}, whose rotations rebuild its nodes, and when
      {!Lru_cache} admits a flow to its cache.
      @raise Not_found on a miss. *)

  val note_send : 'a t -> Packet.Flow.t -> unit
  (** A segment was sent on the flow.  Uncharged: the sender already
      holds its PCB.  Only {!Sr_cache} (its send-side cache) and
      {!Splay} (splay on send) read it; every other table ignores
      it. *)

  val stats : 'a t -> Lookup_stats.t
  val length : 'a t -> int
  val iter : ('a Pcb.t -> unit) -> 'a t -> unit
end
