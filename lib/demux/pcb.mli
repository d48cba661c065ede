(** Protocol control blocks.

    A PCB holds "state information for one endpoint of a given
    connection" (paper Section 1).  The lookup algorithms never
    inspect the carried state — they only compare flows — so the state
    is a type parameter and higher layers (e.g. {!Tcpcore}) attach
    whatever they need. *)

type 'a t = private {
  id : int;            (** Unique per-demultiplexer instance. *)
  flow : Packet.Flow.t;
  data : 'a;
}

val make : id:int -> flow:Packet.Flow.t -> 'a -> 'a t

val matches : 'a t -> Packet.Flow.t -> bool
(** Full 96-bit comparison of the PCB's boxed flow.  The reference
    comparison: {!Chain.scan} and {!Chain.matches} compare the packed
    {!Packet.Flow} words a chain keeps for each PCB instead, and the
    tests check them against this. *)

val pp : Format.formatter -> 'a t -> unit
