(** Connection-ID direct indexing — the protocol-mechanism
    counterfactual of the paper's Section 3.5.

    TP4, X.25 and XTP negotiate a small integer per connection and
    carry it in every header, so the receiver indexes an array: one
    PCB examined, no search, ever.  The paper's argument is that
    Sequent-style hashing makes this protocol change unnecessary; this
    module exists to quantify the gap (experiment E18).

    Connection IDs are assigned at {!insert} and recycled on
    {!remove}: the last ID released is reused first, and with none
    released the lowest ID never used is next, so the first insert
    into a new table gets 0.  {!create} builds no list of the ID
    space: a counter and a stack of released IDs hand them out.  {!lookup} models the header carrying the
    ID: it resolves the flow's words to the ID without charge (in the
    real protocol the bits are in the packet) and charges exactly the
    one direct array access. *)

type 'a t

include Types.TABLE with type 'a t := 'a t
(** [insert] also raises [Failure] when the ID space is exhausted. *)

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the ID space (default 65536, a 16-bit ID field).
    @raise Invalid_argument if [capacity <= 0]. *)

val connection_id : 'a t -> Packet.Flow.t -> int option
(** The negotiated ID for a flow, as the peer would learn it during
    connection setup. *)
