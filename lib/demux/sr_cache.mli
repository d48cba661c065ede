(** Partridge and Pink's last-sent/last-received cache (paper
    Section 3.3).

    BSD's list is augmented with {e two} one-entry caches: the PCB of
    the last packet received and of the last packet sent.  Data
    segments probe the receive-side cache first, pure acknowledgements
    the send-side first (paper footnote 5).  A hit costs 1-2
    examinations; a full miss costs both probes plus the list scan,
    the paper's [(N+5)/2].  The scheme leans on packet trains, so it
    shines for few users and converges to BSD as N grows
    (Equation 17).

    A lookup policy over {!Sequent}'s store at one chain, which is
    BSD: the list and its last-found slot are the store's chain and
    that chain's cache slot, which is the receive side.  The send side
    is the one slot this module adds. *)

type 'a t

include Types.TABLE with type 'a t := 'a t
(** [lookup]'s [kind] picks the cache side probed first; a successful
    lookup installs the PCB in the receive-side cache.  [note_send] installs the
    flow's PCB in the send-side cache.  Removing a cached PCB
    invalidates that cache side. *)

val create : unit -> 'a t

val cached_received_flow : 'a t -> Packet.Flow.t option
val cached_sent_flow : 'a t -> Packet.Flow.t option
