(** Uncached scan — the original BSD scheme before the 4.3-Reno
    one-entry cache, kept as the degenerate baseline.

    A lookup policy over {!Sequent}'s store that never reads the cache
    slots: every lookup scans the flow's home chain from the head, and
    new PCBs go to the head.  With its one chain a lookup for the PCB
    at position [i] costs [i]: [(N + 1)/2] for a uniformly chosen
    resident, the scan term of BSD's Equation 1, and [N] for a miss.
    {!Resizing_hash} runs the same lookup over [H] growing chains. *)

type 'a t = 'a Sequent.t
(** Sequent's store, so {!Resizing_hash} can run this lookup over its
    own. *)

include Types.TABLE with type 'a t := 'a t

val create : unit -> 'a t
