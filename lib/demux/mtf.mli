(** Crowcroft's move-to-front list (paper Section 3.2), per hash chain.

    A lookup policy over {!Sequent}'s store: scan the flow's home
    chain and move the PCB found to that chain's head.  There is no
    separate cache — after a hit the found PCB {e is} the head, so a
    cache would always duplicate position 1.

    - At one chain (the default) this is the paper's MTF list.  Under
      TPC/A it trades a slight penalty on transaction entry (think
      times are long, so almost everyone else gets in front of you)
      for a large win on the response acknowledgement (only packets
      within the response window precede yours), netting 549-904 PCBs
      against BSD's 1001 (Equation 6).
    - At [H] chains it is the hashed MTF Section 3.5 weighs and
      rejects: its best case is a factor-of-two win over plain
      chains, while merely raising [H] from 19 to 100 wins a factor of
      five.  The paper gives no equation; experiment E17 simulates
      the trade and gates both halves of the claim. *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val create : ?chains:int -> ?hasher:Hashing.Hashers.t -> unit -> 'a t
(** Defaults: one chain, multiplicative hashing.
    @raise Invalid_argument if [chains <= 0]. *)
