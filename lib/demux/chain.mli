(** Intrusive doubly linked PCB chain, keyed by packed flow words.

    One of {!Sequent}'s [H] chains.  That one store serves every
    list-based algorithm in the paper: BSD's single list and
    Crowcroft's move-to-front list are its one-chain cases, Partridge
    and Pink's cached list adds a slot to BSD's, and the Sequent
    algorithm is its [H]-chain case.  {!Lru_cache}'s K-entry cache,
    {!Guarded}'s shadow population and [Parallel.Striped]'s stripes
    are {!Sequent} stores of their own, so {!Sequent} creates every
    chain.  Nodes support O(1) unlink and move-to-front.

    Each node holds its PCB's flow as the two {!Flow_key} words,
    computed once by {!push_front}.  Queries arrive as the same two
    words ([~w0 ~w1], from {!Flow_key.w0_of_flow}/{!Flow_key.w1_of_flow},
    computed once per lookup), so comparing a PCB is two int compares
    on the node itself: the scan never dereferences the PCB.  The scan
    charges one examination per PCB compared via the caller's
    {!Lookup_stats.t}. *)

type 'a node
type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val pcb : 'a node -> 'a Pcb.t

val matches : 'a node -> w0:int -> w1:int -> bool
(** Whether the node's flow packs to [w0]/[w1]: the one-entry-cache
    probe.  Uncharged; the caller charges the examination. *)

val push_front : 'a t -> 'a Pcb.t -> 'a node
(** New PCBs go to the head, matching BSD's insertion discipline.
    Allocates the node and one option cell, nothing else. *)

val remove : 'a t -> 'a node -> unit
(** Unlink a node.
    @raise Invalid_argument if the node is not currently linked in
    this chain. *)

val move_to_front : 'a t -> 'a node -> unit
(** Crowcroft's heuristic; no-op when already at the head. *)

val scan : 'a t -> stats:Lookup_stats.t -> w0:int -> w1:int -> 'a node option
(** Walk from the head comparing the packed words held in each node,
    charging one examination per PCB compared (including the match
    itself, per the paper's accounting).  A hit returns the chain's
    own option cell, so callers may store it without allocating. *)

val iter : ('a Pcb.t -> unit) -> 'a t -> unit
(** Head-to-tail iteration (no charge). *)

val to_list : 'a t -> 'a Pcb.t list
(** Head-to-tail snapshot, for tests. *)

val tail_pcb : 'a t -> 'a Pcb.t option
(** The PCB at the tail (least recently pushed/moved), O(1). *)
