(** PCB chain, keyed by packed flow words and laid out as a struct of
    arrays.

    One of {!Sequent}'s [H] chains.  That one store serves every
    list-based algorithm in the paper: BSD's single list and
    Crowcroft's move-to-front list are its one-chain cases, Partridge
    and Pink's cached list adds a slot to BSD's, and the Sequent
    algorithm is its [H]-chain case.  {!Lru_cache}'s K-entry cache,
    {!Guarded}'s shadow population and [Parallel.Striped]'s stripes
    are {!Sequent} stores of their own, so {!Sequent} creates every
    chain.

    {b Layout.}  A chain keeps its PCBs' flows as their two packed
    {!Packet.Flow} words, computed once by {!push_front}, in chain
    order in one [int array], which also holds each entry's slab slot.
    The nodes themselves sit in a slab, each in a slot that never moves
    while it is linked.  Queries arrive as the same two words
    ([~w0 ~w1], from {!Packet.Flow.w0}/{!Packet.Flow.w1}, computed once
    per lookup), so {!scan} compares a PCB with int loads from
    contiguous memory: it never touches a node until it has found one.
    It loads the remote word [w1] first and the local word [w0] only
    when [w1] matches.  Every flow of a server shares [w0], so on a
    server's chain a non-matching entry costs one load.  The walk
    examines eight entries per step while eight remain, then the last
    0-7 one at a time.  The scan charges its examinations, one per PCB
    compared, through the caller's {!Lookup_stats.t} once, at the end
    of the walk.

    {b Costs.}  {!push_front} is amortised O(1).  {!remove} and
    {!move_to_front} find the node and shift every entry between it
    and the head down by one: O(distance from the head), in plain int
    stores.  A stack pays that once per connection, and
    move-to-front pays over no more than the walk that found the
    node.

    {b Memory.}  An empty chain holds no arrays.  The arrays double
    when full and never shrink, so a chain keeps its peak capacity. *)

type 'a node
type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val pcb : 'a node -> 'a Pcb.t

val matches : 'a node -> w0:int -> w1:int -> bool
(** Whether the node's flow packs to [w0]/[w1], [w1] compared first as
    in {!scan}: the one-entry-cache probe.  Uncharged; the caller
    charges the examination. *)

val push_front : 'a t -> 'a Pcb.t -> 'a node
(** New PCBs go to the head, matching BSD's insertion discipline.
    Allocates the node and its one option cell; below its capacity,
    nothing else. *)

val remove : 'a t -> 'a node -> unit
(** Unlink a node, in O(distance from the head).
    @raise Invalid_argument if the node is not currently linked in
    this chain: unlinked, or linked in another. *)

val move_to_front : 'a t -> 'a node -> unit
(** Crowcroft's heuristic, in O(distance from the head); no-op when
    already at the head.
    @raise Invalid_argument as {!remove} does. *)

val scan : 'a t -> stats:Lookup_stats.t -> w0:int -> w1:int -> 'a node option
(** Walk from the head comparing each entry's packed words, [w1] first
    and [w0] only on a [w1] match, eight entries per step and the last
    0-7 one at a time.  Charges one examination per PCB compared
    (including the match itself, per the paper's accounting), by the
    match's position, so the step size never shows in the count.  A
    hit returns the node's own option cell, so callers may store it
    without allocating; a scan allocates nothing. *)

val iter : ('a Pcb.t -> unit) -> 'a t -> unit
(** Head-to-tail iteration (no charge). *)

val to_list : 'a t -> 'a Pcb.t list
(** Head-to-tail snapshot, for tests. *)

val tail_pcb : 'a t -> 'a Pcb.t option
(** The PCB at the tail (least recently pushed/moved), O(1). *)
