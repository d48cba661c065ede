(** The Sequent algorithm (paper Section 3.4), and the one chained PCB
    store every list and chain algorithm runs on.

    The store is [H] hash chains ({!Chain}), each with a one-entry
    cache slot, plus one flat index ({!Flat_table}) from a flow's
    packed words to its chain node, the PCB-id counter and the
    {!Lookup_stats} ledger.  Insert, remove, transmit bookkeeping,
    iteration and growth are written here once; each algorithm is a
    lookup policy over the store:

    - this module's own policy is Sequent's: hash the flow to a chain,
      probe that chain's cache (one examination), and on a miss scan
      only that chain, caching what it finds.  Expected cost under
      TPC/A is Equation 22, about [N/2H]: 53 PCBs for N = 2000,
      H = 19.  The system administrator buys speed with more chains
      (H = 100 gives < 9); the installation default was 19.
    - at [H = 1] the same policy is BSD 4.3-Reno (Section 3.1): one
      list behind a last-found cache, Equation 1's [1 + (N^2 - 1)/2N],
      about [N/2] (1001 PCBs at N = 2000).  The registry's ["bsd"] is
      [create ~chains:1 ()].
    - {!Linear}, {!Mtf}, {!Sr_cache}, {!Lru_cache} and
      {!Resizing_hash} are the other policies. *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val default_chains : int
(** 19, the paper's installation default. *)

val create : ?chains:int -> ?hasher:Hashing.Hashers.t -> unit -> 'a t
(** An empty store of [chains] chains.  Defaults: [chains = 19],
    [hasher = Hashing.Hashers.multiplicative].
    @raise Invalid_argument if [chains <= 0]. *)

val lookup_pcb : 'a t -> Packet.Flow.t -> 'a Pcb.t
(** Exception-style lookup: like {!lookup} but raising [Not_found] on
    a miss instead of boxing the result in an option.  A hit performs
    zero minor-heap allocations (asserted by a [Gc.minor_words] test),
    which is why the hot receive path prefers it.  Accounting is
    identical to {!lookup}. *)

val chains : 'a t -> int
(** [H], the current chain count. *)

val chain_lengths : 'a t -> int array
(** Current occupancy of each chain, for balance diagnostics. *)

(** {1 The store, for the other policies} *)

type 'a bucket = {
  chain : 'a Chain.t;
  mutable cache : 'a Chain.node option;
      (** The chain's one-entry slot.  Sequent's policy keeps the PCB
          it last found here; {!remove} empties it when that PCB
          leaves. *)
}

val home : 'a t -> Packet.Flow.t -> 'a bucket
(** The bucket a flow hashes to.  Allocation-free. *)

val bucket : 'a t -> int -> 'a bucket
(** Bucket [i], [0 <= i < chains t]. *)

val finish : 'a t -> hit_cache:bool -> 'a Chain.node option -> 'a Pcb.t option
(** Close a lookup the policy opened with {!Lookup_stats.begin_lookup}
    on {!stats}: count the receive on the PCB found, if any, and the
    outcome in the ledger.  Pass a chain's or cache slot's own option
    cell, so nothing but the result is allocated. *)

val mem : 'a t -> Packet.Flow.t -> bool

val find : 'a t -> Packet.Flow.t -> 'a Chain.node option
(** The flow's node, through the index: uncharged. *)

val grow : 'a t -> unit
(** Double [H].  The old chains are walked in order, each head to
    tail, pushing every PCB onto its new home chain; every cache slot
    starts empty. *)
