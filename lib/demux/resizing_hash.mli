(** A modern resizing hash table, no per-chain cache — what production
    stacks converged on after this paper's era, included as the
    "future work validated by history" baseline.

    {!Linear}'s uncached scan over {!Sequent}'s store, with [H]
    doubled ({!Sequent.grow}) whenever a new flow would push the load
    factor [N/H] past 1.  Expected lookup cost stays O(1) at any
    connection count: under uniform hashing a hit scans
    [1 + (N - 1)/2H <= 1.5] PCBs. *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val create : ?initial_buckets:int -> ?hasher:Hashing.Hashers.t -> unit -> 'a t
(** Defaults: 16 chains, multiplicative hashing.
    @raise Invalid_argument if [initial_buckets <= 0]. *)

val chains : 'a t -> int
(** Current [H] (changes as the table grows). *)
