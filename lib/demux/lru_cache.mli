(** A K-entry LRU cache in front of the linear list — the "what if
    BSD's cache were bigger?" ablation (experiment E24).

    Transaction entries almost never hit a K-entry cache (hit rate
    ~K/N after a 10 s think time), but response acknowledgements hit
    whenever fewer than K other connections' packets intervened during
    the response window — the same mechanism as the send/receive
    cache, K deep.  So a moderately large cache does help (unlike
    BSD's single entry), yet the miss penalty keeps the overall cost
    an order of magnitude above hashed chains.
    {!Analysis.Lru_model.cost} gives the matching analytic model;
    experiment E24 measures both.

    A lookup policy over {!Sequent}'s store at one chain, which leaves
    the store's cache slot unused: the K-entry cache is this module's
    own state.  At K = 1 the costs equal BSD's (Equation 1). *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val create : ?entries:int -> unit -> 'a t
(** [entries] is the cache capacity K (default 8).
    @raise Invalid_argument if [entries <= 0]. *)
