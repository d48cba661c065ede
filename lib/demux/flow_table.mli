(** Hashtable keyed by flows — internal bookkeeping substrate.

    For per-flow state off the metered receive path: {!Lru_cache}'s
    map to its cache nodes, {!Guarded}'s shadow chains, the stack's
    TIME-WAIT timers and [Parallel.Smp]'s migration bookkeeping.  The
    chained algorithms' own index is {!Sequent}'s {!Flat_table}. *)

include Hashtbl.S with type key = Packet.Flow.t
