(** Hashtable keyed by flows — internal bookkeeping substrate.

    For per-flow state off the metered receive path: [Parallel.Smp]'s
    migration bookkeeping and route map, and [Check.Smp_trace]'s
    per-flow lowering state.  No chained store uses it: the one flow
    to chain-node index is {!Sequent}'s {!Flat_table}. *)

include Hashtbl.S with type key = Packet.Flow.t
