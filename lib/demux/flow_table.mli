(** Hashtable keyed by flows — internal bookkeeping substrate.

    For per-flow state off the metered receive path, such as
    [Check.Smp_trace]'s per-flow lowering state.  No chained store uses
    it: the one flow to chain-node index is {!Sequent}'s
    {!Flat_table}, which also keys [Parallel.Smp]'s route map. *)

include Hashtbl.S with type key = Packet.Flow.t
