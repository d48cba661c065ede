(** The bucketized-cuckoo demultiplexer ({!Cuckoo_table} + a PCB side
    store), registry spec ["cuckoo"].

    Lookup cost is charged through {!Lookup_stats} in the table's
    probe units (buckets scanned + stash entries examined), so the
    paper's "PCBs examined" ledger shows the bounded worst case
    directly: a filter-short-circuited SYN-flood miss charges 1,
    anything else at most 2 + the stash occupancy.  See
    DESIGN.md section 15. *)

type 'a t

include Types.TABLE with type 'a t := 'a t

val create : unit -> 'a t

val table : 'a t -> Cuckoo_table.Heap.t
(** The underlying table, for kick/stash diagnostics in attack
    reports. *)
