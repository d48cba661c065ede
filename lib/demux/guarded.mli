(** Overload guard for PCB tables: bounded chains with LRU shedding.

    A hash-chained table degrades to the BSD linear scan when an
    adversary drives every flow into one chain (an
    algorithmic-complexity attack; cf. Cuckoo++, Le Scouarnec 2018).
    This module tracks recency per chain and decides, for each
    insertion, which resident flows must be shed so that no chain
    exceeds [max_chain] and the table never exceeds [max_total] —
    overload then costs throughput (evicted connections) instead of
    unbounded lookup time.

    The guard holds none of the table's PCBs; it shadows the
    population in a {!Sequent} store of its own, built at the guarded
    algorithm's chain geometry with each chain in recency order, and
    plans evictions: a new flow is always admitted, and the
    least-recently-seen flows are shed to make room for it.
    {!Registry.guard} wires it around any instantiated demultiplexer
    and charges the shed work to {!Lookup_stats} ([evictions]). *)

type config = {
  max_chain : int;            (** Bound on any one chain's population. *)
  max_total : int;            (** Bound on the whole table. *)
  chains : int;               (** Chain count mirrored from the guarded
                                  algorithm (1 for single-list tables). *)
  hasher : Hashing.Hashers.t; (** Hash mirrored from the guarded algorithm. *)
}

val default_max_chain : int
val default_max_total : int

val config :
  ?max_chain:int -> ?max_total:int -> ?chains:int ->
  ?hasher:Hashing.Hashers.t -> unit -> config
(** Defaults: {!default_max_chain}, {!default_max_total},
    one chain, multiplicative hash.
    @raise Invalid_argument on non-positive bounds or chain count. *)

type t

val create : config -> t

val admit : t -> Packet.Flow.t -> Packet.Flow.t list
(** Plan the insertion of a new flow: the victims the caller must
    evict from the underlying table first, in order (the guard has
    already forgotten them): the tail of the flow's chain if the chain
    is at [max_chain], then the least-recently-seen flows while the
    table is at [max_total].  Already-tracked flows get no
    victims. *)

val note_inserted : t -> Packet.Flow.t -> unit
(** The flow was inserted into the underlying table. *)

val note_touched : t -> Packet.Flow.t -> unit
(** The flow was found by a lookup: refresh its recency. *)

val note_removed : t -> Packet.Flow.t -> unit
(** The flow left the underlying table (protocol removal). *)

val tracked : t -> int
(** Flows currently shadowed. *)

val occupancy : t -> int array
(** Per-chain shadow population, for tests and reports. *)
