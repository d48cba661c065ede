(** Lock-striped Sequent demultiplexer for multicore receivers.

    The paper's context was Sequent's {e parallel} TCP for the PTX
    operating system [Dov90, Gar90]: many processors service inbound
    packets concurrently, so the PCB structure needs locking — and a
    single list under a single lock serialises everything.  Hash
    chains give more than short scans: each chain (plus its one-entry
    cache) can carry {e its own lock}, and packets for different
    connections proceed in parallel with probability [1 - 1/H].  This
    module is that design: the Sequent algorithm with one mutex per
    chain.  Each stripe is its mutex plus a one-chain
    {!Demux.Sequent} store, which holds the stripe's chain, its
    one-entry cache slot, its index, its PCB ids and its ledger; this
    module adds only the locks, the stripe hash, batch grouping, the
    pressure hooks and the population count.  A stripe lookup is
    Sequent's: probe the cache slot, then scan the chain.

    All operations are safe to call from any domain.  Statistics are
    kept per stripe and merged on read, so the hot path never shares a
    counter across stripes.  PCB ids are numbered per stripe.

    {b Scaling caveat.}  Striping removes {e collisions}, not the
    {e locks}: every lookup still acquires its stripe's mutex, so
    aggregate read throughput flattens once lock traffic — not chain
    length — is the bottleneck (bench E33 measures the flattening at
    8 domains).  For a read-mostly population the ceiling above this
    design is [Epoch.Packed], whose lookups take no lock at all:
    readers pin an epoch and probe an immutable published region,
    writers serialize on one mutex and retire replaced regions
    through a grace period.  Reach it from the same harnesses via
    {!Throughput.Epoch} and the ["epoch-table"] check
    subject. *)

type 'a t

val create :
  ?chains:int -> ?hasher:Hashing.Hashers.t -> ?pressure:Pressure.t ->
  unit -> 'a t
(** Defaults: 19 chains, multiplicative hashing (matching
    {!Demux.Sequent.create}), no overload controller.  With
    [pressure], every store insert's latency feeds
    {!Pressure.note_insert_ns}, and {!try_insert} sheds new flows at
    {!Pressure.Shed_new_flows} or worse.
    @raise Invalid_argument if [chains <= 0]. *)

val chains : 'a t -> int

val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Demux.Pcb.t
(** @raise Invalid_argument if the flow is already present.  Never
    sheds — management-plane entry points that must not fail under
    load use this; the packet-driven path uses {!try_insert}. *)

val try_insert :
  'a t -> Packet.Flow.t -> 'a ->
  [ `Inserted of 'a Demux.Pcb.t | `Duplicate | `Shed ]
(** Pressure-aware insert for the packet path.  [`Duplicate] if the
    flow is already resident (nothing changes — unlike {!insert} it
    does not raise); [`Shed] if the attached controller is at
    {!Pressure.Shed_new_flows} or worse (counted as a rejection in the
    stripe's {!Demux.Lookup_stats} and as {!Pressure.note_shed_flow});
    [`Inserted pcb] otherwise. *)

val remove : 'a t -> Packet.Flow.t -> 'a Demux.Pcb.t option

val lookup :
  'a t -> ?kind:Demux.Types.packet_kind -> Packet.Flow.t ->
  'a Demux.Pcb.t option
(** Receive-path lookup under the stripe's lock, charging one PCB
    examined per cache probe / chain node compared, as everywhere in
    this library. *)

(** {1 Batched operations}

    A packet train arriving as one burst need not take a mutex per
    packet: the batch is grouped by stripe (counting sort, no flow-key
    allocation), and each occupied stripe's lock is taken {e once} for
    all of its packets.  Per-lookup accounting is unchanged — the same
    [begin_lookup]/[end_lookup] charges as {!lookup} — plus one
    {!Demux.Lookup_stats.note_batch} per stripe visit, so the batched
    and per-packet paths stay comparable on the paper's metric. *)

val lookup_batch :
  'a t -> ?kind:Demux.Types.packet_kind -> Packet.Flow.t array -> int
(** Look up every flow in the batch; returns how many were found.
    Within a stripe, lookups happen in batch order, so intra-batch
    cache locality (packet trains) is preserved. *)

val hash_flow : 'a t -> Packet.Flow.t -> int
(** The table's full (un-reduced) hash of a flow — compute it once at
    dispatch and reuse it across pipeline stages via
    {!lookup_batch_keyed}.  Allocation-free for the word-folding
    hashers. *)

val lookup_batch_keyed :
  'a t -> ?kind:Demux.Types.packet_kind -> Packet.Flow.t array ->
  hashes:int array -> int
(** Like {!lookup_batch}, but the caller supplies each flow's
    {!hash_flow} value (computed once per packet upstream, e.g. by
    {!Dispatcher} when sharding); grouping reduces them mod chains
    instead of re-hashing every flow.  The hashes {e must} come from
    {!hash_flow} on this table — a different hasher silently groups
    wrong.  Accounting is identical to {!lookup_batch}.
    @raise Invalid_argument if the arrays differ in length. *)

val insert_batch :
  'a t -> (Packet.Flow.t * 'a) array -> 'a Demux.Pcb.t array
(** Insert every entry, one lock acquisition per occupied stripe;
    returns the PCBs in input order.
    @raise Invalid_argument on a duplicate flow — entries already
    inserted (including later ones on other stripes) remain. *)

val note_send : 'a t -> Packet.Flow.t -> unit
(** Does nothing and takes no lock: a stripe's {!Demux.Sequent} store
    ignores transmit order. *)

val length : 'a t -> int

val iter : ('a Demux.Pcb.t -> unit) -> 'a t -> unit
(** Visit every resident PCB, one stripe at a time under that stripe's
    lock.  Like {!stats}, this is not an instantaneous cut of the
    whole table — entries moving between stripes mid-iteration (there
    are none; flows never migrate) aside, per-stripe consistency is
    what it offers.  Used by the differential checker ([lib/check]) to
    compare table contents at quiesce. *)

val stats : 'a t -> Demux.Lookup_stats.snapshot
(** Merged across stripes.  {b Point-in-time caveat}: each stripe's
    snapshot is taken under that stripe's lock, one stripe after
    another — there is no global lock, so the merged result is not an
    instantaneous cut of the whole table.  Per-stripe consistency
    still holds, and sums preserve it: [lookups = found + not_found]
    and [cache_hits <= lookups] are true of every merge, even while
    other domains mutate (asserted under 4-domain churn in
    test_parallel.ml).  Cross-counter identities that span a mutation
    ([inserts - removes = length]) hold only when quiescent. *)
