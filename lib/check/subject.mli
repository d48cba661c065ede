(** Systems under test, behind one face.

    {!Diff} drives anything that looks like a demultiplexer: the
    registry algorithms, the lock-striped parallel table in
    single-domain lockstep, and bare flat-table indexes (including the
    {!Plant} instances, so tests can prove the fuzzer catches a
    planted bug).  Payloads are [int]s, matching {!Oracle}. *)

type t = {
  name : string;
  insert : Packet.Flow.t -> int -> unit;
      (** @raise Invalid_argument on a duplicate flow. *)
  remove : Packet.Flow.t -> (Packet.Flow.t * int) option;
  lookup :
    kind:Demux.Types.packet_kind -> Packet.Flow.t ->
    (Packet.Flow.t * int) option;
  note_send : Packet.Flow.t -> unit;
  stats : unit -> Demux.Lookup_stats.snapshot;
  length : unit -> int;
  contents : unit -> (Packet.Flow.t * int) list;
      (** Residents in {!Packet.Flow.compare} order, whatever the
          underlying iteration order. *)
  guard : Demux.Guarded.config option;
      (** When the subject wraps an overload guard, its configuration —
          {!Diff} runs a shadow guard over the oracle with exactly this
          config so the oracle predicts {e which} flows are shed, not
          just how many. *)
}

val of_spec : Demux.Registry.spec -> t
(** A fresh instance of a registry algorithm. *)

val striped : ?chains:int -> ?hasher:Hashing.Hashers.t -> unit -> t
(** A fresh {!Parallel.Striped} table driven from the calling domain —
    single-domain lockstep, so results are deterministic and
    comparable to the scalar Sequent algorithm. *)

(** The slice of an int-valued index the adapter needs.  Every
    {!Demux.Packed_table.S}, {!Epoch.Packed.S} and
    {!Demux.Cuckoo_table.S} instance satisfies it. *)
module type PACKED = sig
  type t

  val length : t -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
end

val of_packed : name:string -> (module PACKED with type t = 'a) -> 'a -> t
(** A demultiplexer over a bare index: one probe charged per lookup,
    payloads stored directly in the table's int value lane.
    [contents] reconstructs each flow from its packed words, so every
    differential run also exercises the {!Packet.Flow.of_words}
    round-trip.  Pass a fresh table at minimum capacity, so collision
    clusters and resize boundaries come early. *)

val flat_table : unit -> t
(** {!Demux.Flat_table} — the ['a] facade over the Robin-Hood engine —
    under the name ["flat-table"], with the production default
    incremental resize. *)

val flat_table_doubling : unit -> t
(** The same index pinned to the legacy stop-the-world
    {!Demux.Flat_table.Doubling} policy, under the name
    ["flat-table-doubling"], so differential runs race the two resize
    strategies against the oracle and each other. *)

val epoch_table : unit -> t
(** {!Epoch.Packed.Heap} — the lock-free read-mostly table — under the
    name ["epoch-table"], at minimum initial capacity so differential
    programs cross several copy-publish-retire growth boundaries.
    Driven single-domain (lockstep), every published-region
    replacement and its retirement still happens exactly as under
    concurrency; the reader-pinned half of the story is covered by
    {!Epoch_audit}. *)

val offheap_table : unit -> t
(** {!Demux.Packed_table.Offheap} — the Bigarray-backed flat index —
    under the name ["offheap-table"], at minimum initial capacity with
    the default incremental resize, so differential programs cross
    resize boundaries over off-heap regions. *)

val cuckoo_table : unit -> t
(** {!Demux.Cuckoo_table.Heap} — bucketized cuckoo hashing with the
    negative-lookup filter — under the name ["cuckoo-table"], at
    minimum capacity so differential programs cross doubling
    rehashes, BFS kick chains and stash spills.  (The registry specs
    ["cuckoo"] / ["guarded-cuckoo"] are subjects via {!of_spec}; this
    is the bare table.) *)

val guarded_flat_table :
  ?max_chain:int -> ?max_total:int -> ?chains:int -> unit -> t
(** {!Demux.Registry.guard} (defaults: [max_chain 8], [max_total 40],
    [4] chains, LRU shedding) over a registry demultiplexer backed by
    an incrementally resizing {!Demux.Flat_table} at minimum initial
    capacity, named ["guarded-flat-table"]: the check drives the
    registry's own guard wiring.  The bounds sit above several resize
    boundaries (populations 7, 14, 28 from the 8-slot minimum), so
    guard activity and incremental migrations interleave under churn;
    tightening [max_total] to sit just past a boundary (e.g. [30])
    forces evictions {e during} a drain — the dedicated overlap test
    in [test_check.ml] does exactly that.  Because [guard] carries
    the config, {!Diff}'s shadow guard checks the exact eviction
    {e set}, not just the count. *)
