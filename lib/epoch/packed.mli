(** A read-mostly concurrent flow table with lock-free lookups: the
    copy-on-write discipline over {!Demux.Packed_table}'s Robin-Hood
    regions, with [int] values.

    Where {!Demux.Packed_table} mutates one region in place, this table
    treats every {e published} region as immutable:

    - {b Readers} never take a lock.  A lookup pins the calling
      domain's epoch slot (one atomic store), loads the published
      region pointer (one atomic load), probes it with the engine's
      region probe, and unpins.  {!get} and {!mem} allocate zero
      minor-heap words on the warm path.
    - {b Writers} serialize on a single writer mutex.  A mutation
      copies the current region, applies the engine's Robin-Hood
      insert or backward-shift delete (and any growth) to the private
      copy, publishes the copy with one atomic store, and hands the old
      region to {!Core.retire}.  Once every reader pinned before the
      publish has unpinned, reclamation runs {!Demux.Storage.S.free}
      on it: dead tags and zeroed keys, so a use-after-reclaim shows up
      as a deterministic miss instead of a silent stale hit, and the
      buffers severed, so with the {!Offheap} instance a retired
      region's memory is returned to the allocator {e at reclaim time}
      rather than whenever a major cycle notices the dead arrays (~400
      MB per retired region at 10M flows; DESIGN.md section 14).

    Each reader domain registers lazily on its first lookup (one slot
    acquisition and one registration-mutex acquisition, never again);
    steady-state reads take no mutex at all — {!lock_acquisitions}
    counts every mutex acquisition the table ever makes, so a
    measurement phase can assert its read path took none.  Per-domain
    {!Demux.Lookup_stats} are merged on {!stats} read, as in
    {!Parallel.Striped}. *)

module type S = sig
  type t

  val backend : string

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int ->
    ?max_readers:int -> unit -> t
  (** Defaults: [Hashing.Hashers.(hash_words multiplicative)], the
      8-slot minimum capacity, 64 reader slots.  [hash] must match
      whatever full hash a batched caller supplies to
      {!lookup_batch_keyed}.
      @raise Invalid_argument if [initial_capacity < 0] or
      [max_readers <= 0]. *)

  (** {1 Read path — lock-free} *)

  val get : t -> w0:int -> w1:int -> default:int -> int
  (** The bound value, or [default] when absent.  Allocation-free
      (unlike {!find_opt}, which must box the result). *)

  val find_opt : t -> w0:int -> w1:int -> int option

  val mem : t -> w0:int -> w1:int -> bool
  (** Allocation-free. *)

  val find_flow : t -> Packet.Flow.t -> int option

  val lookup_batch : t -> Packet.Flow.t array -> int
  (** Probe every flow under one epoch pin; returns how many were
      found.  Charges the same per-lookup accounting as {!find_opt}
      plus one {!Demux.Lookup_stats.note_batch}, mirroring
      {!Parallel.Striped.lookup_batch}. *)

  val lookup_batch_keyed : t -> Packet.Flow.t array -> hashes:int array -> int
  (** Like {!lookup_batch} with caller-supplied full hashes (computed
      once upstream, e.g. by {!Parallel.Dispatcher} at shard time).
      The hashes {b must} come from this table's [hash] on the flow's
      key words — the default matches [Dispatcher]'s default hasher.
      @raise Invalid_argument if the arrays differ in length. *)

  val length : t -> int
  (** Residents in the currently published region (one atomic load). *)

  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  (** Iterate one consistent published region under a single epoch
      pin — an instantaneous cut of the whole table. *)

  (** {2 Pinned views}

      An explicit read-side critical section: {!pin} returns the
      region published at pin time and keeps the calling domain's
      epoch slot pinned until {!unpin}, so the view stays valid across
      any number of concurrent writer publishes.  Pins nest
      ({!Domain_slot.pin}).  Used by the grace-period audit in
      [lib/check] and by tests that must observe a region {e outlive}
      its replacement. *)

  type view

  val pin : t -> view
  val view_find : view -> w0:int -> w1:int -> int option
  val view_length : view -> int

  val unpin : t -> unit
  (** @raise Invalid_argument if the calling domain holds no pin. *)

  (** {1 Write path — single writer mutex, copy-on-write publish} *)

  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  (** Absent keys publish nothing. *)

  val load : t -> (int * int * int) array -> unit
  (** Bulk insert of [(w0, w1, v)] triples: one copy, one publish, one
      retirement for the whole batch. *)

  (** {1 Reclamation}

      Passthroughs to this table's {!Core} domain.  Writers already run
      an opportunistic {!Core.reclaim} after every publish, so these
      are for tests and shutdown. *)

  val core : t -> Core.t
  val reclaim : t -> int
  val quiesce : t -> unit
  val pending : t -> int

  (** {1 Accounting} *)

  val stats : t -> Demux.Lookup_stats.snapshot
  (** Merged across the writer and every registered reader domain. *)

  val publishes : t -> int
  val capacity : t -> int

  val bytes : t -> int
  (** Slot-storage bytes of the currently published region. *)

  val lock_acquisitions : t -> int
  (** Every mutex acquisition this table has ever performed (writer
      mutex + reader-registration mutex — there are no others).  A
      read-only phase over already-registered domains must leave this
      unchanged; bench E33 asserts exactly that. *)

  val register_obs : ?prefix:string -> Obs.Registry.t -> t -> unit
  (** {!Core.register_obs} plus per-operation table counters
      ([<prefix>.lookups]/[.found]/[.inserts]/[.removes]/[.batches]/
      [.publishes]/[.lock_acquisitions]) and gauges
      ([.resident]/[.capacity]/[.bytes]); default prefix
      ["epoch.packed"]. *)
end

module Make (_ : Demux.Packed_table.FAULT) (_ : Demux.Storage.S) : S
(** The replaced region goes through the fault's
    {!Demux.Packed_table.FAULT.publish} hook, and private-copy deletes
    through its [delete] hook. *)

module Heap : S
module Offheap : S
