(** Bucketized cuckoo hashing with per-bucket tag vectors and a
    negative-lookup filter (Cuckoo++, Le Scouarnec — PAPERS.md).

    The flat tables ({!Flat_table}, {!Packed_table}) probe a
    displacement cluster to prove a key {e absent}, which is exactly
    the operation a SYN flood buys in bulk.  This backend bounds the
    worst case instead:

    - {b 8-slot buckets} over a {!Storage.S} region.  Bucket [b] is
      slots [8b .. 8b+7], so the bucket's eight tag bytes are
      contiguous — the per-bucket {e tag vector}.  A lookup scans
      those eight bytes first and touches key words only on a tag
      match.
    - {b Two hashes}: the primary is {!default_hash1} (Hashing's
      multiplicative scheme over the packed words); the
      secondary is an independent pure-int mixer over the same words.
      A key lives in bucket [h1 land mask] or [h2 land mask], never
      anywhere else.
    - {b Negative-lookup filter}: each bucket keeps eight 7-bit
      saturating counters, one per tag class ([tag land 7]), counting
      the keys of that class whose {e primary} bucket this is but
      which currently live in their secondary bucket or the stash.
      If the primary bucket's tag vector misses and the class counter
      is zero, the key is definitively absent — the whole miss
      touched one bucket.  Counters saturate at 127 and stick
      (a saturated counter is never decremented), so the filter can
      go stale-positive but never false-negative.
    - {b BFS kicks}: when both candidate buckets are full, a
      breadth-first search over alternate buckets (each bucket
      visited at most once, at most {!bfs_budget} queue entries)
      finds the shortest chain of displacements that frees a slot.
    - {b Stash}: if the BFS exhausts its budget the key goes to a
      {!stash_capacity}-entry stash, scanned only after both buckets
      miss {e and} the filter said the class might have overflowed.
      So the worst-case lookup is 2 buckets + the stash, always.

    Growth is stop-the-world doubling (triggered at 15/16 projected
    load or on stash overflow); there is no incremental drain here —
    bounded probes, not bounded mutations, are this backend's claim.
    With degenerate hash functions more keys can target one bucket
    pair than 2×8 slots + the stash can hold; inserting past that
    bound raises [Invalid_argument] after growth retries rather than
    looping forever (exercised by qcheck in test_demux.ml).

    See DESIGN.md section 15 and EXPERIMENTS.md E35. *)

val slots_per_bucket : int
(** 8 — the bucket tag vector is one 8-byte load. *)

val stash_capacity : int
(** 16 entries. *)

val bfs_budget : int
(** Upper bound on BFS queue entries (buckets examined) per insert;
    also bounds the displacement-chain length. *)

val default_hash1 : int -> int -> int
(** [Hashing.Hashers.(hash_words multiplicative)] — the same
    multiplicative hash every other backend and the parallel
    dispatcher use. *)

val default_hash2 : int -> int -> int
(** Independent pure-int mixer over the packed words (distinct odd
    multipliers + xor-shift finisher); allocation-free.  Exposed so
    {!Sim.Attack_workload} can craft bucket-pair collision floods. *)

val tag_of_hash : int -> int
(** Tag byte stored for (and scanned against) a key: bits 16..23 of
    the primary hash, remapped so 0 (empty) and 255 (dead) never
    appear; live tags land in 1..254.  The filter class is
    [tag_of_hash h land 7]. *)

val buckets_for : int -> int
(** Number of buckets a default-capacity table ends up with after
    inserting [n] keys (the 15/16 growth trigger replayed), so attack
    generators can aim at the mask the table will actually use. *)

module type S = sig
  type t

  val backend : string
  (** Storage backend name ("heap" / "offheap"). *)

  val create :
    ?hash1:(int -> int -> int) -> ?hash2:(int -> int -> int) ->
    ?initial_capacity:int -> unit -> t
  (** Defaults: {!default_hash1}, {!default_hash2}, 16 slots.
      Degenerate [hash1]/[hash2] pairs are how the tests force kick
      loops into the stash. *)

  val length : t -> int
  (** Resident keys, bucket slots + stash. *)

  val capacity : t -> int
  (** Bucket slots ([buckets t * 8]); the stash is extra. *)

  val resizes : t -> int
  (** Stop-the-world doublings so far. *)

  val bytes : t -> int
  (** Slot storage + filter + stash + BFS scratch, in bytes. *)

  val find : t -> w0:int -> w1:int -> int
  (** @raise Not_found if the key is absent.  Allocation-free. *)

  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool

  val replace : t -> w0:int -> w1:int -> int -> unit
  (** Insert or update.  @raise Invalid_argument past the degenerate
      collision bound (see module doc). *)

  val remove : t -> w0:int -> w1:int -> unit
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b
  val clear : t -> unit

  val max_probe_length : t -> int
  (** Worst-case probe units any {e resident} key's lookup takes:
      1 per bucket scanned + 1 per stash entry examined.  Bounded by
      [2 + stash_len t] by construction. *)

  (* Cuckoo diagnostics. *)

  val buckets : t -> int
  val stash_len : t -> int

  val kicks : t -> int
  (** Cumulative displacements applied by BFS unwinds. *)

  val stash_spills : t -> int
  (** Inserts that exhausted the BFS budget and fell into the
      stash. *)

  val last_probes : t -> int
  (** Probe units (buckets scanned + stash entries examined) of the
      most recent [find]/[find_opt]/[mem]/[probe_count] on this
      table.  A filter-short-circuited miss reports 1. *)

  val probe_count : t -> w0:int -> w1:int -> int
  (** Probe units a lookup of this key takes right now; read-only
      apart from {!last_probes}. *)
end

module Make (_ : Storage.S) : S

module Heap : S
module Offheap : S
