(** Slot storage backends for packed flow tables.

    A {!S} value is the raw storage of one open-addressing region:
    per-slot tag bytes, stored hashes, the two packed {!Packet.Flow}
    words, and one integer value lane — the struct-of-arrays layout the
    Robin-Hood engine ({!Packed_table}) probes, so that one engine runs
    over two physical layouts (and {!Cuckoo_table} over the same two):

    - {!Heap}: [Bytes] + [int array], the original layout.  The arrays
      live on the OCaml heap, so at millions of flows every major GC
      cycle re-marks tens of millions of words that can never be
      collected.
    - {!Offheap}: [Bigarray.Array1] buffers.  Bigarrays are custom
      blocks whose payload lives outside the OCaml heap: the GC never
      scans a slot, marking cost is independent of the flow count, and
      {!S.free} severs the buffers eagerly so a retired multi-megabyte
      region is released the moment reclamation decides it is dead
      rather than whenever the collector next notices (DESIGN.md
      section 14).

    Both lanes hold only immediates (the packed key words are ints by
    construction, {!Packet.Flow.word}), so neither backend's stores go through
    the GC write barrier — [caml_modify] is never called on the hot
    path, heap or off-heap.

    All slot accessors are unchecked for speed: callers index with
    [h land mask t], which is in bounds by construction.  Requires a
    63-bit-int platform (guarded at startup by {!Packet.Flow}). *)

val dead_tag : int
(** The reserved tag byte (255) shared by {!S.scrub} and
    {!Packed_table}'s old-region dead-marking; live tags land in
    1..254. *)

module type S = sig
  type t

  val backend : string
  (** ["heap"] or ["offheap"] — used in metric and bench labels. *)

  val bytes_per_slot : int
  (** Physical bytes per slot: 1 tag byte + 3 words (hash, w0, w1) +
      1 value word = 33.  The packed-layout lower bound E34's
      bytes/flow gate is computed from. *)

  val create : capacity:int -> t
  (** Fresh all-empty storage; [capacity] must be a power of two. *)

  val mask : t -> int
  (** [capacity - 1]; 0 after {!free}. *)

  val capacity : t -> int

  val bytes : t -> int
  (** Resident storage bytes ([capacity * bytes_per_slot]); 0 after
      {!free}. *)

  val tag : t -> int -> int
  val set_tag : t -> int -> int -> unit
  val hash : t -> int -> int
  val set_hash : t -> int -> int -> unit
  val w0 : t -> int -> int
  val w1 : t -> int -> int
  val set_words : t -> int -> w0:int -> w1:int -> unit
  val value : t -> int -> int
  val set_value : t -> int -> int -> unit

  val copy : t -> t
  (** Deep copy (for copy-on-write publication). *)

  val reset : t -> unit
  (** Every tag back to 0 (empty); capacity unchanged. *)

  val scrub : t -> unit
  (** Reclamation poison: every tag set to the dead value (255),
      hashes and key words zeroed — any later probe of the region
      terminates and misses deterministically. *)

  val free : t -> unit
  (** Scrub, then sever the buffers: the storage drops to a shared
      one-slot empty sentinel with [mask t = 0], so the backing
      memory loses its last reference {e now} (for {!Offheap}, the
      custom blocks holding hundreds of megabytes at 10M flows)
      instead of living as long as whatever closure retired the
      region.  Any probe of freed storage lands in the sentinel's
      empty slot and misses.  Idempotent. *)

  val find_slot : t -> hash:int -> tag:int -> w0:int -> w1:int -> int
  (** The Robin-Hood lookup probe from [hash land mask t]: the slot
      whose tag is [tag] and whose words are [w0]/[w1], or [lnot dist]
      (negative) for a miss that stopped [dist] slots past home, at an
      empty slot or at a resident closer to its own home than the
      probe is to [hash]'s.  A dead slot never matches (live tags avoid
      {!dead_tag}) but its stored hash keeps the distance test
      meaningful on a frozen region.  Allocation-free. *)
end

module Heap : S
module Offheap : S

val by_name : string -> (module S) option
(** [by_name "heap" / "offheap"]. *)
