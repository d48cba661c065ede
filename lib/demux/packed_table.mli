(** The Robin-Hood engine: the one open-addressing index every flat
    flow table in the repository runs on.

    Keys are the two packed words of {!Packet.Flow.w0}/{!Packet.Flow.w1},
    stored inline in struct-of-arrays slots with a one-byte tag per
    slot that rejects almost every non-matching probe on a single byte
    compare before the key words are touched.  Collisions use
    Robin-Hood displacement (bounded probe variance, early lookup
    termination); deletion is backward-shift, so the live region is
    tombstone-free and probe lengths do not rot under churn.  Capacity is a power of two and
    grows at 7/8 load, either by the two-region incremental drain
    (frozen old region, dead-marking, bounded per-mutation migration:
    EXPERIMENTS.md E31, DESIGN.md section 12) or by a stop-the-world
    copy ({!resize}).

    The slot storage is a {!Storage.S} parameter and the value lane is
    a bare [int], so the whole table can live in [Bigarray] buffers the
    GC never scans ({!Offheap}; E34, DESIGN.md section 14).  Every lane
    holds immediates, which is what makes off-heap storage sound
    without [Obj] tricks.  Three modules sit on this engine:

    - {!Flat_table}, a thin ['a] facade: the engine maps each key to an
      int handle into a value slab;
    - [Epoch.Packed], the copy-on-write epoch table, which runs its
      private-copy mutations through {!ENGINE.Region};
    - [Check.Plant], which instantiates {!Make} with a non-identity
      {!FAULT} to prove the differential checkers catch real bugs in
      the code that ships. *)

type resize =
  | Doubling      (** Stop-the-world rebuild at the growth trigger. *)
  | Incremental   (** Bounded migration per mutation; no O(N) insert. *)

(** {1 Fault hooks}

    Each hook is handed the correct operation and its deliberately
    broken alternative and returns the one to run.  {!Identity} picks
    the correct one; every shipping instance uses it. *)

module type FAULT = sig
  val delete :
    shift:('r -> int -> unit) -> clear:('r -> int -> unit) -> 'r -> int -> unit
  (** Live-region delete: [shift] is the backward shift; [clear] only
      empties the slot, stranding any entry displaced past it. *)

  val publish : retire:('r -> unit) -> scrub:('r -> unit) -> 'r -> unit
  (** What [Epoch.Packed] does with the region a publish replaced:
      [retire] defers its free past every pinned reader; [scrub]
      poisons it at once, under any reader still holding it. *)
end

module Identity : FAULT

(** {1 Tables} *)

module type S = sig
  type t

  val backend : string
  (** Storage backend name ("heap" / "offheap"). *)

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int -> ?resize:resize ->
    unit -> t
  (** [hash] defaults to [Hashing.Hashers.(hash_words multiplicative)];
      override only in tests (it must be fixed for the table's
      lifetime).
      [initial_capacity] is rounded up to a power of two, minimum 8.
      [resize] (default {!Incremental}) is fixed for the table's
      lifetime.
      @raise Invalid_argument if [initial_capacity < 0]. *)

  val length : t -> int
  (** Resident entries, counting both regions during a drain. *)

  val capacity : t -> int
  (** Capacity of the live region (the one accepting inserts). *)

  val resize_policy : t -> resize

  val resizes : t -> int
  (** Growth triggers fired since creation (either policy). *)

  val pending_migration : t -> int
  (** Entries still waiting in the draining old region; 0 when no
      incremental resize is in flight.  Never negative: the accounting
      is checked at every dead-mark (a double decrement raises instead
      of silently corrupting the drain-termination condition). *)

  val bytes : t -> int
  (** Resident slot-storage bytes across both regions (live + any
      draining old region) — the numerator of E34's bytes/flow. *)

  val find : t -> w0:int -> w1:int -> int
  (** Probes the live region, then the draining one.
      @raise Not_found if the key is absent.  Allocation-free. *)

  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool

  val replace : t -> w0:int -> w1:int -> int -> unit
  (** Insert, or overwrite the existing binding.  Under {!Incremental},
      also migrates up to a constant number of entries from the
      draining region first. *)

  val remove : t -> w0:int -> w1:int -> unit
  (** Remove the binding if present (backward shift in the live region,
      dead-mark in the draining one), after the same bounded migration
      step as {!replace}. *)

  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  (** Visits both regions during a drain; order is unspecified. *)

  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b

  val clear : t -> unit
  (** Empty the table, keeping the live region's current capacity and
      abandoning any in-flight drain. *)

  val max_probe_length : t -> int
  (** Longest probe distance of any resident entry in either region. *)

  val probe_count : t -> w0:int -> w1:int -> int
  (** Slots a [find] of this key inspects right now (the terminating
      empty/richer slot included, both regions during a drain);
      always ≥ 1.  Read-only diagnostic — the probe side of E35's
      flat-vs-cuckoo accounting. *)
end

(** One storage region and the Robin-Hood loops over it.  These are
    the only insert and backward-shift loops in the library, and
    [find] is the only way in to the lookup probe
    ({!Storage.S.find_slot}); the table above and [Epoch.Packed] both
    call them. *)
module type REGION = sig
  type store
  type t = { store : store; mutable count : int }

  val create : capacity:int -> t
  (** All-empty region; [capacity] must be a power of two. *)

  val copy : t -> t

  val find : t -> int -> w0:int -> w1:int -> int
  (** [find r h ~w0 ~w1]: the slot holding the key whose full hash is
      [h], or a negative number when it is absent.  Allocation-free. *)

  val insert : t -> int -> w0:int -> w1:int -> int -> unit
  (** Robin-Hood insert of a key known to be absent; the region must
      have a free slot. *)

  val delete : t -> int -> unit
  (** Remove the entry at a slot {!find} returned, through the
      {!FAULT.delete} hook. *)

  val rebuild : t -> capacity:int -> t
  (** A fresh region of [capacity] holding every live entry. *)

  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
end

module type ENGINE = sig
  include S

  val get : t -> w0:int -> w1:int -> default:int -> int
  (** The bound value, or [default] when absent: {!find} without the
      exception, for callers whose miss path is hot. *)

  val find_or_add : t -> w0:int -> w1:int -> int -> int
  (** [find_or_add t ~w0 ~w1 v] binds [v] if the key is absent and
      returns the value now bound: a present key's binding is left
      alone and returned.  One probe where {!get} then {!replace}
      would take two; the same migration step as {!replace}. *)

  module Region : REGION
end

val region_capacity : who:string -> int -> int
(** The power-of-two region capacity (minimum 8) a requested initial
    capacity rounds up to.
    @raise Invalid_argument, naming [who], if the request is negative. *)

module Make (_ : FAULT) (St : Storage.S) :
  ENGINE with type Region.store = St.t

module Heap : ENGINE with type Region.store = Storage.Heap.t
(** [Bytes] + [int array] slots: the index under {!Flat_table}, and the
    differential baseline E34 compares against. *)

module Offheap : ENGINE with type Region.store = Storage.Offheap.t
(** [Bigarray]-backed slots: GC-invisible, constant marking cost
    regardless of flow count. *)
