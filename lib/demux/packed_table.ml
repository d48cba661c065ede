(* The Robin-Hood engine: open addressing over Storage.S regions, with
   a two-region incremental resize.  See packed_table.mli for the
   contract; the arguments behind the design are:

   Collision policy is Robin-Hood displacement: an inserted entry
   steals the slot of any resident that is closer to its home bucket,
   which bounds probe-length variance and lets lookups stop early once
   they out-distance the resident.  Deletion in the live region is
   backward-shift (move displaced successors one slot back), so the
   table never holds tombstones and probe lengths do not degrade with
   churn.  Capacity is a power of two and grows at 7/8 load.

   Growth comes in two flavours ([resize]):

   - [Incremental] (the default): when the trigger fires, the full
     region becomes the frozen [old] region and a fresh region of twice
     the capacity becomes [cur].  Every subsequent mutation migrates a
     bounded number of entries (and visits a bounded number of slots)
     from [old] into [cur], so no single insert ever pays the O(N)
     rebuild; lookups probe [cur] then [old] while the drain is in
     flight.  The old region never moves an entry once the drain
     starts: migrated (and user-removed) slots are marked dead with
     [Storage.dead_tag], keeping their stored hash so probe-distance
     arithmetic — and therefore Robin-Hood early termination — still
     works on the frozen layout.  A dead mark costs O(1) where a
     backward shift out of a 7/8-full region costs a whole
     displacement run, which is precisely the tail the incremental
     policy exists to remove (E31); the region is garbage the moment
     the drain ends, so the tombstone objection (probe degradation
     under churn) does not apply to it.
   - [Doubling]: the original stop-the-world copy, kept behind the flag
     so differential tests can race the two policies against each
     other.

   Drain-completes-before-next-trigger argument: growth C -> 2C starts
   with at most 7C/8 entries to migrate, and the next trigger cannot
   fire before [length] reaches 7C/4 — at least 7C/8 further inserts,
   each migrating up to [migration_entries] (>= 1) entries.  The
   defensive [drain_old] in [begin_grow] covers adversarial
   interleavings anyway (it is a no-op when the budget maths holds).

   This build has no flambda, so every [St.*] call in the functor body
   is an indirect call: the slot loops read [St.mask] once per call and
   carry it as an argument instead of re-reading it on every step, and
   the lookup probe, the loop every find runs, is [St.find_slot]: each
   backend writes it over its own accessors, so a lookup pays one
   indirect call rather than three or more per slot visited. *)

type resize = Doubling | Incremental

module type FAULT = sig
  val delete :
    shift:('r -> int -> unit) -> clear:('r -> int -> unit) -> 'r -> int -> unit

  val publish : retire:('r -> unit) -> scrub:('r -> unit) -> 'r -> unit
end

module Identity = struct
  let delete ~shift ~clear:_ = shift
  let publish ~retire ~scrub:_ = retire
end

module type S = sig
  type t

  val backend : string

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int -> ?resize:resize ->
    unit -> t

  val length : t -> int
  val capacity : t -> int
  val resize_policy : t -> resize
  val resizes : t -> int
  val pending_migration : t -> int
  val bytes : t -> int
  val find : t -> w0:int -> w1:int -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b
  val clear : t -> unit
  val max_probe_length : t -> int
  val probe_count : t -> w0:int -> w1:int -> int
end

module type REGION = sig
  type store
  type t = { store : store; mutable count : int }

  val create : capacity:int -> t
  val copy : t -> t
  val find : t -> int -> w0:int -> w1:int -> int
  val insert : t -> int -> w0:int -> w1:int -> int -> unit
  val delete : t -> int -> unit
  val rebuild : t -> capacity:int -> t
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
end

module type ENGINE = sig
  include S

  val get : t -> w0:int -> w1:int -> default:int -> int
  val find_or_add : t -> w0:int -> w1:int -> int -> int

  module Region : REGION
end

let default_hash = Hashing.Hashers.(hash_words multiplicative)
let min_capacity = 8
let dead_tag = Storage.dead_tag

(* Per-mutation drain budget: at most [migration_entries] entries are
   moved and at most [migration_slot_budget] old-region slots are
   inspected, so a mutation's resize tax is O(1) even when the old
   region is sparse (long empty or dead runs cost slot visits, not
   moves).  One entry per mutation would already finish the drain
   before the next growth trigger, but the budget is set higher on
   purpose: while the drain is in flight, every inserted key also pays
   an absent-key probe through the frozen, 7/8-full old region, so the
   tail is minimized by finishing the drain quickly (E31). *)
let migration_entries = 4
let migration_slot_budget = 32

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let region_capacity ~who initial_capacity =
  if initial_capacity < 0 then
    invalid_arg (who ^ ".create: initial_capacity < 0");
  pow2_at_least (max min_capacity initial_capacity) min_capacity

(* Live tags land in 1..254: 0 is empty and [dead_tag] never matches. *)
let tag_of_hash h =
  let tag = (h lsr 16) land 0xFF in
  if tag = 0 || tag = dead_tag then 1 else tag

module Make (F : FAULT) (St : Storage.S) = struct
  module Region = struct
    type store = St.t
    type t = { store : store; mutable count : int }

    let create ~capacity = { store = St.create ~capacity; count = 0 }
    let copy r = { store = St.copy r.store; count = r.count }

    (* Distance of the resident at [slot] from its home bucket:
       [(slot - (hash land mask)) land mask], with the inner mask folded
       away (subtraction modulo a power of two). *)
    let[@inline] distance s mask slot = (slot - St.hash s slot) land mask

    (* The probe lives in the storage backend ([St.find_slot]): see
       the header for why. *)
    let find r h ~w0 ~w1 =
      St.find_slot r.store ~hash:h ~tag:(tag_of_hash h) ~w0 ~w1

    (* Robin-Hood insertion of a key known to be absent: walk from the
       home slot, swapping the carried entry with any resident closer
       to its own home, until an empty slot absorbs the carry. *)
    let rec place s mask slot dist tag h w0 w1 v =
      let resident = St.tag s slot in
      if resident = 0 then begin
        St.set_tag s slot tag;
        St.set_hash s slot h;
        St.set_words s slot ~w0 ~w1;
        St.set_value s slot v
      end
      else begin
        let rdist = distance s mask slot in
        let next = (slot + 1) land mask in
        if rdist < dist then begin
          (* The resident is richer (closer to home): it yields the
             slot and is carried onward. *)
          let h' = St.hash s slot and w0' = St.w0 s slot
          and w1' = St.w1 s slot and v' = St.value s slot in
          St.set_tag s slot tag;
          St.set_hash s slot h;
          St.set_words s slot ~w0 ~w1;
          St.set_value s slot v;
          place s mask next (rdist + 1) resident h' w0' w1' v'
        end
        else place s mask next (dist + 1) tag h w0 w1 v
      end

    let insert r h ~w0 ~w1 v =
      let s = r.store in
      let mask = St.mask s in
      place s mask (h land mask) 0 (tag_of_hash h) h w0 w1 v;
      r.count <- r.count + 1

    (* Backward-shift deletion: pull each displaced successor one slot
       towards its home until a slot is empty or home (distance 0), so
       no tombstone is left behind. *)
    let rec shift_back s mask slot =
      let next = (slot + 1) land mask in
      let next_tag = St.tag s next in
      if next_tag = 0 || distance s mask next = 0 then St.set_tag s slot 0
      else begin
        St.set_tag s slot next_tag;
        St.set_hash s slot (St.hash s next);
        St.set_words s slot ~w0:(St.w0 s next) ~w1:(St.w1 s next);
        St.set_value s slot (St.value s next);
        shift_back s mask next
      end

    let shift s slot = shift_back s (St.mask s) slot

    let clear s slot = St.set_tag s slot 0

    let delete_slot = F.delete ~shift ~clear

    let delete r slot =
      delete_slot r.store slot;
      r.count <- r.count - 1

    let iter f r =
      let s = r.store in
      for slot = 0 to St.mask s do
        let tag = St.tag s slot in
        if tag <> 0 && tag <> dead_tag then
          f ~w0:(St.w0 s slot) ~w1:(St.w1 s slot) (St.value s slot)
      done

    let rebuild r ~capacity =
      let fresh = create ~capacity in
      let s = r.store in
      for slot = 0 to St.mask s do
        let tag = St.tag s slot in
        if tag <> 0 && tag <> dead_tag then
          insert fresh (St.hash s slot) ~w0:(St.w0 s slot) ~w1:(St.w1 s slot)
            (St.value s slot)
      done;
      fresh
  end

  type t = {
    mutable cur : Region.t;
    mutable old : Region.t option;
        (* the pre-growth region still draining, oldest entries first *)
    mutable migrate_pos : int;
        (* next old-region slot the drain will inspect *)
    mutable resizes : int;
    resize : resize;
    hash : int -> int -> int;
  }

  let backend = St.backend

  let create ?(hash = default_hash) ?(initial_capacity = min_capacity)
      ?(resize = Incremental) () =
    let capacity = region_capacity ~who:"Packed_table" initial_capacity in
    { cur = Region.create ~capacity;
      old = None;
      migrate_pos = 0;
      resizes = 0;
      resize;
      hash }

  let length t =
    t.cur.count + (match t.old with Some o -> o.count | None -> 0)

  let capacity t = St.capacity t.cur.store
  let resize_policy t = t.resize
  let resizes t = t.resizes
  let pending_migration t = match t.old with Some o -> o.count | None -> 0

  let bytes t =
    St.bytes t.cur.store
    + (match t.old with Some o -> St.bytes o.store | None -> 0)

  let get t ~w0 ~w1 ~default =
    let h = t.hash w0 w1 in
    let slot = Region.find t.cur h ~w0 ~w1 in
    if slot >= 0 then St.value t.cur.store slot
    else
      match t.old with
      | None -> default
      | Some o ->
        let slot = Region.find o h ~w0 ~w1 in
        if slot >= 0 then St.value o.store slot else default

  let find t ~w0 ~w1 =
    let h = t.hash w0 w1 in
    let slot = Region.find t.cur h ~w0 ~w1 in
    if slot >= 0 then St.value t.cur.store slot
    else
      match t.old with
      | None -> raise Not_found
      | Some o ->
        let slot = Region.find o h ~w0 ~w1 in
        if slot >= 0 then St.value o.store slot else raise Not_found

  let find_opt t ~w0 ~w1 =
    match find t ~w0 ~w1 with v -> Some v | exception Not_found -> None

  let mem t ~w0 ~w1 =
    let h = t.hash w0 w1 in
    Region.find t.cur h ~w0 ~w1 >= 0
    || (match t.old with
       | None -> false
       | Some o -> Region.find o h ~w0 ~w1 >= 0)

  let finish_drain t =
    (match t.old with Some o -> St.free o.store | None -> ());
    t.old <- None;
    t.migrate_pos <- 0

  (* Dead-mark an old-region slot: O(1), no displacement run.  The
     stored hash stays behind for probe-distance arithmetic.  Both
     callers check the slot is live first, but a double dead-mark — an
     eviction through a wrapper racing a plain remove to the same slot —
     would drive [o.count] negative and make the drain's [o.count = 0]
     termination test unreachable; fail loudly instead. *)
  let kill_slot (o : Region.t) slot =
    let tag = St.tag o.store slot in
    if o.count <= 0 || tag = 0 || tag = dead_tag then
      invalid_arg
        "Packed_table: dead-marking a non-live old-region slot \
         (pending_migration accounting would go negative)";
    St.set_tag o.store slot dead_tag;
    o.count <- o.count - 1

  (* One bounded drain step.  The old region's layout is frozen, so the
     cursor sweeps each slot exactly once and never wraps: every live
     entry sits where it sat when the drain began. *)
  let migrate t =
    match t.old with
    | None -> ()
    | Some o ->
      let s = o.store in
      let mask = St.mask s in
      let moved = ref 0 and visited = ref 0 in
      let finished = ref (o.count = 0) in
      while
        (not !finished)
        && !moved < migration_entries
        && !visited < migration_slot_budget
      do
        let p = t.migrate_pos land mask in
        incr visited;
        let tag = St.tag s p in
        if tag <> 0 && tag <> dead_tag then begin
          let h = St.hash s p and w0 = St.w0 s p and w1 = St.w1 s p in
          let v = St.value s p in
          kill_slot o p;
          Region.insert t.cur h ~w0 ~w1 v;
          incr moved
        end;
        t.migrate_pos <- t.migrate_pos + 1;
        if o.count = 0 then finished := true
      done;
      if !finished then finish_drain t

  let rec drain_old t =
    match t.old with
    | None -> ()
    | Some _ ->
      migrate t;
      drain_old t

  let begin_grow t =
    t.resizes <- t.resizes + 1;
    let capacity = 2 * St.capacity t.cur.store in
    match t.resize with
    | Doubling ->
      let old = t.cur in
      t.cur <- Region.rebuild old ~capacity;
      St.free old.store
    | Incremental ->
      (* Unreachable in practice while the budget maths in the header
         holds; kept so a future budget tweak degrades to a full drain
         instead of stacking a third region. *)
      drain_old t;
      t.old <- Some t.cur;
      t.migrate_pos <- 0;
      t.cur <- Region.create ~capacity

  (* The value now bound in [r] at [slot], after overwriting it with
     [v] when asked. *)
  let rebind (r : Region.t) slot v ~overwrite =
    if overwrite then begin
      St.set_value r.store slot v;
      v
    end
    else St.value r.store slot

  let bind t ~w0 ~w1 v ~overwrite =
    if t.resize = Incremental then migrate t;
    let h = t.hash w0 w1 in
    let slot = Region.find t.cur h ~w0 ~w1 in
    if slot >= 0 then rebind t.cur slot v ~overwrite
    else
      let old_slot =
        match t.old with None -> -1 | Some o -> Region.find o h ~w0 ~w1
      in
      match t.old with
      | Some o when old_slot >= 0 -> rebind o old_slot v ~overwrite
      | _ ->
        if (length t + 1) * 8 > St.capacity t.cur.store * 7 then begin_grow t;
        Region.insert t.cur h ~w0 ~w1 v;
        v

  let replace t ~w0 ~w1 v = ignore (bind t ~w0 ~w1 v ~overwrite:true)
  let find_or_add t ~w0 ~w1 v = bind t ~w0 ~w1 v ~overwrite:false

  let remove t ~w0 ~w1 =
    if t.resize = Incremental then migrate t;
    let h = t.hash w0 w1 in
    let slot = Region.find t.cur h ~w0 ~w1 in
    if slot >= 0 then Region.delete t.cur slot
    else
      match t.old with
      | None -> ()
      | Some o ->
        let slot = Region.find o h ~w0 ~w1 in
        if slot >= 0 then begin
          (* Dead-mark, don't backshift: the frozen layout is what keeps
             old-region probes and the drain cursor correct. *)
          kill_slot o slot;
          if o.count = 0 then finish_drain t
        end

  let iter f t =
    Region.iter f t.cur;
    match t.old with None -> () | Some o -> Region.iter f o

  let fold f t init =
    let acc = ref init in
    iter (fun ~w0 ~w1 v -> acc := f ~w0 ~w1 v !acc) t;
    !acc

  let clear t =
    St.reset t.cur.store;
    t.cur.count <- 0;
    finish_drain t

  (* Slots a [find] of this key inspects (terminating slot included),
     across both regions — the flat side of E35's probe accounting. *)
  let probe_count t ~w0 ~w1 =
    let h = t.hash w0 w1 in
    let inspected (r : Region.t) slot =
      if slot < 0 then lnot slot + 1 else ((slot - h) land St.mask r.store) + 1
    in
    let slot = Region.find t.cur h ~w0 ~w1 in
    let n = inspected t.cur slot in
    match t.old with
    | Some o when slot < 0 -> n + inspected o (Region.find o h ~w0 ~w1)
    | _ -> n

  (* Longest probe distance of any resident (Robin Hood keeps this
     small and low-variance). *)
  let max_probe_length t =
    let worst = ref 0 in
    let scan (r : Region.t) =
      let s = r.store in
      let mask = St.mask s in
      for slot = 0 to mask do
        let tag = St.tag s slot in
        if tag <> 0 && tag <> dead_tag then
          worst := max !worst (Region.distance s mask slot)
      done
    in
    scan t.cur;
    (match t.old with None -> () | Some o -> scan o);
    !worst
end

module Heap = Make (Identity) (Storage.Heap)
module Offheap = Make (Identity) (Storage.Offheap)
