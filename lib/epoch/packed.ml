(* Copy-on-write publication of Robin-Hood regions.  Probes and the
   private-copy mutations are Demux.Packed_table's region primitives;
   this module adds only the concurrency discipline:

   - published regions are immutable: [count] and the slots are
     mutated only while a region is the writer's private copy;
   - readers pin their domain's epoch slot, [Atomic.get] the published
     region, probe, and unpin — no mutex, no allocation on the warm
     path;
   - the writer serialises on one mutex, copy-mutate-publishes, and
     hands the replaced region to [Core.retire], whose closure ends
     with [St.free]: scrub (dead tags, zeroed words, so a
     use-after-reclaim read is a deterministic miss) and sever, so an
     Offheap region's memory goes back to the allocator at reclaim
     time, not at some later major-GC sweep.  Reclaim runs the closure
     only once every reader slot has advanced past the retirement
     epoch (Core's safety invariant, qcheck-verified in
     test_epoch.ml). *)

module type S = sig
  type t

  val backend : string

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int ->
    ?max_readers:int -> unit -> t

  val get : t -> w0:int -> w1:int -> default:int -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val find_flow : t -> Packet.Flow.t -> int option
  val lookup_batch : t -> Packet.Flow.t array -> int
  val lookup_batch_keyed : t -> Packet.Flow.t array -> hashes:int array -> int
  val length : t -> int
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit

  type view

  val pin : t -> view
  val view_find : view -> w0:int -> w1:int -> int option
  val view_length : view -> int
  val unpin : t -> unit
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val load : t -> (int * int * int) array -> unit
  val core : t -> Core.t
  val reclaim : t -> int
  val quiesce : t -> unit
  val pending : t -> int
  val stats : t -> Demux.Lookup_stats.snapshot
  val publishes : t -> int
  val capacity : t -> int
  val bytes : t -> int
  val lock_acquisitions : t -> int
  val register_obs : ?prefix:string -> Obs.Registry.t -> t -> unit
end

module Make (F : Demux.Packed_table.FAULT) (St : Demux.Storage.S) = struct
  module Engine = Demux.Packed_table.Make (F) (St)
  module Region = Engine.Region

  type reader = {
    slot : Domain_slot.t;
    stats : Demux.Lookup_stats.t;
  }

  type t = {
    core : Core.t;
    published : Region.t Atomic.t;
    writer : Mutex.t;
    mutable writer_locks : int;  (* guarded by [writer] *)
    readers_lock : Mutex.t;
    mutable reader_locks : int;  (* guarded by [readers_lock] *)
    mutable readers : reader list;  (* guarded by [readers_lock] *)
    reader_key : reader option Domain.DLS.key;
    writer_stats : Demux.Lookup_stats.t;
    hash : int -> int -> int;
    mutable publish_count : int;  (* guarded by [writer] *)
  }

  let backend = St.backend

  let create ?(hash = Hashing.Hashers.(hash_words multiplicative))
      ?(initial_capacity = 0) ?max_readers () =
    let capacity =
      Demux.Packed_table.region_capacity ~who:"Epoch.Packed" initial_capacity
    in
    { core = Core.create ?max_readers ();
      published = Atomic.make (Region.create ~capacity);
      writer = Mutex.create ();
      writer_locks = 0;
      readers_lock = Mutex.create ();
      reader_locks = 0;
      readers = [];
      reader_key = Domain.DLS.new_key (fun () -> None);
      writer_stats = Demux.Lookup_stats.create ();
      hash;
      publish_count = 0 }

  (* Per-reader-domain state: one epoch slot and one private
     Lookup_stats, registered lazily on the domain's first lookup. *)
  let reader_of t =
    match Domain.DLS.get t.reader_key with
    | Some reader -> reader
    | None ->
      let slot = Domain_slot.acquire (Core.pool t.core) in
      let reader = { slot; stats = Demux.Lookup_stats.create () } in
      Mutex.lock t.readers_lock;
      t.reader_locks <- t.reader_locks + 1;
      t.readers <- reader :: t.readers;
      Mutex.unlock t.readers_lock;
      Domain.DLS.set t.reader_key (Some reader);
      reader

  (* {1 Read path} *)

  let get t ~w0 ~w1 ~default =
    let reader = reader_of t in
    Demux.Lookup_stats.begin_lookup reader.stats;
    Demux.Lookup_stats.examine reader.stats;
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    let r = Atomic.get t.published in
    let slot = Region.find r (t.hash w0 w1) ~w0 ~w1 in
    let result = if slot < 0 then default else St.value r.store slot in
    Domain_slot.unpin reader.slot;
    Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false
      ~found:(slot >= 0);
    result

  (* Values are any int, so [mem] and [find_opt] cannot reuse [get]
     with a sentinel default: they probe for themselves. *)
  let mem t ~w0 ~w1 =
    let reader = reader_of t in
    Demux.Lookup_stats.begin_lookup reader.stats;
    Demux.Lookup_stats.examine reader.stats;
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    let slot = Region.find (Atomic.get t.published) (t.hash w0 w1) ~w0 ~w1 in
    Domain_slot.unpin reader.slot;
    Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false
      ~found:(slot >= 0);
    slot >= 0

  let find_opt t ~w0 ~w1 =
    let reader = reader_of t in
    Demux.Lookup_stats.begin_lookup reader.stats;
    Demux.Lookup_stats.examine reader.stats;
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    let r = Atomic.get t.published in
    let slot = Region.find r (t.hash w0 w1) ~w0 ~w1 in
    let result = if slot < 0 then None else Some (St.value r.store slot) in
    Domain_slot.unpin reader.slot;
    Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false
      ~found:(slot >= 0);
    result

  let find_flow t flow =
    find_opt t
      ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow)

  let lookup_batch_hashed t flows ~hash_at =
    let n = Array.length flows in
    if n = 0 then 0
    else begin
      let reader = reader_of t in
      Demux.Lookup_stats.note_batch reader.stats ~size:n;
      Domain_slot.pin reader.slot ~global:(Core.global t.core);
      let r = Atomic.get t.published in
      let found = ref 0 in
      for i = 0 to n - 1 do
        let flow = flows.(i) in
        let w0 = Packet.Flow.w0 flow in
        let w1 = Packet.Flow.w1 flow in
        Demux.Lookup_stats.begin_lookup reader.stats;
        Demux.Lookup_stats.examine reader.stats;
        let hit = Region.find r (hash_at t i w0 w1) ~w0 ~w1 >= 0 in
        if hit then incr found;
        Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false ~found:hit
      done;
      Domain_slot.unpin reader.slot;
      !found
    end

  let lookup_batch t flows =
    lookup_batch_hashed t flows ~hash_at:(fun t _ w0 w1 -> t.hash w0 w1)

  let lookup_batch_keyed t flows ~hashes =
    if Array.length flows <> Array.length hashes then
      invalid_arg "Epoch.Packed.lookup_batch_keyed: length mismatch";
    lookup_batch_hashed t flows
      ~hash_at:(fun _ i _ _ -> Array.unsafe_get hashes i)

  let length t = (Atomic.get t.published).count

  let iter f t =
    let reader = reader_of t in
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    Region.iter f (Atomic.get t.published);
    Domain_slot.unpin reader.slot

  (* {1 Pinned views} *)

  type view = { region : Region.t; view_hash : int -> int -> int }

  let pin t =
    let reader = reader_of t in
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    { region = Atomic.get t.published; view_hash = t.hash }

  let view_find view ~w0 ~w1 =
    let r = view.region in
    let slot = Region.find r (view.view_hash w0 w1) ~w0 ~w1 in
    if slot < 0 then None else Some (St.value r.store slot)

  let view_length view = view.region.count
  let unpin t = Domain_slot.unpin (reader_of t).slot

  (* {1 Write path} *)

  let with_writer t f =
    Mutex.lock t.writer;
    t.writer_locks <- t.writer_locks + 1;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) f

  let retire t (old : Region.t) =
    Core.retire t.core (fun () -> St.free old.store)

  let scrub (old : Region.t) = St.scrub old.store

  let publish t fresh old =
    Atomic.set t.published fresh;
    t.publish_count <- t.publish_count + 1;
    F.publish ~retire:(retire t) ~scrub old;
    (* Opportunistic: writes are the rare path, so they pay for
       reclamation; anything still pinned stays on the list. *)
    ignore (Core.reclaim t.core)

  let needs_growth (r : Region.t) extra =
    (r.count + extra) * 8 > St.capacity r.store * 7

  let rec grown_capacity cap count =
    if count * 8 > cap * 7 then grown_capacity (cap * 2) count else cap

  (* The private copy [extra] more inserts land in: a plain copy, or a
     rebuild at the first capacity that keeps them under 7/8 load. *)
  let private_copy (cur : Region.t) ~extra ~min_capacity =
    if needs_growth cur extra then
      Region.rebuild cur
        ~capacity:(grown_capacity min_capacity (cur.count + extra))
    else Region.copy cur

  let replace t ~w0 ~w1 v =
    with_writer t @@ fun () ->
    let cur = Atomic.get t.published in
    let h = t.hash w0 w1 in
    let slot = Region.find cur h ~w0 ~w1 in
    let fresh =
      if slot >= 0 then begin
        let fresh = Region.copy cur in
        St.set_value fresh.store slot v;
        fresh
      end
      else begin
        let fresh =
          private_copy cur ~extra:1 ~min_capacity:(2 * St.capacity cur.store)
        in
        Region.insert fresh h ~w0 ~w1 v;
        Demux.Lookup_stats.note_insert t.writer_stats;
        fresh
      end
    in
    publish t fresh cur

  let remove t ~w0 ~w1 =
    with_writer t @@ fun () ->
    let cur = Atomic.get t.published in
    let slot = Region.find cur (t.hash w0 w1) ~w0 ~w1 in
    if slot >= 0 then begin
      let fresh = Region.copy cur in
      Region.delete fresh slot;
      Demux.Lookup_stats.note_remove t.writer_stats;
      publish t fresh cur
    end

  let load t entries =
    if Array.length entries > 0 then
      with_writer t @@ fun () ->
      let cur = Atomic.get t.published in
      let fresh =
        private_copy cur ~extra:(Array.length entries)
          ~min_capacity:(St.capacity cur.store)
      in
      Array.iter
        (fun (w0, w1, v) ->
          let h = t.hash w0 w1 in
          let slot = Region.find fresh h ~w0 ~w1 in
          if slot >= 0 then St.set_value fresh.store slot v
          else begin
            Region.insert fresh h ~w0 ~w1 v;
            Demux.Lookup_stats.note_insert t.writer_stats
          end)
        entries;
      publish t fresh cur

  (* {1 Reclamation passthroughs} *)

  let core t = t.core
  let reclaim t = Core.reclaim t.core
  let quiesce t = Core.quiesce t.core
  let pending t = Core.pending t.core

  (* {1 Accounting} *)

  let stats t =
    Mutex.lock t.readers_lock;
    t.reader_locks <- t.reader_locks + 1;
    let readers = t.readers in
    Mutex.unlock t.readers_lock;
    Demux.Lookup_stats.merge_snapshots
      (Demux.Lookup_stats.snapshot t.writer_stats
      :: List.map (fun r -> Demux.Lookup_stats.snapshot r.stats) readers)

  let publishes t = t.publish_count
  let capacity t = St.capacity (Atomic.get t.published).store
  let bytes t = St.bytes (Atomic.get t.published).store
  let lock_acquisitions t = t.writer_locks + t.reader_locks

  let register_obs ?(prefix = "epoch.packed") obs t =
    Core.register_obs ~prefix obs t.core;
    let name suffix = prefix ^ "." ^ suffix in
    let stat pick = fun () -> pick (stats t) in
    Obs.Registry.register_counter obs ~name:(name "lookups")
      ~help:"lock-free lookups, merged across reader domains"
      (stat (fun s -> s.Demux.Lookup_stats.lookups));
    Obs.Registry.register_counter obs ~name:(name "found")
      ~help:"lookups that matched a resident flow"
      (stat (fun s -> s.Demux.Lookup_stats.found));
    Obs.Registry.register_counter obs ~name:(name "inserts")
      ~help:"new flows inserted by the writer"
      (stat (fun s -> s.Demux.Lookup_stats.inserts));
    Obs.Registry.register_counter obs ~name:(name "removes")
      ~help:"flows removed by the writer"
      (stat (fun s -> s.Demux.Lookup_stats.removes));
    Obs.Registry.register_counter obs ~name:(name "batches")
      ~help:"batched lookup calls (one epoch pin each)"
      (stat (fun s -> s.Demux.Lookup_stats.batches));
    Obs.Registry.register_counter obs ~name:(name "publishes")
      ~help:"region replacements published by the writer" (fun () ->
        publishes t);
    Obs.Registry.register_counter obs ~name:(name "lock_acquisitions")
      ~help:
        "every mutex acquisition the table ever made (writer + reader \
         registration; the read path takes none)" (fun () ->
        lock_acquisitions t);
    Obs.Registry.register_gauge obs ~name:(name "resident")
      ~help:"flows resident in the published region" (fun () ->
        float_of_int (length t));
    Obs.Registry.register_gauge obs ~name:(name "capacity")
      ~help:"slots in the published region" (fun () ->
        float_of_int (capacity t));
    Obs.Registry.register_gauge obs ~name:(name "bytes")
      ~help:
        (Printf.sprintf
           "slot-storage bytes of the published region (%s backend)"
           backend) (fun () -> float_of_int (bytes t))
end

module Heap = Make (Demux.Packed_table.Identity) (Demux.Storage.Heap)
module Offheap = Make (Demux.Packed_table.Identity) (Demux.Storage.Offheap)
