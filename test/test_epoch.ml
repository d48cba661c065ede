(* Tests for lib/epoch: the reclamation core's safety properties, the
   lock-free table's read path (including its zero-allocation and
   zero-mutex guarantees), and a 4-domain reader/writer stress across
   mid-run growth — the concurrent half of what Epoch_audit checks
   deterministically in lib/check.  The table under test is
   Epoch.Packed.Heap, except that the stress and pipeline tests also
   run over Epoch.Packed.Offheap, so a writer frees retired Bigarray
   regions while readers are pinned; test_offheap.ml covers the rest
   of the Offheap instance. *)

let flow i = Sim.Topology.flow_of_client i

(* ------------------------------------------------------------------ *)
(* Domain_slot: pins, nesting, the pool                                *)

let test_slot_pin_nesting () =
  let pool = Epoch.Domain_slot.create_pool ~max_readers:4 in
  let slot = Epoch.Domain_slot.acquire pool in
  let global = Atomic.make 5 in
  Alcotest.(check int) "unpinned" 0 (Epoch.Domain_slot.pinned_epoch slot);
  Epoch.Domain_slot.pin slot ~global;
  Alcotest.(check int) "pinned at the observed epoch" 5
    (Epoch.Domain_slot.pinned_epoch slot);
  (* The global moves on; a nested pin must keep the outer epoch — the
     conservative choice that lets a pinned caller invoke operations
     that pin internally. *)
  Atomic.set global 9;
  Epoch.Domain_slot.pin slot ~global;
  Alcotest.(check int) "nested pin keeps the outer epoch" 5
    (Epoch.Domain_slot.pinned_epoch slot);
  Alcotest.(check int) "depth 2" 2 (Epoch.Domain_slot.depth slot);
  Epoch.Domain_slot.unpin slot;
  Alcotest.(check int) "still pinned after inner unpin" 5
    (Epoch.Domain_slot.pinned_epoch slot);
  Alcotest.(check int) "two pins counted" 2 (Epoch.Domain_slot.total_pins pool);
  Alcotest.(check int) "horizon is the pin" 5 (Epoch.Domain_slot.min_pinned pool);
  Epoch.Domain_slot.unpin slot;
  Alcotest.(check int) "outermost unpin clears the slot" 0
    (Epoch.Domain_slot.pinned_epoch slot);
  Alcotest.(check int) "horizon opens" max_int
    (Epoch.Domain_slot.min_pinned pool);
  Alcotest.check_raises "unpin underflow"
    (Invalid_argument "Epoch.Domain_slot.unpin: not pinned") (fun () ->
      Epoch.Domain_slot.unpin slot)

let test_slot_pool_exhaustion_and_release () =
  let pool = Epoch.Domain_slot.create_pool ~max_readers:2 in
  let a = Epoch.Domain_slot.acquire pool in
  let _b = Epoch.Domain_slot.acquire pool in
  (match Epoch.Domain_slot.acquire pool with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "third acquire should exhaust the pool");
  let global = Atomic.make 1 in
  Epoch.Domain_slot.pin a ~global;
  Alcotest.check_raises "cannot release a pinned slot"
    (Invalid_argument "Epoch.Domain_slot.release: slot still pinned") (fun () ->
      Epoch.Domain_slot.release pool a);
  Epoch.Domain_slot.unpin a;
  Epoch.Domain_slot.release pool a;
  (* The freed slot is reusable. *)
  let c = Epoch.Domain_slot.acquire pool in
  Epoch.Domain_slot.pin c ~global;
  Alcotest.(check int) "recycled slot pins" 1
    (Epoch.Domain_slot.pinned_epoch c);
  Epoch.Domain_slot.unpin c

(* ------------------------------------------------------------------ *)
(* Core: grace periods                                                 *)

let test_core_retire_reclaim_drain () =
  let core = Epoch.Core.create ~max_readers:4 () in
  Alcotest.(check int) "epoch starts at 1" 1 (Epoch.Core.epoch core);
  let freed = Array.make 5 false in
  for i = 0 to 4 do
    Epoch.Core.retire core (fun () -> freed.(i) <- true)
  done;
  Alcotest.(check int) "all pending" 5 (Epoch.Core.pending core);
  Alcotest.(check int) "retirements counted" 5 (Epoch.Core.retirements core);
  (* No reader pinned: one reclaim frees everything. *)
  Alcotest.(check int) "reclaim frees all" 5 (Epoch.Core.reclaim core);
  Alcotest.(check bool) "free closures ran" true
    (Array.for_all (fun b -> b) freed);
  Alcotest.(check int) "nothing pending" 0 (Epoch.Core.pending core);
  Alcotest.(check int) "reclamations = retirements" 5
    (Epoch.Core.reclamations core);
  Alcotest.(check bool) "epoch advanced" true (Epoch.Core.epoch core > 1)

let test_core_pin_blocks_reclaim () =
  let core = Epoch.Core.create ~max_readers:4 () in
  let slot = Epoch.Domain_slot.acquire (Epoch.Core.pool core) in
  Epoch.Domain_slot.pin slot ~global:(Epoch.Core.global core);
  let freed = ref false in
  Epoch.Core.retire core (fun () -> freed := true);
  (* The object was retired at the pinned reader's epoch (or later),
     so no number of reclaim passes may free it. *)
  for _ = 1 to 4 do
    ignore (Epoch.Core.reclaim core)
  done;
  Alcotest.(check bool) "not freed while a reader is pinned" false !freed;
  Alcotest.(check int) "still pending" 1 (Epoch.Core.pending core);
  Epoch.Domain_slot.unpin slot;
  Epoch.Core.quiesce core;
  Alcotest.(check bool) "freed after unpin" true !freed;
  Alcotest.(check int) "drained" 0 (Epoch.Core.pending core);
  Alcotest.(check int) "every retirement reclaimed"
    (Epoch.Core.retirements core)
    (Epoch.Core.reclamations core)

(* The central safety property, as a qcheck model: interpret a random
   script of pin/unpin/retire/reclaim against one core and check,
   after every step, that no object a pinned reader could still see
   has been freed.  An object retired at stamp [s] is visible to a
   reader pinned at epoch [p] iff [s >= p] (it was still published
   when the reader pinned), so the invariant is: for every freed
   object and every currently pinned slot, [stamp < pinned_epoch]. *)
let qcheck_reclaim_never_frees_visible =
  QCheck.Test.make ~count:200
    ~name:"core: reclaim never frees what a pinned reader can see"
    QCheck.(list_of_size Gen.(0 -- 60) (0 -- 3))
    (fun script ->
      let core = Epoch.Core.create ~max_readers:4 () in
      let slots =
        Array.init 4 (fun _ -> Epoch.Domain_slot.acquire (Epoch.Core.pool core))
      in
      let next = ref 0 in
      let objects = ref [] in
      let ok = ref true in
      let invariant () =
        List.iter
          (fun (stamp, freed) ->
            if !freed then
              Array.iter
                (fun slot ->
                  let p = Epoch.Domain_slot.pinned_epoch slot in
                  if p > 0 && stamp >= p then ok := false)
                slots)
          !objects
      in
      List.iteri
        (fun i cmd ->
          let slot = slots.(i mod 4) in
          (match cmd with
          | 0 -> Epoch.Domain_slot.pin slot ~global:(Epoch.Core.global core)
          | 1 ->
            if Epoch.Domain_slot.depth slot > 0 then
              Epoch.Domain_slot.unpin slot
          | 2 ->
            let freed = ref false in
            let stamp = Epoch.Core.epoch core in
            incr next;
            objects := (stamp, freed) :: !objects;
            Epoch.Core.retire core (fun () -> freed := true)
          | _ -> ignore (Epoch.Core.reclaim core));
          invariant ())
        script;
      (* Unwind every pin, quiesce: the retire list must drain
         completely, with every retirement accounted as a
         reclamation. *)
      Array.iter
        (fun slot ->
          while Epoch.Domain_slot.depth slot > 0 do
            Epoch.Domain_slot.unpin slot
          done)
        slots;
      Epoch.Core.quiesce core;
      !ok
      && Epoch.Core.pending core = 0
      && Epoch.Core.retirements core = Epoch.Core.reclamations core
      && List.for_all (fun (_, freed) -> !freed) !objects)

(* ------------------------------------------------------------------ *)
(* Table: single-domain semantics                                      *)

module E = Epoch.Packed.Heap

let words f = (Packet.Flow.w0 f, Packet.Flow.w1 f)

let test_table_view_outlives_publishes () =
  let t = E.create () in
  for i = 0 to 6 do
    let w0, w1 = words (flow i) in
    E.replace t ~w0 ~w1 i
  done;
  let view = E.pin t in
  Alcotest.(check int) "view length at pin time" 7
    (E.view_length view);
  (* Overwrite one key and churn past a growth boundary: the live
     table changes, the pinned view must not. *)
  let w0, w1 = words (flow 3) in
  E.replace t ~w0 ~w1 300;
  for i = 7 to 40 do
    let w0, w1 = words (flow i) in
    E.replace t ~w0 ~w1 i
  done;
  Alcotest.(check (option int)) "table sees the overwrite" (Some 300)
    (E.find_opt t ~w0 ~w1);
  Alcotest.(check (option int)) "view sees the pin-time value" (Some 3)
    (E.view_find view ~w0 ~w1);
  Alcotest.(check int) "view length unchanged" 7
    (E.view_length view);
  Alcotest.(check bool) "regions backlogged behind the pin" true
    (E.pending t > 0);
  E.unpin t;
  Alcotest.check_raises "double unpin"
    (Invalid_argument "Epoch.Domain_slot.unpin: not pinned") (fun () ->
      E.unpin t);
  E.quiesce t;
  Alcotest.(check int) "backlog drains once unpinned" 0
    (E.pending t)

let test_table_batch_accounting_equals_scalar () =
  (* Mirror of the striped batch-accounting test: lookup_batch must
     charge exactly what the per-flow path charges, plus only the
     batch markers. *)
  let population = Array.init 300 flow in
  let make () =
    let t = E.create () in
    E.load t
      (Array.mapi
         (fun i f ->
           let w0, w1 = words f in
           (w0, w1, i))
         population);
    t
  in
  let rng = Numerics.Rng.create ~seed:11 in
  let burst =
    Array.init 4_096 (fun _ ->
        let i = Numerics.Rng.int rng ~bound:(300 * 8 / 7) in
        flow i)
  in
  let scalar = make () in
  let scalar_found = ref 0 in
  Array.iter
    (fun f -> if E.find_flow scalar f <> None then incr scalar_found)
    burst;
  let batched = make () in
  let batched_found = E.lookup_batch batched burst in
  Alcotest.(check int) "same hits" !scalar_found batched_found;
  let s = E.stats scalar and b = E.stats batched in
  Alcotest.(check int) "lookups" s.Demux.Lookup_stats.lookups
    b.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "pcbs_examined" s.Demux.Lookup_stats.pcbs_examined
    b.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int) "found" s.Demux.Lookup_stats.found
    b.Demux.Lookup_stats.found;
  Alcotest.(check int) "not_found" s.Demux.Lookup_stats.not_found
    b.Demux.Lookup_stats.not_found;
  Alcotest.(check int) "scalar path has no batches" 0
    s.Demux.Lookup_stats.batches;
  Alcotest.(check bool) "batched path marked batches" true
    (b.Demux.Lookup_stats.batches > 0)

(* ------------------------------------------------------------------ *)
(* The read-path guarantees E33 leans on                               *)

let measure_minor_words iterations f =
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    f ()
  done;
  Gc.minor_words () -. before

let test_warm_lookup_zero_alloc () =
  let t = E.create () in
  E.load t
    (Array.init 256 (fun i ->
         let w0, w1 = words (flow i) in
         (w0, w1, i)));
  let w0, w1 = words (flow 17) in
  (* Warm: registers this domain's reader slot and faults code in. *)
  ignore (E.get t ~w0 ~w1 ~default:(-1));
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (E.get t ~w0 ~w1 ~default:(-1));
        ignore (E.mem t ~w0 ~w1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "epoch lookup allocates nothing (minor-words delta %.0f)"
       delta)
    true (delta <= 64.0)

let test_warm_read_phase_takes_no_mutex () =
  let t = E.create () in
  E.load t
    (Array.init 256 (fun i ->
         let w0, w1 = words (flow i) in
         (w0, w1, i)));
  (* Warm: the one-time reader registration is the last mutex the read
     path may ever take. *)
  let w0, w1 = words (flow 0) in
  ignore (E.mem t ~w0 ~w1);
  let before = E.lock_acquisitions t in
  for i = 0 to 9_999 do
    let w0, w1 = words (flow (i land 255)) in
    ignore (E.mem t ~w0 ~w1)
  done;
  Alcotest.(check int) "zero mutex acquisitions across 10k lookups" before
    (E.lock_acquisitions t);
  Alcotest.(check bool) "the counter is live, not vacuous" true (before > 0)

(* ------------------------------------------------------------------ *)
(* 4-domain reader/writer stress across mid-run growth                 *)

let test_four_domain_stress_mid_run_growth (module E : Epoch.Packed.S) () =
  (* The concurrent half of the grace-period story, shaped like
     [Fault.Chaos.Mid_run_growth]: an insert-heavy script over a large
     distinct-flow population drives the table across every growth
     boundary while readers run.  One writer domain inserts flows
     [0..2047] (payload = index) and removes every 16th along the way;
     three reader domains hammer [find_flow] throughout.  A flow's
     payload is only ever its index, so any hit with a different
     payload is a use-after-reclaim (or torn read) anomaly. *)
  let total = 2_048 in
  let t = E.create () in
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          let w0, w1 = words (flow i) in
          E.replace t ~w0 ~w1 i;
          if i mod 16 = 15 then begin
            let w0, w1 = words (flow (i - 8)) in
            E.remove t ~w0 ~w1
          end
        done;
        Atomic.set done_ true)
  in
  let readers =
    List.init 3 (fun r ->
        Domain.spawn (fun () ->
            let rng = Numerics.Rng.create ~seed:(100 + r) in
            let anomalies = ref 0 and hits = ref 0 in
            while not (Atomic.get done_) do
              let i = Numerics.Rng.int rng ~bound:total in
              match E.find_flow t (flow i) with
              | Some v ->
                incr hits;
                if v <> i then incr anomalies
              | None -> ()
            done;
            (!hits, !anomalies)))
  in
  Domain.join writer;
  let hits, anomalies =
    List.fold_left
      (fun (h, a) d ->
        let h', a' = Domain.join d in
        (h + h', a + a'))
      (0, 0) readers
  in
  Alcotest.(check int) "no stale or torn reads" 0 anomalies;
  Alcotest.(check bool) "readers actually overlapped the writer" true
    (hits > 0);
  (* End state: every flow except the removed ones (index = 7 mod 16)
     is resident with its own index as payload. *)
  let expected_population = total - (total / 16) in
  Alcotest.(check int) "final population" expected_population
    (E.length t);
  for i = 0 to total - 1 do
    let expected = if i mod 16 = 7 then None else Some i in
    let w0, w1 = words (flow i) in
    if E.find_opt t ~w0 ~w1 <> expected then
      Alcotest.fail (Printf.sprintf "flow %d has the wrong final binding" i)
  done;
  Alcotest.(check bool) "crossed every growth boundary" true
    (E.capacity t >= 4_096);
  (* Accounting identities survive the concurrency. *)
  let stats = E.stats t in
  Alcotest.(check int) "found + not_found = lookups"
    stats.Demux.Lookup_stats.lookups
    (stats.Demux.Lookup_stats.found + stats.Demux.Lookup_stats.not_found);
  Alcotest.(check int) "inserts" total stats.Demux.Lookup_stats.inserts;
  Alcotest.(check int) "removes" (total / 16)
    stats.Demux.Lookup_stats.removes;
  (* And the grace periods drain. *)
  E.quiesce t;
  Alcotest.(check int) "retire backlog empty" 0 (E.pending t);
  let core = E.core t in
  Alcotest.(check int) "every retirement reclaimed"
    (Epoch.Core.retirements core)
    (Epoch.Core.reclamations core)

(* ------------------------------------------------------------------ *)
(* Dispatcher over the epoch table                                     *)

let test_dispatcher_over_epoch_table (module E : Epoch.Packed.S) () =
  (* The pipeline integration: shard-time hashes feed
     [lookup_batch_keyed] directly ([Throughput.hash] is the table's
     default hash), and the lossless run conserves every packet. *)
  let population = Array.init 200 flow in
  let t = E.create () in
  E.load t
    (Array.mapi
       (fun i f ->
         let w0, w1 = words f in
         (w0, w1, i))
       population);
  let rng = Numerics.Rng.create ~seed:3 in
  let stream =
    Array.init 5_000 (fun _ -> flow (Numerics.Rng.int rng ~bound:250))
  in
  let expected_found =
    Array.fold_left
      (fun n f -> if E.find_flow t f <> None then n + 1 else n)
      0 stream
  in
  let result =
    Parallel.Dispatcher.run ~workers:3 ~batch:16
      ~hash:Parallel.Throughput.hash
      ~consume:(fun _ batch ~hashes -> E.lookup_batch_keyed t batch ~hashes)
      stream
  in
  Alcotest.(check int) "all packets offered" 5_000
    result.Parallel.Dispatcher.packets;
  Alcotest.(check int) "all packets delivered" 5_000
    (Array.fold_left ( + ) 0 result.Parallel.Dispatcher.per_worker_packets);
  Alcotest.(check int) "found matches sequential" expected_found
    result.Parallel.Dispatcher.found;
  Alcotest.(check int) "lossless" 0 (Parallel.Dispatcher.lost_packets result);
  E.quiesce t;
  Alcotest.(check int) "drained after the run" 0 (E.pending t)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let test_register_obs () =
  let obs = Obs.Registry.create () in
  let t = E.create () in
  E.register_obs obs t;
  for i = 0 to 40 do
    let w0, w1 = words (flow i) in
    E.replace t ~w0 ~w1 i
  done;
  for i = 0 to 99 do
    ignore (E.find_flow t (flow (i mod 50)))
  done;
  E.quiesce t;
  let metrics = Obs.Registry.snapshot obs in
  let value name =
    match Obs.Registry.find metrics name with
    | Some { Obs.Registry.data = Obs.Registry.Counter n; _ } -> n
    | Some { Obs.Registry.data = Obs.Registry.Gauge n; _ } -> int_of_float n
    | _ -> Alcotest.fail ("missing metric " ^ name)
  in
  Alcotest.(check int) "lookups" 100 (value "epoch.packed.lookups");
  Alcotest.(check int) "inserts" 41 (value "epoch.packed.inserts");
  Alcotest.(check int) "resident" 41 (value "epoch.packed.resident");
  Alcotest.(check int) "pending drained" 0 (value "epoch.packed.pending");
  Alcotest.(check bool) "pins counted" true (value "epoch.packed.pins" > 0);
  Alcotest.(check int) "retirements all reclaimed"
    (value "epoch.packed.retirements")
    (value "epoch.packed.reclamations");
  Alcotest.(check bool) "publishes counted" true
    (value "epoch.packed.publishes" >= 41);
  Alcotest.(check bool) "bytes reported" true (value "epoch.packed.bytes" > 0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "epoch"
    [ ( "slot",
        [ quick "pin nesting keeps the outer epoch" test_slot_pin_nesting;
          quick "pool exhaustion and release"
            test_slot_pool_exhaustion_and_release ] );
      ( "core",
        [ quick "retire/reclaim drains when unpinned"
            test_core_retire_reclaim_drain;
          quick "a pinned reader blocks reclamation"
            test_core_pin_blocks_reclaim;
          QCheck_alcotest.to_alcotest qcheck_reclaim_never_frees_visible ] );
      ( "table",
        [ quick "pinned view outlives publishes"
            test_table_view_outlives_publishes;
          quick "batch accounting equals scalar"
            test_table_batch_accounting_equals_scalar ] );
      ( "read-path",
        [ quick "warm lookup allocates zero minor words"
            test_warm_lookup_zero_alloc;
          quick "warm read phase takes no mutex"
            test_warm_read_phase_takes_no_mutex ] );
      ( "stress",
        [ quick "4-domain readers across mid-run growth"
            (test_four_domain_stress_mid_run_growth (module Epoch.Packed.Heap));
          quick "4-domain readers across mid-run growth (offheap)"
            (test_four_domain_stress_mid_run_growth
               (module Epoch.Packed.Offheap)) ] );
      ( "pipeline",
        [ quick "dispatcher over the epoch table"
            (test_dispatcher_over_epoch_table (module Epoch.Packed.Heap));
          quick "dispatcher over the epoch table (offheap)"
            (test_dispatcher_over_epoch_table
               (module Epoch.Packed.Offheap)) ] );
      ( "obs",
        [ quick "registered metrics" test_register_obs ] ) ]
