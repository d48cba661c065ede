(* Tests for the multicore demultiplexers: functional agreement with
   the sequential algorithms, and safety under concurrent use. *)

let flow i = Sim.Topology.flow_of_client i
let flows n = Array.init n flow

(* ------------------------------------------------------------------ *)
(* Single-domain functional behaviour                                  *)

let test_striped_agrees_with_sequent () =
  (* Same algorithm, same accounting: a fixed lookup sequence produces
     identical examined counts on Striped and on Demux.Sequent. *)
  let population = flows 300 in
  let striped = Parallel.Striped.create ~chains:19 () in
  let sequential =
    Demux.Sequent.create ~chains:19 ~hasher:Hashing.Hashers.multiplicative ()
  in
  Array.iter
    (fun f ->
      ignore (Parallel.Striped.insert striped f ());
      ignore (Demux.Sequent.insert sequential f ()))
    population;
  let rng = Numerics.Rng.create ~seed:7 in
  for _ = 1 to 3000 do
    let f = population.(Numerics.Rng.int rng ~bound:300) in
    (match (Parallel.Striped.lookup striped f, Demux.Sequent.lookup sequential f) with
    | Some a, Some b ->
      if not (Packet.Flow.equal a.Demux.Pcb.flow b.Demux.Pcb.flow) then
        Alcotest.fail "diverged"
    | _ -> Alcotest.fail "lookup failed")
  done;
  let striped_stats = Parallel.Striped.stats striped in
  let sequential_stats =
    Demux.Lookup_stats.snapshot (Demux.Sequent.stats sequential)
  in
  Alcotest.(check int)
    "identical examined counts"
    sequential_stats.Demux.Lookup_stats.pcbs_examined
    striped_stats.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int)
    "identical cache hits" sequential_stats.Demux.Lookup_stats.cache_hits
    striped_stats.Demux.Lookup_stats.cache_hits

let test_striped_basics () =
  let d = Parallel.Striped.create ~chains:7 () in
  Alcotest.(check int) "chains" 7 (Parallel.Striped.chains d);
  ignore (Parallel.Striped.insert d (flow 1) ());
  (match Parallel.Striped.insert d (flow 1) () with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "length" 1 (Parallel.Striped.length d);
  Alcotest.(check bool) "found" true (Parallel.Striped.lookup d (flow 1) <> None);
  Alcotest.(check bool) "absent" true (Parallel.Striped.lookup d (flow 2) = None);
  Parallel.Striped.note_send d (flow 1);
  Alcotest.(check bool) "removed" true (Parallel.Striped.remove d (flow 1) <> None);
  Alcotest.(check bool) "remove absent" true (Parallel.Striped.remove d (flow 1) = None);
  Alcotest.(check int) "empty" 0 (Parallel.Striped.length d)

let test_coarse_wrapper () =
  let d = Parallel.Coarse.create Demux.Registry.Bsd in
  Alcotest.(check string) "name" "coarse:bsd" (Parallel.Coarse.name d);
  ignore (Parallel.Coarse.insert d (flow 3) ());
  Alcotest.(check bool) "found" true (Parallel.Coarse.lookup d (flow 3) <> None);
  Parallel.Coarse.note_send d (flow 3);
  let stats = Parallel.Coarse.stats d in
  Alcotest.(check int) "lookups" 1 stats.Demux.Lookup_stats.lookups;
  Alcotest.(check bool) "removed" true (Parallel.Coarse.remove d (flow 3) <> None);
  Alcotest.(check int) "length" 0 (Parallel.Coarse.length d)

(* ------------------------------------------------------------------ *)
(* Concurrency                                                         *)

let test_concurrent_disjoint_writers () =
  (* Each domain owns a disjoint key range and hammers insert/remove;
     a shared read-only range is looked up by everyone.  Afterwards
     the table must contain exactly the shared range plus whatever
     each domain left behind. *)
  let d = Parallel.Striped.create ~chains:19 () in
  let shared = 100 in
  for i = 0 to shared - 1 do
    ignore (Parallel.Striped.insert d (flow i) ())
  done;
  let writers = 4 in
  let keys_per_writer = 50 in
  let iterations = 500 in
  let workers =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            let base = shared + (w * keys_per_writer) in
            let rng = Numerics.Rng.create ~seed:(100 + w) in
            for _ = 1 to iterations do
              (* Private churn. *)
              let k = base + Numerics.Rng.int rng ~bound:keys_per_writer in
              (match Parallel.Striped.lookup d (flow k) with
              | Some _ -> ignore (Parallel.Striped.remove d (flow k))
              | None -> (
                try ignore (Parallel.Striped.insert d (flow k) ())
                with Invalid_argument _ ->
                  (* Impossible: the range is private. *)
                  Alcotest.fail "phantom duplicate"));
              (* Shared reads. *)
              let s = Numerics.Rng.int rng ~bound:shared in
              if Parallel.Striped.lookup d (flow s) = None then
                Alcotest.fail "shared key vanished"
            done;
            (* Leave the private range in a known state: all present. *)
            for k = base to base + keys_per_writer - 1 do
              if Parallel.Striped.lookup d (flow k) = None then
                ignore (Parallel.Striped.insert d (flow k) ())
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int)
    "final population" (shared + (writers * keys_per_writer))
    (Parallel.Striped.length d);
  for i = 0 to shared + (writers * keys_per_writer) - 1 do
    if Parallel.Striped.lookup d (flow i) = None then
      Alcotest.failf "key %d missing after join" i
  done

let test_concurrent_lookups_return_right_pcb () =
  (* Pure readers from several domains must always get the PCB whose
     flow matches the query — no torn reads through the caches. *)
  let d = Parallel.Striped.create ~chains:19 () in
  let population = flows 500 in
  Array.iter (fun f -> ignore (Parallel.Striped.insert d f ())) population;
  let failures = Atomic.make 0 in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let rng = Numerics.Rng.create ~seed:(w + 1) in
            for _ = 1 to 20_000 do
              let f = population.(Numerics.Rng.int rng ~bound:500) in
              match Parallel.Striped.lookup d f with
              | Some pcb ->
                if not (Packet.Flow.equal pcb.Demux.Pcb.flow f) then
                  Atomic.incr failures
              | None -> Atomic.incr failures
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no wrong answers" 0 (Atomic.get failures);
  let stats = Parallel.Striped.stats d in
  Alcotest.(check int) "all lookups counted" 80_000
    stats.Demux.Lookup_stats.lookups

let test_coarse_concurrent_safety () =
  let d = Parallel.Coarse.create Demux.Registry.Bsd in
  let population = flows 200 in
  Array.iter (fun f -> ignore (Parallel.Coarse.insert d f ())) population;
  let failures = Atomic.make 0 in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let rng = Numerics.Rng.create ~seed:(w + 9) in
            for _ = 1 to 5_000 do
              let f = population.(Numerics.Rng.int rng ~bound:200) in
              match Parallel.Coarse.lookup d f with
              | Some pcb ->
                if not (Packet.Flow.equal pcb.Demux.Pcb.flow f) then
                  Atomic.incr failures
              | None -> Atomic.incr failures
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no wrong answers" 0 (Atomic.get failures);
  Alcotest.(check int) "all lookups counted" 20_000
    (Parallel.Coarse.stats d).Demux.Lookup_stats.lookups

(* ------------------------------------------------------------------ *)
(* Batched operations                                                  *)

let test_lookup_batch_matches_per_packet () =
  (* Same flows, same order: the batch API must find exactly what
     per-packet lookups find, and charge identical examined counts
     (plus the batch counters). *)
  let population = flows 300 in
  let batched = Parallel.Striped.create ~chains:19 () in
  let plain = Parallel.Striped.create ~chains:19 () in
  Array.iter
    (fun f ->
      ignore (Parallel.Striped.insert batched f ());
      ignore (Parallel.Striped.insert plain f ()))
    population;
  let rng = Numerics.Rng.create ~seed:11 in
  let burst =
    Array.init 256 (fun _ ->
        (* Mix hits and guaranteed misses. *)
        let i = Numerics.Rng.int rng ~bound:400 in
        flow i)
  in
  let found_batch = Parallel.Striped.lookup_batch batched burst in
  let found_plain =
    Array.fold_left
      (fun n f ->
        if Parallel.Striped.lookup plain f <> None then n + 1 else n)
      0 burst
  in
  Alcotest.(check int) "same found count" found_plain found_batch;
  let sb = Parallel.Striped.stats batched in
  let sp = Parallel.Striped.stats plain in
  Alcotest.(check int) "same lookups" sp.Demux.Lookup_stats.lookups
    sb.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "same examined" sp.Demux.Lookup_stats.pcbs_examined
    sb.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int) "same found" sp.Demux.Lookup_stats.found
    sb.Demux.Lookup_stats.found;
  Alcotest.(check bool) "batches counted" true
    (sb.Demux.Lookup_stats.batches > 0);
  Alcotest.(check int) "plain saw no batches" 0 sp.Demux.Lookup_stats.batches;
  Alcotest.(check int) "empty batch" 0
    (Parallel.Striped.lookup_batch batched [||])

let test_insert_batch () =
  let d = Parallel.Striped.create ~chains:7 () in
  let entries = Array.init 50 (fun i -> (flow i, i)) in
  let pcbs = Parallel.Striped.insert_batch d entries in
  Alcotest.(check int) "all inserted" 50 (Parallel.Striped.length d);
  Array.iteri
    (fun i pcb ->
      if not (Packet.Flow.equal pcb.Demux.Pcb.flow (flow i)) then
        Alcotest.failf "pcb %d out of order" i)
    pcbs;
  (match Parallel.Striped.insert_batch d [| (flow 0, 99) |] with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ());
  let found = Parallel.Striped.lookup_batch d (Array.map fst entries) in
  Alcotest.(check int) "all findable" 50 found

let test_coarse_batch () =
  let d = Parallel.Coarse.create Demux.Registry.Bsd in
  let entries = Array.init 40 (fun i -> (flow i, ())) in
  ignore (Parallel.Coarse.insert_batch d entries);
  Alcotest.(check int) "inserted" 40 (Parallel.Coarse.length d);
  let burst = Array.init 80 (fun i -> flow i) in
  Alcotest.(check int) "half found" 40 (Parallel.Coarse.lookup_batch d burst);
  Alcotest.(check bool) "batches counted" true
    ((Parallel.Coarse.stats d).Demux.Lookup_stats.batches >= 2)

(* ------------------------------------------------------------------ *)
(* SPSC ring                                                           *)

let test_ring_basics () =
  let ring = Parallel.Ring.create ~capacity:3 in
  (* Capacity rounds up to a power of two. *)
  Alcotest.(check int) "capacity" 4 (Parallel.Ring.capacity ring);
  Alcotest.(check bool) "empty" true (Parallel.Ring.is_empty ring);
  Alcotest.(check bool) "pop empty" true (Parallel.Ring.try_pop ring = None);
  for i = 1 to 4 do
    Alcotest.(check bool) "push" true (Parallel.Ring.try_push ring i)
  done;
  Alcotest.(check bool) "full" false (Parallel.Ring.try_push ring 5);
  Alcotest.(check int) "length" 4 (Parallel.Ring.length ring);
  Alcotest.(check bool) "fifo" true (Parallel.Ring.try_pop ring = Some 1);
  Alcotest.(check bool) "room again" true (Parallel.Ring.try_push ring 5);
  (* A limit makes the ring full at that many elements. *)
  Alcotest.(check bool) "pop" true (Parallel.Ring.try_pop ring = Some 2);
  Alcotest.(check bool) "full at the limit" false
    (Parallel.Ring.try_push ~limit:3 ring 6);
  Alcotest.(check bool) "room under the capacity" true
    (Parallel.Ring.try_push ~limit:4 ring 6);
  (* Close: pushes refused, pops drain what is left. *)
  Parallel.Ring.close ring;
  Alcotest.(check bool) "closed" true (Parallel.Ring.is_closed ring);
  (match Parallel.Ring.try_push ring 7 with
  | _ -> Alcotest.fail "push after close accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int)) "drains in order" [ 3; 4; 5; 6 ]
    (List.filter_map
       (fun _ -> Parallel.Ring.try_pop ring)
       [ (); (); (); () ]);
  Alcotest.(check bool) "drained" true (Parallel.Ring.try_pop ring = None);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity <= 0") (fun () ->
      ignore (Parallel.Ring.create ~capacity:0))

let test_ring_spsc_transfer () =
  (* One producer domain, one consumer domain, every value delivered
     exactly once and in order — including values pushed right before
     close (the drain-after-close protocol). *)
  let ring = Parallel.Ring.create ~capacity:8 in
  let total = 50_000 in
  let consumer =
    Domain.spawn (fun () ->
        let received = ref [] and count = ref 0 and expected = ref 0 in
        let consume v =
          if v <> !expected then received := v :: !received;
          incr expected;
          incr count
        in
        let rec drain () =
          match Parallel.Ring.try_pop ring with
          | Some v -> consume v; drain ()
          | None -> ()
        in
        let rec loop () =
          match Parallel.Ring.try_pop ring with
          | Some v -> consume v; loop ()
          | None ->
            if Parallel.Ring.is_closed ring then drain ()
            else begin
              Domain.cpu_relax ();
              loop ()
            end
        in
        loop ();
        (!count, !received))
  in
  for i = 0 to total - 1 do
    while not (Parallel.Ring.try_push ring i) do
      Domain.cpu_relax ()
    done
  done;
  Parallel.Ring.close ring;
  let count, out_of_order = Domain.join consumer in
  Alcotest.(check int) "every push popped" total count;
  Alcotest.(check (list int)) "in order" [] out_of_order

let test_ring_produce_close_race () =
  (* Property: over seeded rounds whose capacity, stream length and
     consumer pacing vary where [close] lands relative to the
     consumer's progress, the documented drain-after-close protocol
     (ring.mli) delivers every element exactly once and in order —
     and a push after close raises.  Each round runs two consumers:
     the protocol written out by hand, and [Ring.drain], paced by a
     delay per element.  [delivered] counts the in-order prefix, so a
     lost element shows as a short count and a duplicated or
     reordered one as [disorder > 0]. *)
  let hand_written ring consume ~jitter =
    let rec drain () =
      match Parallel.Ring.try_pop ring with
      | Some v -> consume v; drain ()
      | None -> ()
    in
    let rec loop () =
      match Parallel.Ring.try_pop ring with
      | Some v -> consume v; loop ()
      | None ->
        if Parallel.Ring.is_closed ring then drain ()
        else begin
          for _ = 0 to jitter do Domain.cpu_relax () done;
          loop ()
        end
    in
    loop ()
  in
  let with_drain ring consume ~jitter =
    Parallel.Ring.drain ring (fun v ->
        consume v;
        for _ = 1 to jitter do Domain.cpu_relax () done)
  in
  for round = 0 to 24 do
    List.iter
      (fun (name, consumer) ->
        let rng = Random.State.make [| 0xC105E; round |] in
        let capacity = 1 lsl Random.State.int rng 4 in
        let total = 1 + Random.State.int rng 400 in
        let jitter = Random.State.int rng 3 in
        let ring = Parallel.Ring.create ~capacity in
        let consumer =
          Domain.spawn (fun () ->
              let next = ref 0 and disorder = ref 0 in
              let consume v =
                if v = !next then incr next else incr disorder
              in
              consumer ring consume ~jitter;
              (!next, !disorder))
        in
        for i = 0 to total - 1 do
          while not (Parallel.Ring.try_push ring i) do
            Domain.cpu_relax ()
          done
        done;
        Parallel.Ring.close ring;
        (match Parallel.Ring.try_push ring total with
        | _ -> Alcotest.fail "push after close accepted"
        | exception Invalid_argument _ -> ());
        let delivered, disorder = Domain.join consumer in
        Alcotest.(check int)
          (Printf.sprintf "round %d, %s: every element, in order" round name)
          total delivered;
        Alcotest.(check int)
          (Printf.sprintf "round %d, %s: no duplicate or reordered element"
             round name)
          0 disorder)
      [ ("hand-written", hand_written); ("drain", with_drain) ]
  done

let test_ring_blocking_push () =
  (* [push] returns at once while there is room; on a full ring it
     calls [spin] until a slot frees, then lands the value behind the
     ones already queued.  Here [spin] itself frees the slot on its
     third call. *)
  let ring = Parallel.Ring.create ~capacity:2 in
  let no_spin () = Alcotest.fail "spin called with room in the ring" in
  Parallel.Ring.push ~spin:no_spin ring 1;
  Parallel.Ring.push ~spin:no_spin ring 2;
  let spins = ref 0 and popped = ref [] in
  Parallel.Ring.push ring 3 ~spin:(fun () ->
      incr spins;
      if !spins = 3 then
        popped := Option.to_list (Parallel.Ring.try_pop ring));
  Alcotest.(check int) "spun until a slot freed" 3 !spins;
  Alcotest.(check (list int)) "spin freed the oldest" [ 1 ] !popped;
  Alcotest.(check (list int)) "landed behind the queue" [ 2; 3 ]
    (List.filter_map (fun _ -> Parallel.Ring.try_pop ring) [ (); (); () ])

(* ------------------------------------------------------------------ *)
(* Pressure controller                                                 *)

let check_tier label expected p =
  Alcotest.(check string) label
    (Parallel.Pressure.tier_name expected)
    (Parallel.Pressure.tier_name (Parallel.Pressure.tier p))

let test_pressure_hysteresis () =
  let config = Parallel.Pressure.config ~trip:3 ~hold:2 () in
  let p = Parallel.Pressure.create ~config () in
  (* Default watermarks: hot at >= 75% occupancy, calm at <= 25%,
     neutral in between. *)
  let hot () = Parallel.Pressure.note_ring_depth p ~depth:8 ~capacity:8 in
  let calm () = Parallel.Pressure.note_ring_depth p ~depth:0 ~capacity:8 in
  let mid () = Parallel.Pressure.note_ring_depth p ~depth:4 ~capacity:8 in
  check_tier "fresh controller is Normal" Parallel.Pressure.Normal p;
  hot ();
  hot ();
  check_tier "two hots under trip=3 hold" Parallel.Pressure.Normal p;
  mid ();
  hot ();
  hot ();
  check_tier "neutral resets the hot streak" Parallel.Pressure.Normal p;
  hot ();
  check_tier "third consecutive hot escalates" Parallel.Pressure.Shed_new_flows
    p;
  hot ();
  hot ();
  hot ();
  check_tier "streaks escalate one tier each" Parallel.Pressure.Drop_batches p;
  calm ();
  mid ();
  calm ();
  check_tier "neutral resets the calm streak too" Parallel.Pressure.Drop_batches
    p;
  calm ();
  check_tier "hold=2 calm observations recover one tier"
    Parallel.Pressure.Shed_new_flows p;
  calm ();
  calm ();
  check_tier "recovery steps tier by tier" Parallel.Pressure.Normal p;
  Alcotest.(check int) "every sample counted" 15
    (Parallel.Pressure.observations p)

let test_pressure_insert_latency_watermark () =
  let config = Parallel.Pressure.config ~trip:1 ~hold:1 () in
  let p = Parallel.Pressure.create ~config () in
  (* Default latency watermarks: hot at >= 50_000 ns, calm at <=
     5_000 ns. *)
  Parallel.Pressure.note_insert_ns p 60_000;
  check_tier "slow insert escalates" Parallel.Pressure.Shed_new_flows p;
  Parallel.Pressure.note_insert_ns p 20_000;
  check_tier "between watermarks holds" Parallel.Pressure.Shed_new_flows p;
  Parallel.Pressure.note_insert_ns p 1_000;
  check_tier "fast insert recovers" Parallel.Pressure.Normal p

let test_pressure_force_and_counters () =
  let config = Parallel.Pressure.config ~trip:1 ~hold:1 () in
  let p = Parallel.Pressure.create ~config () in
  Parallel.Pressure.force p Parallel.Pressure.Reject;
  check_tier "forced" Parallel.Pressure.Reject p;
  Alcotest.(check bool) "rejecting" true (Parallel.Pressure.rejecting p);
  Alcotest.(check bool) "drops batches" true
    (Parallel.Pressure.drops_batches p);
  Alcotest.(check bool) "sheds new flows" false
    (Parallel.Pressure.admits_new_flows p);
  for _ = 1 to 20 do
    Parallel.Pressure.note_ring_depth p ~depth:0 ~capacity:8
  done;
  check_tier "observations ignored while forced" Parallel.Pressure.Reject p;
  Parallel.Pressure.note_shed_flow p;
  Parallel.Pressure.note_dropped_batch p ~packets:3;
  Parallel.Pressure.note_rejected p ~packets:7;
  Alcotest.(check int) "shed flows" 1 (Parallel.Pressure.shed_flows p);
  Alcotest.(check int) "dropped batches" 1
    (Parallel.Pressure.dropped_batches p);
  Alcotest.(check int) "dropped batch packets" 3
    (Parallel.Pressure.dropped_batch_packets p);
  Alcotest.(check int) "rejected packets" 7
    (Parallel.Pressure.rejected_packets p);
  Alcotest.(check (list (pair string int))) "counters keyed by tier"
    [ ("shed-new-flows", 1); ("drop-batches", 3); ("reject", 7) ]
    (Parallel.Pressure.counters p);
  Parallel.Pressure.release p;
  Parallel.Pressure.note_ring_depth p ~depth:0 ~capacity:8;
  check_tier "released: recovery resumes from Reject"
    Parallel.Pressure.Drop_batches p;
  Parallel.Pressure.note_ring_depth p ~depth:0 ~capacity:8;
  Parallel.Pressure.note_ring_depth p ~depth:0 ~capacity:8;
  check_tier "all the way back down" Parallel.Pressure.Normal p;
  (* Entries into each tier: Normal once more at the end, Reject once
     (the force), and each intermediate tier once on the way down. *)
  Alcotest.(check (list (pair string int))) "transitions"
    [ ("normal", 1); ("shed-new-flows", 1); ("drop-batches", 1);
      ("reject", 1) ]
    (Parallel.Pressure.transitions p)

(* The tier policy, offer by offer, on one domain: the ring is the
   dispatcher's, and the test plays its consumer. *)
let test_dispatcher_under_pressure () =
  let offered =
    Alcotest.testable
      (fun ppf o ->
        Format.pp_print_string ppf
          (match o with
          | Parallel.Dispatcher.Shipped -> "Shipped"
          | Rejected -> "Rejected"
          | Dropped -> "Dropped"))
      ( = )
  in
  let offer ?pressure ?spin ?limit ring value =
    Parallel.Dispatcher.offer ?pressure ?spin ?limit ring value ~packets:8
  in
  (* Forced Reject: the batch is refused before the ring is tried, and
     charged to the controller; the ring is still sampled. *)
  let p = Parallel.Pressure.create () in
  Parallel.Pressure.force p Parallel.Pressure.Reject;
  let ring = Parallel.Ring.create ~capacity:4 in
  let observed = Parallel.Pressure.observations p in
  Alcotest.check offered "refused at Reject" Parallel.Dispatcher.Rejected
    (offer ~pressure:p ring 1);
  Alcotest.check offered "refused again" Parallel.Dispatcher.Rejected
    (offer ~pressure:p ring 2);
  Alcotest.(check int) "nothing reached the ring" 0
    (Parallel.Ring.length ring);
  Alcotest.(check int) "note_rejected charged every packet" 16
    (Parallel.Pressure.rejected_packets p);
  Alcotest.(check int) "every refusal sampled the ring" (observed + 2)
    (Parallel.Pressure.observations p);
  Alcotest.(check int) "nothing dropped" 0
    (Parallel.Pressure.dropped_batch_packets p);
  (* Forced Drop_batches: a batch ships while the ring has room and is
     dropped once it is full, counted as one dropped batch. *)
  let p = Parallel.Pressure.create () in
  Parallel.Pressure.force p Parallel.Pressure.Drop_batches;
  let ring = Parallel.Ring.create ~capacity:2 in
  Alcotest.check offered "room: shipped" Parallel.Dispatcher.Shipped
    (offer ~pressure:p ring 1);
  Alcotest.check offered "room: shipped" Parallel.Dispatcher.Shipped
    (offer ~pressure:p ring 2);
  Alcotest.check offered "full ring: dropped" Parallel.Dispatcher.Dropped
    (offer ~pressure:p ring 3);
  Alcotest.(check int) "ring unchanged by the drop" 2
    (Parallel.Ring.length ring);
  Alcotest.(check int) "note_dropped_batch charged the batch" 8
    (Parallel.Pressure.dropped_batch_packets p);
  Alcotest.(check int) "one dropped batch" 1
    (Parallel.Pressure.dropped_batches p);
  Alcotest.(check int) "nothing refused" 0
    (Parallel.Pressure.rejected_packets p);
  (* [limit] makes the ring full early. *)
  let ring = Parallel.Ring.create ~capacity:4 in
  Alcotest.check offered "under the limit: shipped" Parallel.Dispatcher.Shipped
    (offer ~pressure:p ~limit:1 ring 1);
  Alcotest.check offered "at the limit: dropped" Parallel.Dispatcher.Dropped
    (offer ~pressure:p ~limit:1 ring 2);
  (* Normal: a full ring is backpressure.  The offer spins until the
     consumer frees a slot, then ships; nothing is charged. *)
  let p = Parallel.Pressure.create () in
  Parallel.Pressure.force p Parallel.Pressure.Normal;
  let ring = Parallel.Ring.create ~capacity:2 in
  Alcotest.check offered "normal: shipped" Parallel.Dispatcher.Shipped
    (offer ~pressure:p ring 1);
  Alcotest.check offered "normal: shipped" Parallel.Dispatcher.Shipped
    (offer ~pressure:p ring 2);
  let popped = ref [] in
  let spin () =
    match Parallel.Ring.try_pop ring with
    | Some v -> popped := v :: !popped
    | None -> ()
  in
  Alcotest.check offered "full ring at Normal: shipped after a pop"
    Parallel.Dispatcher.Shipped
    (offer ~pressure:p ~spin ring 3);
  Alcotest.(check (list int)) "the consumer freed one slot" [ 1 ] !popped;
  Alcotest.(check (list (option int))) "ring order kept"
    [ Some 2; Some 3; None ]
    (List.init 3 (fun _ -> Parallel.Ring.try_pop ring));
  Alcotest.(check (list (pair string int))) "nothing charged at Normal"
    [ ("shed-new-flows", 0); ("drop-batches", 0); ("reject", 0) ]
    (Parallel.Pressure.counters p);
  (* Without a controller every offer ships. *)
  let ring = Parallel.Ring.create ~capacity:1 in
  Alcotest.check offered "no controller: shipped" Parallel.Dispatcher.Shipped
    (offer ring 1)

(* ------------------------------------------------------------------ *)
(* Throughput harness                                                  *)

let test_throughput_smoke () =
  let result =
    Parallel.Throughput.run ~connections:200 ~lookups_per_domain:20_000
      ~domains:2 (Parallel.Throughput.Striped 19)
  in
  Alcotest.(check string) "target" "striped:sequent-19" result.Parallel.Throughput.target;
  Alcotest.(check int) "total" 40_000 result.Parallel.Throughput.total_lookups;
  Alcotest.(check int) "per-packet mode" 1 result.Parallel.Throughput.batch;
  Alcotest.(check bool) "positive rate" true
    (result.Parallel.Throughput.lookups_per_second > 0.0);
  Alcotest.(check bool) "elapsed is positive" true
    (result.Parallel.Throughput.elapsed_seconds > 0.0);
  let bsd = Parallel.Throughput.Coarse Demux.Registry.Bsd in
  List.iter
    (fun (label, message, run) ->
      Alcotest.check_raises label (Invalid_argument message) (fun () ->
          ignore (run ())))
    [ ("domains 0", "Throughput.run: domains <= 0",
       fun () -> Parallel.Throughput.run ~domains:0 bsd);
      ("batch 0", "Throughput.run: batch <= 0",
       fun () -> Parallel.Throughput.run ~domains:1 ~batch:0 bsd);
      ("connections 0", "Throughput.run: connections <= 0",
       fun () -> Parallel.Throughput.run ~domains:1 ~connections:0 bsd);
      ("connections -5", "Throughput.run: connections <= 0",
       fun () -> Parallel.Throughput.run ~domains:1 ~connections:(-5) bsd);
      ("lookups 0", "Throughput.run: lookups_per_domain <= 0",
       fun () -> Parallel.Throughput.run ~domains:1 ~lookups_per_domain:0 bsd);
      ("lookups -3", "Throughput.run: lookups_per_domain <= 0",
       fun () ->
         Parallel.Throughput.run ~domains:1 ~lookups_per_domain:(-3) bsd) ]

(* Names round-trip for every target, including a coarse wrapper
   around each of the paper's algorithms; removed or malformed names
   are refused with the list of valid forms. *)
let test_target_names () =
  let targets =
    List.map (fun spec -> Parallel.Throughput.Coarse spec)
      Demux.Registry.default_specs
    @ Parallel.Throughput.[ Striped 19; Striped 100; Epoch ]
  in
  List.iter
    (fun target ->
      let name = Parallel.Throughput.target_name target in
      match Parallel.Throughput.target_of_name name with
      | Ok parsed ->
        (* [compare], not [=]: Sequent specs carry a hasher closure,
           physically shared, which [compare] skips and [=] rejects. *)
        Alcotest.(check bool) (name ^ " round-trips") true
          (compare parsed target = 0)
      | Error message -> Alcotest.fail (name ^ ": " ^ message))
    targets;
  Alcotest.(check (list string)) "kept names"
    [ "coarse:bsd"; "coarse:mtf"; "coarse:sr-cache"; "coarse:sequent-19";
      "striped:sequent-19"; "striped:sequent-100"; "epoch:table" ]
    (List.map Parallel.Throughput.target_name targets);
  List.iter
    (fun name ->
      match Parallel.Throughput.target_of_name name with
      | Ok _ -> Alcotest.fail (name ^ " accepted")
      | Error message ->
        let forms = "(valid: coarse:<algorithm>, striped:sequent[-H], epoch)" in
        let tail = String.length forms in
        Alcotest.(check string) (name ^ " error lists the valid forms") forms
          (String.sub message (String.length message - tail) tail))
    [ "epoch:offheap"; "cuckoo"; "cuckoo:table"; "coarse:sequent-0";
      "striped:bsd" ]

let test_throughput_batched () =
  (* Batched mode with the monotonic clock: every lookup accounted,
     every latency sample non-negative, no backwards clock reads. *)
  let obs = Obs.Registry.create () in
  let result =
    Parallel.Throughput.run ~obs ~connections:200 ~lookups_per_domain:10_000
      ~batch:8 ~domains:2 (Parallel.Throughput.Striped 19)
  in
  Alcotest.(check int) "total" 20_000 result.Parallel.Throughput.total_lookups;
  Alcotest.(check int) "batch recorded" 8 result.Parallel.Throughput.batch;
  Alcotest.(check int) "no backwards clock reads" 0
    result.Parallel.Throughput.clock_went_backwards;
  (match result.Parallel.Throughput.latency with
  | None -> Alcotest.fail "no latency histogram with ?obs"
  | Some histogram ->
    Alcotest.(check int) "every lookup has a latency sample" 20_000
      (Obs.Histogram.count histogram);
    Alcotest.(check bool) "no negative samples" true
      (Obs.Histogram.min_value histogram >= 0));
  match
    Obs.Registry.find
      (Obs.Registry.snapshot obs)
      "parallel.clock_went_backwards"
  with
  | Some { Obs.Registry.data = Obs.Registry.Counter 0; _ } -> ()
  | _ -> Alcotest.fail "clock_went_backwards counter missing or nonzero"

let test_throughput_epoch_table () =
  (* The lock-free target: same harness, same monotonic-clock
     discipline (backwards reads clamped and counted, never negative
     samples) as the striped targets. *)
  let result =
    Parallel.Throughput.run ~connections:200 ~lookups_per_domain:20_000
      ~domains:2 Parallel.Throughput.Epoch
  in
  Alcotest.(check string) "target" "epoch:table"
    result.Parallel.Throughput.target;
  Alcotest.(check int) "total" 40_000 result.Parallel.Throughput.total_lookups;
  Alcotest.(check bool) "positive rate" true
    (result.Parallel.Throughput.lookups_per_second > 0.0);
  Alcotest.(check int) "no backwards clock reads" 0
    result.Parallel.Throughput.clock_went_backwards;
  (* Batched mode drives lookup_batch under one pin per batch; with
     [obs], the run registers its table's own epoch.table.* counters
     beside the latency histogram. *)
  let obs = Obs.Registry.create () in
  let batched =
    Parallel.Throughput.run ~obs ~connections:200 ~lookups_per_domain:10_000
      ~batch:8 ~domains:2 Parallel.Throughput.Epoch
  in
  Alcotest.(check int) "batched total" 20_000
    batched.Parallel.Throughput.total_lookups;
  Alcotest.(check int) "batched: no backwards clock reads" 0
    batched.Parallel.Throughput.clock_went_backwards;
  let metrics = Obs.Registry.snapshot obs in
  let counter name =
    match Obs.Registry.find metrics name with
    | Some { Obs.Registry.data = Obs.Registry.Counter n; _ } -> n
    | _ -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check int) "epoch.table.lookups" 20_000
    (counter "epoch.table.lookups");
  Alcotest.(check int) "every lookup found" 20_000
    (counter "epoch.table.found");
  Alcotest.(check int) "epoch.table.batches" (2 * (10_000 / 8))
    (counter "epoch.table.batches");
  Alcotest.(check bool) "latency histogram registered" true
    (Obs.Registry.find metrics "parallel.epoch:table.d2.b8.lookup_ns" <> None)

let test_worker_rng () =
  let a = Parallel.Worker_rng.create 5 in
  let b = Parallel.Worker_rng.create 5 in
  for _ = 1 to 50 do
    let x = Parallel.Worker_rng.next a in
    Alcotest.(check int) "deterministic" x (Parallel.Worker_rng.next b);
    Alcotest.(check bool) "non-negative" true (x >= 0)
  done;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Worker_rng.int: bound must be positive") (fun () ->
      ignore (Parallel.Worker_rng.int a ~bound:0))

(* Rejection sampling: 10^6 draws across qcheck-chosen (seed, bound)
   pairs, every one in [0, bound). *)
let worker_rng_in_bounds =
  QCheck.Test.make ~count:100 ~name:"Worker_rng.int stays in [0, bound)"
    QCheck.(pair small_nat (int_range 1 (1 lsl 30)))
    (fun (seed, bound) ->
      let rng = Parallel.Worker_rng.create seed in
      let ok = ref true in
      for _ = 1 to 10_000 do
        let x = Parallel.Worker_rng.int rng ~bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let test_worker_rng_uniform () =
  (* Chi-squared uniformity smoke test: 160_000 draws into 16 cells.
     The old [next mod bound] path is bias-free only when the bound
     divides 2^62; rejection sampling must pass for any bound.  15
     degrees of freedom: critical value 37.7 at p = 0.001; the seed is
     fixed, so this cannot flake. *)
  let bound = 16 in
  let draws = 160_000 in
  let cells = Array.make bound 0 in
  let rng = Parallel.Worker_rng.create 77 in
  for _ = 1 to draws do
    let x = Parallel.Worker_rng.int rng ~bound in
    cells.(x) <- cells.(x) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let chi2 =
    Array.fold_left
      (fun acc observed ->
        let d = float_of_int observed -. expected in
        acc +. (d *. d /. expected))
      0.0 cells
  in
  if chi2 > 37.7 then
    Alcotest.failf "chi-squared %.1f exceeds the p=0.001 critical value" chi2;
  (* An odd bound near 2^62 / k maximises the old method's bias; make
     sure rejection sampling still covers the whole range. *)
  let rng = Parallel.Worker_rng.create 78 in
  let big_bound = (0x3FFFFFFFFFFFFFFF / 3 * 2) + 1 in
  for _ = 1 to 1_000 do
    let x = Parallel.Worker_rng.int rng ~bound:big_bound in
    if x < 0 || x >= big_bound then Alcotest.fail "out of range"
  done

(* ------------------------------------------------------------------ *)
(* Merged-snapshot invariants under churn (striped.mli's caveat)       *)

let test_striped_stats_under_churn () =
  (* Four domains mutate while the main domain keeps merging stripe
     snapshots.  Per-stripe consistency survives the merge: every
     snapshot must satisfy lookups = found + not_found and
     cache_hits <= lookups.  After the join, the population-dependent
     identity holds too. *)
  let d = Parallel.Striped.create ~chains:19 () in
  let stable = 100 in
  for i = 0 to stable - 1 do
    ignore (Parallel.Striped.insert d (flow i) ())
  done;
  let stop = Atomic.make false in
  let workers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let base = stable + (w * 50) in
            let rng = Numerics.Rng.create ~seed:(w + 40) in
            while not (Atomic.get stop) do
              let k = base + Numerics.Rng.int rng ~bound:50 in
              (match Parallel.Striped.lookup d (flow k) with
              | Some _ -> ignore (Parallel.Striped.remove d (flow k))
              | None -> ignore (Parallel.Striped.insert d (flow k) ()));
              ignore
                (Parallel.Striped.lookup_batch d
                   [| flow (Numerics.Rng.int rng ~bound:stable);
                      flow (Numerics.Rng.int rng ~bound:stable) |])
            done))
  in
  for _ = 1 to 200 do
    let s = Parallel.Striped.stats d in
    if
      s.Demux.Lookup_stats.lookups
      <> s.Demux.Lookup_stats.found + s.Demux.Lookup_stats.not_found
    then Alcotest.fail "lookups <> found + not_found in a live merge";
    if s.Demux.Lookup_stats.cache_hits > s.Demux.Lookup_stats.lookups then
      Alcotest.fail "cache_hits > lookups in a live merge"
  done;
  Atomic.set stop true;
  List.iter Domain.join workers;
  let s = Parallel.Striped.stats d in
  Alcotest.(check int) "quiescent: inserts - removes = population"
    (Parallel.Striped.length d)
    (s.Demux.Lookup_stats.inserts - s.Demux.Lookup_stats.removes)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [ ( "functional",
        [ Alcotest.test_case "striped = sequent" `Quick
            test_striped_agrees_with_sequent;
          Alcotest.test_case "striped basics" `Quick test_striped_basics;
          Alcotest.test_case "coarse wrapper" `Quick test_coarse_wrapper ] );
      ( "concurrency",
        [ Alcotest.test_case "disjoint writers" `Quick
            test_concurrent_disjoint_writers;
          Alcotest.test_case "reader correctness" `Quick
            test_concurrent_lookups_return_right_pcb;
          Alcotest.test_case "coarse safety" `Quick test_coarse_concurrent_safety ] );
      ( "batched",
        [ Alcotest.test_case "lookup_batch = per-packet" `Quick
            test_lookup_batch_matches_per_packet;
          Alcotest.test_case "insert_batch" `Quick test_insert_batch;
          Alcotest.test_case "coarse batch" `Quick test_coarse_batch ] );
      ( "ring",
        [ Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "spsc transfer" `Quick test_ring_spsc_transfer;
          Alcotest.test_case "blocking push" `Quick test_ring_blocking_push;
          Alcotest.test_case "produce racing close" `Quick
            test_ring_produce_close_race ] );
      ( "pressure",
        [ Alcotest.test_case "hysteresis" `Quick test_pressure_hysteresis;
          Alcotest.test_case "insert-latency watermark" `Quick
            test_pressure_insert_latency_watermark;
          Alcotest.test_case "force, release, counters" `Quick
            test_pressure_force_and_counters;
          Alcotest.test_case "dispatcher under forced tiers" `Quick
            test_dispatcher_under_pressure ] );
      ( "throughput",
        [ Alcotest.test_case "smoke" `Quick test_throughput_smoke;
          Alcotest.test_case "batched mode" `Quick test_throughput_batched;
          Alcotest.test_case "epoch table target" `Quick
            test_throughput_epoch_table;
          Alcotest.test_case "target names round-trip" `Quick
            test_target_names;
          Alcotest.test_case "worker rng" `Quick test_worker_rng;
          QCheck_alcotest.to_alcotest worker_rng_in_bounds;
          Alcotest.test_case "rng uniformity" `Quick test_worker_rng_uniform ] );
      ( "stats",
        [ Alcotest.test_case "merged snapshots under churn" `Quick
            test_striped_stats_under_churn ] ) ]
