(* Regenerates the pinned regression programs in test/corpus/.

   Run `dune exec test/gen_corpus.exe -- test/corpus` from the repo
   root after changing a generator, then commit the diff — the corpus
   is pinned precisely so that generator drift shows up in review, so
   never regenerate casually (see test/corpus/README.md). *)

let op kind flow = { Check.Op.kind; flow }

(* Five flows whose Robin-Hood home slots coincide at the minimum
   capacity (mask 7): inserting them builds a displacement cluster, and
   removing from its middle forces the backward shift that
   Check.Plant.Table's delete hook skips. *)
let robin_hood () =
  let mask = 7 in
  let home flow = Hashing.Hashers.(hash_flow multiplicative) flow land mask in
  let rec collect acc slot i =
    if List.length acc = 5 then List.rev acc
    else
      let flow = Sim.Topology.flow_of_client i in
      match slot with
      | None -> collect [ flow ] (Some (home flow)) (i + 1)
      | Some s ->
        if home flow = s then collect (flow :: acc) slot (i + 1)
        else collect acc slot (i + 1)
  in
  let cluster = collect [] None 0 in
  let inserts = List.map (op Check.Op.Insert) cluster in
  let lookups = List.map (op Check.Op.Lookup) cluster in
  let removes = [ op Check.Op.Remove (List.nth cluster 0);
                  op Check.Op.Remove (List.nth cluster 2) ] in
  Check.Op.v ~label:"robin-hood-backward-shift" ~seed:0
    (Array.of_list
       (inserts @ lookups @ [ List.nth removes 0 ] @ lookups
       @ [ List.nth removes 1 ] @ lookups))

(* Forty flows all reducing to chain 0 of the default Sequent
   geometry: past max_chain = 32 the overload guard starts shedding,
   so replaying this against guarded-* exercises eviction-set
   prediction, and against everything else it is plain churn. *)
let guarded_eviction () =
  let flows =
    Array.to_list (Check.Fuzz.flow_pool Check.Fuzz.Colliding ~seed:3 ~size:40)
  in
  let first_ten = List.filteri (fun i _ -> i < 10) flows in
  let inserts = List.map (op Check.Op.Insert) flows in
  let lookups = List.map (op Check.Op.Lookup) flows in
  Check.Op.v ~label:"guarded-eviction" ~seed:3
    (Array.of_list
       (inserts @ lookups
       @ List.map (op Check.Op.Remove) first_ten
       @ lookups
       @ List.map (op Check.Op.Insert) first_ten
       @ lookups))

(* Churn across the flat table's incremental-resize boundaries.  From
   the 8-slot minimum the 7/8 trigger fires as the population reaches
   8, 15 and 29; this program crosses all three with removes, misses
   and re-inserts landing while the old region is still draining.  In
   particular each boundary is followed immediately by a remove of a
   flow that is still resident in the old region and (for two of
   them) a re-insert of the same flow — the exact sequence that would
   resurrect a stale binding if a drained or removed old-region slot
   could ever match a later probe. *)
let churn_resize () =
  let flow i = Sim.Topology.flow_of_client i in
  let insert i = op Check.Op.Insert (flow i) in
  let lookup i = op Check.Op.Lookup (flow i) in
  let remove i = op Check.Op.Remove (flow i) in
  let range a b f = List.init (b - a + 1) (fun k -> f (a + k)) in
  let ops =
    (* population 0 -> 7, then the 8th insert fires trigger #1 *)
    range 0 6 insert
    @ [ lookup 3; insert 7;
        (* old region (capacity 8) still draining: *)
        remove 0; lookup 0; insert 0; lookup 0;
        lookup 5 ]
    (* population 8 -> 14, the 15th fires trigger #2 *)
    @ range 8 13 insert
    @ [ insert 14;
        (* old region (capacity 16) still draining: *)
        remove 2; remove 9; lookup 2; lookup 9; insert 2; lookup 2 ]
    (* population 14 -> 28, the 29th fires trigger #3 *)
    @ range 15 28 insert
    @ [ lookup 20; insert 29;
        (* old region (capacity 32) still draining: *)
        remove 17; lookup 17; remove 4; insert 17; lookup 17 ]
    (* sweep every flow: hits, and misses for 4 and 9 *)
    @ range 0 29 lookup
  in
  Check.Op.v ~label:"churn-resize" ~seed:6 (Array.of_list ops)

(* The epoch-reclaim scenario, single-threaded half: churn that drives
   the epoch table through every copy-publish-retire growth cycle
   (populations 8, 15, 29 from the 8-slot minimum) with removes,
   misses and re-inserts landing between publishes.  The first seven
   ops are plain inserts on purpose: test_check.ml replays this
   program twice — once through the differential oracle like any
   corpus entry, and once onto a bare Epoch.Packed.Heap with a view pinned
   after op 7, the reader that outlives every region the writer
   retires.  Flows are offset from churn_resize's so the two programs
   stay distinguishable in a diff. *)
let epoch_reclaim () =
  let flow i = Sim.Topology.flow_of_client (100 + i) in
  let insert i = op Check.Op.Insert (flow i) in
  let lookup i = op Check.Op.Lookup (flow i) in
  let remove i = op Check.Op.Remove (flow i) in
  let range a b f = List.init (b - a + 1) (fun k -> f (a + k)) in
  let ops =
    (* seven inserts: one capacity-8 region, the pin point *)
    range 0 6 insert
    (* the 8th insert fires growth #1; churn while the pinned reader
       still holds the pre-growth region *)
    @ [ insert 7; remove 1; lookup 1; insert 1; lookup 1 ]
    (* population 8 -> 14, the 15th fires growth #2 *)
    @ range 8 13 insert
    @ [ insert 14; remove 3; remove 10; lookup 3; lookup 10; insert 3 ]
    (* population 14 -> 28, the 29th fires growth #3 *)
    @ range 15 28 insert
    @ [ insert 29; remove 20; lookup 20; insert 30 ]
    (* sweep every flow: hits, and misses for 10 and 20 *)
    @ range 0 30 lookup
  in
  Check.Op.v ~label:"epoch-reclaim" ~seed:17 (Array.of_list ops)

(* The off-heap storage scenario: churn that crosses an
   incremental-resize boundary and then leans on the frozen old
   region's dead-marking path — every remove between a growth trigger
   and the end of its drain must decrement the old region's live count
   exactly once (Packed_table's kill_slot raises if the accounting
   would go negative, and replaying this against offheap-table walks
   that assertion over Bigarray storage).  The double remove/re-insert
   pairs around each boundary are the sequences that would double-kill
   an old-region slot if a re-inserted key were dead-marked again.
   Flows are offset from churn_resize's and epoch_reclaim's so the
   three programs stay distinguishable in a diff. *)
let offheap_churn () =
  let flow i = Sim.Topology.flow_of_client (200 + i) in
  let insert i = op Check.Op.Insert (flow i) in
  let lookup i = op Check.Op.Lookup (flow i) in
  let remove i = op Check.Op.Remove (flow i) in
  let range a b f = List.init (b - a + 1) (fun k -> f (a + k)) in
  let ops =
    (* population 0 -> 7, then the 8th insert fires trigger #1 *)
    range 0 6 insert
    @ [ insert 7;
        (* old region (capacity 8) draining: dead-mark two residents,
           re-insert one (into the new region), remove it again — the
           second remove must hit the new region, not re-kill the
           dead-marked old slot *)
        remove 0; remove 5; insert 0; remove 0; lookup 0; lookup 5;
        insert 5 ]
    (* population 7 -> 14, the 15th fires trigger #2 *)
    @ range 8 14 insert
    @ [ (* old region (capacity 16) draining: interleave dead-marks
           with lookups that probe across dead-marked slots *)
        remove 3; lookup 3; remove 11; lookup 11; remove 6; lookup 12;
        insert 3; lookup 3; insert 11 ]
    (* sweep every flow: hits, and a miss for 6 *)
    @ range 0 14 lookup
  in
  Check.Op.v ~label:"offheap-churn" ~seed:23 (Array.of_list ops)

(* The cuckoo kick-chain + stash boundary, pinned.  Two flow classes,
   found by scanning the topology for hash coincidences (the program
   is deterministic):

   - {e pair} flows: BOTH candidate buckets pin to (0, 1) at 16
     buckets — and, by mask nesting, at every smaller power-of-two
     count, so the collisions survive growth from the 2-bucket
     minimum.  Twenty are inserted against the pair's sixteen slots;
     a twenty-first (the ghost) never is.
   - {e feeder} flows: primary bucket 0, but an alternate bucket that
     stays OFF the pair at every size the program reaches (h2 land 3
     >= 2).  Inserted first, they squat in bucket 0 — and they are
     the only occupants BFS can displace, because a pure both-bucket
     clique has nowhere to kick to.

   As the pair saturates, each new pair flow forces a BFS kick chain
   that evicts a feeder to its free alternate bucket (kicks and a
   filter increment for bucket 0); once only clique keys remain, BFS
   dead-ends and the surplus spills to the stash (more filter
   increments).  The ghost's lookups take the filter-positive full
   miss path — both buckets and the stash scanned, still a miss — the
   one path the filter cannot short-circuit.  Removes then hit a pair
   resident, a late pair flow (in the stash by then) and a kicked
   feeder (a displaced-entry remove: filter decrement at bucket 0),
   and re-insert all three. *)
let cuckoo_kick () =
  let mask = 15 in
  let hashes flow =
    let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
    (Demux.Cuckoo_table.default_hash1 w0 w1,
     Demux.Cuckoo_table.default_hash2 w0 w1)
  in
  let is_pair flow =
    let h1, h2 = hashes flow in
    h1 land mask = 0 && h2 land mask = 1
  in
  let is_feeder flow =
    let h1, h2 = hashes flow in
    h1 land mask = 0 && h2 land 3 >= 2
  in
  let rec collect pairs feeders i =
    if List.length pairs = 21 && List.length feeders = 4 then
      (List.rev pairs, List.rev feeders)
    else if i > 2_000_000 then
      failwith "cuckoo_kick: collider scan exhausted"
    else
      let flow = Sim.Topology.flow_of_client i in
      if is_pair flow && List.length pairs < 21 then
        collect (flow :: pairs) feeders (i + 1)
      else if is_feeder flow && List.length feeders < 4 then
        collect pairs (flow :: feeders) (i + 1)
      else collect pairs feeders (i + 1)
  in
  let pairs, feeders = collect [] [] 0 in
  let residents = List.filteri (fun i _ -> i < 20) pairs in
  let ghost = List.nth pairs 20 in
  let insert f = op Check.Op.Insert f in
  let lookup f = op Check.Op.Lookup f in
  let remove f = op Check.Op.Remove f in
  let bucket_resident = List.nth residents 2 in
  let stash_resident = List.nth residents 19 in
  let kicked_feeder = List.nth feeders 0 in
  let ops =
    List.map insert feeders
    @ List.map insert residents
    @ List.map lookup (feeders @ residents)
    @ [ lookup ghost;
        remove bucket_resident; lookup bucket_resident;
        remove stash_resident; lookup stash_resident;
        remove kicked_feeder; lookup kicked_feeder;
        insert bucket_resident; insert stash_resident;
        insert kicked_feeder ]
    @ List.map lookup (feeders @ residents)
    @ [ lookup ghost ]
  in
  Check.Op.v ~label:"cuckoo-kick" ~seed:29 (Array.of_list ops)

(* The flow-migration oracle trace, pinned for Check.Smp_trace: twelve
   connection histories whose lowering drives Parallel.Smp's handoff
   machinery through every leg.  Each flow opens (I), streams data (L)
   with pure-ack noise (A), and every even flow closes through the
   protocol path (R -> server TIME-WAIT) and then retransmits its FIN
   (S) — the TIME-WAIT resurrection probe.  The first six flows are
   contiguous, so each handshake is chased immediately by its own data
   while the handoff is still in flight (datagrams the dispatcher holds
   until the connection has moved); the last six are round-robin
   interleaved, so a flow's segments arrive before, during and after
   its move. *)
let smp_migrate () =
  let flow i = Sim.Topology.flow_of_client (300 + i) in
  let per k =
    let f = flow k in
    [ op Check.Op.Insert f ]
    @ List.init (2 + (k mod 3)) (fun _ -> op Check.Op.Lookup f)
    @ [ op Check.Op.Ack_lookup f; op Check.Op.Lookup f ]
    @ (if k mod 2 = 0 then
         [ op Check.Op.Remove f; op Check.Op.Send f ]
         @ (if k mod 4 = 0 then [ op Check.Op.Ack_lookup f ] else [])
       else [])
  in
  let head = List.concat (List.init 6 per) in
  let queues = Array.init 6 (fun k -> per (6 + k)) in
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    continue := false;
    Array.iteri
      (fun i q ->
        match q with
        | [] -> ()
        | x :: rest ->
          queues.(i) <- rest;
          acc := x :: !acc;
          continue := true)
      queues
  done;
  Check.Op.v ~label:"smp-migrate" ~seed:31
    (Array.of_list (head @ List.rev !acc))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/corpus" in
  let save name program =
    let path = Filename.concat dir (name ^ ".prog") in
    Check.Op.save path program;
    Printf.printf "wrote %s (%d ops)\n" path (Check.Op.length program)
  in
  save "robin-hood-backward-shift" (robin_hood ());
  save "guarded-eviction" (guarded_eviction ());
  save "churn_resize" (churn_resize ());
  save "epoch-reclaim" (epoch_reclaim ());
  save "offheap-churn" (offheap_churn ());
  save "cuckoo-kick" (cuckoo_kick ());
  save "smp-migrate" (smp_migrate ());
  save "boundary-tuples"
    (Check.Fuzz.generate ~label:"boundary-tuples" Check.Fuzz.Boundary ~seed:11
       ~pool:48 ~ops:300);
  save "collision-flood"
    (Check.Fuzz.generate ~label:"collision-flood" Check.Fuzz.Colliding
       ~seed:13 ~pool:48 ~ops:400)
