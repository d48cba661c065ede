(* Tests for the PCB lookup algorithms: correctness (finds exactly
   what is inserted), the paper's cost-accounting discipline, and the
   behavioural signatures each algorithm is defined by. *)

let flow i = Sim.Topology.flow_of_client i
let flows n = Array.to_list (Sim.Topology.flows n)

let mean_examined demux =
  Demux.Lookup_stats.mean_examined
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)

let last_cost demux f =
  (* Cost of a single lookup = examined-counter delta around it. *)
  let before =
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)
      .Demux.Lookup_stats.pcbs_examined
  in
  let result = demux.Demux.Registry.lookup f in
  let after =
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)
      .Demux.Lookup_stats.pcbs_examined
  in
  (result, after - before)

let all_specs =
  Demux.Registry.
    [ Linear; Bsd; Mtf; Sr_cache;
      Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative };
      Hashed_mtf { chains = 19; hasher = Hashing.Hashers.multiplicative };
      Conn_id { capacity = 4096 }; Resizing_hash; Splay;
      Lru_cache { entries = 4 };
      (* Bounds high enough that the guard never sheds in these tests:
         the wrapper must then be behaviourally invisible. *)
      Guarded
        { spec = Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative };
          max_chain = 512; max_total = 65536 } ]

(* ------------------------------------------------------------------ *)
(* Generic correctness, every algorithm                                *)

let test_insert_lookup_remove spec () =
  let demux = Demux.Registry.create spec in
  let population = flows 50 in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) population;
  Alcotest.(check int) "population" 50 (demux.Demux.Registry.length ());
  (* Every inserted flow is found. *)
  List.iter
    (fun f ->
      match demux.Demux.Registry.lookup f with
      | Some pcb ->
        Alcotest.(check bool) "right pcb" true
          (Packet.Flow.equal pcb.Demux.Pcb.flow f)
      | None -> Alcotest.failf "%s lost a flow" demux.Demux.Registry.name)
    population;
  (* A stranger is not. *)
  Alcotest.(check bool) "stranger absent" true
    (demux.Demux.Registry.lookup (flow 999) = None);
  (* Remove half, check the partition. *)
  List.iteri
    (fun i f ->
      if i mod 2 = 0 then
        match demux.Demux.Registry.remove f with
        | Some _ -> ()
        | None -> Alcotest.fail "remove failed")
    population;
  Alcotest.(check int) "population halved" 25 (demux.Demux.Registry.length ());
  List.iteri
    (fun i f ->
      let found = demux.Demux.Registry.lookup f <> None in
      Alcotest.(check bool)
        (Printf.sprintf "flow %d presence" i)
        (i mod 2 = 1) found)
    population

let test_duplicate_insert_rejected spec () =
  let demux = Demux.Registry.create spec in
  ignore (demux.Demux.Registry.insert (flow 1) ());
  match demux.Demux.Registry.insert (flow 1) () with
  | _ -> Alcotest.fail "duplicate insert accepted"
  | exception Invalid_argument _ -> ()

let test_remove_absent spec () =
  let demux = Demux.Registry.create spec in
  Alcotest.(check bool) "remove absent" true
    (demux.Demux.Registry.remove (flow 3) = None)

let test_stats_discipline spec () =
  (* lookups/found/not_found counters add up; examined grows. *)
  let demux = Demux.Registry.create spec in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  for i = 0 to 14 do
    ignore (demux.Demux.Registry.lookup (flow i))
  done;
  let s = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "lookups" 15 s.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "found" 10 s.Demux.Lookup_stats.found;
  Alcotest.(check int) "not found" 5 s.Demux.Lookup_stats.not_found;
  Alcotest.(check int) "inserts" 10 s.Demux.Lookup_stats.inserts;
  Alcotest.(check bool) "examined positive" true
    (s.Demux.Lookup_stats.pcbs_examined > 0);
  Alcotest.(check bool) "max <= total" true
    (s.Demux.Lookup_stats.max_examined <= s.Demux.Lookup_stats.pcbs_examined)

let test_iter_covers_population spec () =
  let demux = Demux.Registry.create spec in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 30);
  let seen = ref 0 in
  demux.Demux.Registry.iter (fun _ -> incr seen);
  Alcotest.(check int) "iter count" 30 !seen

let generic_cases =
  List.concat_map
    (fun spec ->
      let name = Demux.Registry.spec_name spec in
      [ Alcotest.test_case
          (name ^ ": insert/lookup/remove")
          `Quick (test_insert_lookup_remove spec);
        Alcotest.test_case (name ^ ": duplicate insert") `Quick
          (test_duplicate_insert_rejected spec);
        Alcotest.test_case (name ^ ": remove absent") `Quick
          (test_remove_absent spec);
        Alcotest.test_case (name ^ ": stats discipline") `Quick
          (test_stats_discipline spec);
        Alcotest.test_case (name ^ ": iter") `Quick
          (test_iter_covers_population spec) ])
    all_specs

(* ------------------------------------------------------------------ *)
(* Golden accounting: one long mixed program, every spec               *)

type golden_op =
  | Open of int
  | Close of int
  | Receive of Demux.Types.packet_kind * int
  | Send of int

(* A fixed seeded program over a pool of 120 flows, built once and
   independent of any table's answers.  It opens with 48 inserts and
   ends with 85 residents, so resizing-hash (16 buckets) grows three
   times.  Trains of lookups repeat the last flow, so the
   one-entry caches hit; random lookups cycle far more than four
   distinct flows, so lru-cache-4 evicts, and about a third of them
   name an absent flow.  Removes often take the flow just looked up or
   just sent on, so cached PCBs leave the table. *)
let golden_program =
  let pool = 120 in
  let rng = Numerics.Rng.create ~seed:1992 in
  let present = Array.make pool false in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let insert i =
    present.(i) <- true;
    emit (Open i)
  in
  for i = 0 to 47 do
    insert i
  done;
  let looked = ref 0 and sent = ref 0 in
  for _ = 1 to 4_000 do
    let i = Numerics.Rng.int rng ~bound:pool in
    match Numerics.Rng.int rng ~bound:20 with
    | 0 | 1 -> if not present.(i) then insert i
    | 2 ->
      let victim =
        match Numerics.Rng.int rng ~bound:3 with
        | 0 -> !looked
        | 1 -> !sent
        | _ -> i
      in
      if present.(victim) then begin
        present.(victim) <- false;
        emit (Close victim)
      end
    | 3 | 4 | 5 ->
      sent := i;
      emit (Send i)
    | 6 | 7 | 8 | 9 | 10 ->
      looked := i;
      emit (Receive (Demux.Types.Data, i))
    | 11 | 12 | 13 | 14 -> emit (Receive (Demux.Types.Data, !looked))
    | 15 | 16 -> emit (Receive (Demux.Types.Pure_ack, i))
    | _ -> emit (Receive (Demux.Types.Pure_ack, !sent))
  done;
  List.rev !ops

let golden_snapshot spec =
  let demux = Demux.Registry.create spec in
  List.iter
    (function
      | Open i -> ignore (demux.Demux.Registry.insert (flow i) ())
      | Close i -> ignore (demux.Demux.Registry.remove (flow i))
      | Receive (kind, i) -> ignore (demux.Demux.Registry.lookup ~kind (flow i))
      | Send i -> demux.Demux.Registry.note_send (flow i))
    golden_program;
  let s = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Demux.Lookup_stats.
    [ s.lookups; s.pcbs_examined; s.cache_hits; s.found; s.not_found;
      s.inserts; s.removes; s.evictions; s.rejections; s.batches;
      s.max_examined ]

(* [lookups; pcbs_examined; cache_hits; found; not_found; inserts;
   removes; evictions; rejections; batches; max_examined] per spec.
   The values are the algorithms' exact accounting on this program:
   a refactor of any table must leave every one of them unchanged. *)
let golden_expected =
  [ ("linear", [ 2793; 140781; 0; 1727; 1066; 198; 113; 0; 0; 0; 90 ]);
    ("bsd", [ 2793; 126092; 495; 1727; 1066; 198; 113; 0; 0; 0; 91 ]);
    ("mtf", [ 2793; 120177; 0; 1727; 1066; 198; 113; 0; 0; 0; 90 ]);
    ("sr-cache", [ 2793; 118055; 752; 1727; 1066; 198; 113; 0; 0; 0; 92 ]);
    ("sequent-19", [ 2793; 9232; 889; 1727; 1066; 198; 113; 0; 0; 0; 10 ]);
    ("hashed-mtf-19", [ 2793; 8037; 0; 1727; 1066; 198; 113; 0; 0; 0; 9 ]);
    ("conn-id", [ 2793; 1727; 0; 1727; 1066; 198; 113; 0; 0; 0; 1 ]);
    ("resizing-hash", [ 2793; 3958; 0; 1727; 1066; 198; 113; 0; 0; 0; 6 ]);
    ("splay", [ 2793; 14150; 0; 1727; 1066; 198; 113; 0; 0; 0; 19 ]);
    ("lru-cache-4", [ 2793; 125025; 712; 1727; 1066; 198; 113; 0; 0; 0; 94 ]);
    ( "guarded-sequent-19",
      [ 2793; 9232; 889; 1727; 1066; 198; 113; 0; 0; 0; 10 ] );
    ("cuckoo", [ 2793; 3534; 0; 1727; 1066; 198; 113; 0; 0; 0; 2 ]) ]

let test_golden_accounting () =
  let specs = all_specs @ [ Demux.Registry.Cuckoo ] in
  Alcotest.(check int) "every spec pinned" (List.length golden_expected)
    (List.length specs);
  List.iter
    (fun spec ->
      let name = Demux.Registry.spec_name spec in
      Alcotest.(check (list int)) name (List.assoc name golden_expected)
        (golden_snapshot spec))
    specs

(* ------------------------------------------------------------------ *)
(* Linear: cost = scan position from the head                          *)

let test_linear_cost_is_position () =
  let demux = Demux.Registry.create Demux.Registry.Linear in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  (* Insertion at head means flow 9 is first, flow 0 last. *)
  let _, cost_head = last_cost demux (flow 9) in
  Alcotest.(check int) "head costs 1" 1 cost_head;
  let _, cost_tail = last_cost demux (flow 0) in
  Alcotest.(check int) "tail costs 10" 10 cost_tail;
  let _, cost_mid = last_cost demux (flow 4) in
  Alcotest.(check int) "middle costs 6" 6 cost_mid;
  (* A miss scans everything. *)
  let result, cost_miss = last_cost demux (flow 77) in
  Alcotest.(check bool) "miss" true (result = None);
  Alcotest.(check int) "miss scans all" 10 cost_miss

(* ------------------------------------------------------------------ *)
(* BSD: one-entry cache in front of the same list                      *)

let test_bsd_cache_hit_costs_one () =
  let demux = Demux.Registry.create Demux.Registry.Bsd in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  let _, first = last_cost demux (flow 0) in
  (* Cache empty: probe skipped (no PCB yet cached), scan to tail. *)
  Alcotest.(check int) "cold lookup scans to position" 10 first;
  let _, second = last_cost demux (flow 0) in
  Alcotest.(check int) "cached repeat costs 1" 1 second;
  (* A different flow now pays cache probe + scan. *)
  let _, third = last_cost demux (flow 9) in
  Alcotest.(check int) "cache miss pays probe + scan" 2 third

let test_bsd_cache_invalidated_on_remove () =
  (* BSD is Sequent at one chain: its cache is that chain's slot. *)
  let demux = Demux.Sequent.create ~chains:1 () in
  let cached_flow () =
    Option.map
      (fun node -> (Demux.Chain.pcb node).Demux.Pcb.flow)
      (Demux.Sequent.bucket demux 0).Demux.Sequent.cache
  in
  let population = flows 5 in
  List.iter (fun f -> ignore (Demux.Sequent.insert demux f ())) population;
  ignore (Demux.Sequent.lookup demux (flow 2));
  Alcotest.(check bool) "cached" true
    (match cached_flow () with
    | Some f -> Packet.Flow.equal f (flow 2)
    | None -> false);
  ignore (Demux.Sequent.remove demux (flow 2));
  Alcotest.(check bool) "cache cleared" true (cached_flow () = None);
  (* And the removed flow is really gone. *)
  Alcotest.(check bool) "gone" true (Demux.Sequent.lookup demux (flow 2) = None)

let test_bsd_hit_rate_on_trains () =
  (* Packet train of length 100 on one connection: 99 hits. *)
  let demux = Demux.Registry.create Demux.Registry.Bsd in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  for _ = 1 to 100 do
    ignore (demux.Demux.Registry.lookup (flow 5))
  done;
  let s = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "99 cache hits" 99 s.Demux.Lookup_stats.cache_hits

(* ------------------------------------------------------------------ *)
(* MTF: found PCB moves to the head                                    *)

let test_mtf_moves_to_front () =
  let demux = Demux.Mtf.create () in
  List.iter (fun f -> ignore (Demux.Mtf.insert demux f ())) (flows 10);
  ignore (Demux.Mtf.lookup demux (flow 0));
  let order = ref [] in
  Demux.Mtf.iter (fun pcb -> order := pcb.Demux.Pcb.flow :: !order) demux;
  Alcotest.(check bool) "front is flow 0" true
    (match List.rev !order with
    | f :: _ -> Packet.Flow.equal f (flow 0)
    | [] -> false)

let test_mtf_repeat_costs_one () =
  let demux = Demux.Registry.create Demux.Registry.Mtf in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  let _, first = last_cost demux (flow 0) in
  Alcotest.(check int) "cold cost = position" 10 first;
  let _, second = last_cost demux (flow 0) in
  Alcotest.(check int) "repeat costs 1" 1 second

let test_mtf_lru_order () =
  (* After touching 2,1,0 the list reads 0,1,2,... *)
  let demux = Demux.Registry.create Demux.Registry.Mtf in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 5);
  List.iter
    (fun i -> ignore (demux.Demux.Registry.lookup (flow i)))
    [ 2; 1; 0 ];
  let _, c0 = last_cost demux (flow 0) in
  let _, c1 = last_cost demux (flow 1) in
  Alcotest.(check int) "most recent costs 1" 1 c0;
  (* After looking up 0 again, 1 is second. *)
  Alcotest.(check int) "second most recent costs 2" 2 c1

(* ------------------------------------------------------------------ *)
(* SR cache: two one-entry caches, probe order by packet kind          *)

let test_sr_probe_order () =
  let demux = Demux.Sr_cache.create () in
  List.iter (fun f -> ignore (Demux.Sr_cache.insert demux f ())) (flows 10);
  (* Receive on flow 3 -> receive cache; send on flow 7 -> send cache. *)
  ignore (Demux.Sr_cache.lookup demux (flow 3));
  Demux.Sr_cache.note_send demux (flow 7);
  Alcotest.(check bool) "recv cache" true
    (match Demux.Sr_cache.cached_received_flow demux with
    | Some f -> Packet.Flow.equal f (flow 3)
    | None -> false);
  Alcotest.(check bool) "send cache" true
    (match Demux.Sr_cache.cached_sent_flow demux with
    | Some f -> Packet.Flow.equal f (flow 7)
    | None -> false);
  let stats = Demux.Sr_cache.stats demux in
  let probe kind f =
    let before =
      (Demux.Lookup_stats.snapshot stats).Demux.Lookup_stats.pcbs_examined
    in
    ignore (Demux.Sr_cache.lookup demux ~kind f);
    (Demux.Lookup_stats.snapshot stats).Demux.Lookup_stats.pcbs_examined
    - before
  in
  (* A data packet for flow 3 hits the receive cache first: cost 1. *)
  Alcotest.(check int) "data hits recv first" 1 (probe Demux.Types.Data (flow 3));
  (* An ack for flow 7 hits the send cache first: cost 1. *)
  Alcotest.(check int) "ack hits send first" 1
    (probe Demux.Types.Pure_ack (flow 7));
  (* A data packet for flow 7 (in the send cache) pays 2 probes.
     Note the previous ack lookup moved flow 7 into the receive cache
     too, so re-seed the receive cache with flow 3 first. *)
  ignore (Demux.Sr_cache.lookup demux ~kind:Demux.Types.Data (flow 3));
  Alcotest.(check int) "data finds send cache second" 2
    (probe Demux.Types.Data (flow 7))

let test_sr_full_miss_cost () =
  let demux = Demux.Registry.create Demux.Registry.Sr_cache in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  (* Warm both caches with flows other than the target. *)
  ignore (demux.Demux.Registry.lookup (flow 9));
  demux.Demux.Registry.note_send (flow 8);
  (* Flow 0 is at the tail (inserted first): 2 cache probes + scan 10. *)
  let _, cost = last_cost demux (flow 0) in
  Alcotest.(check int) "full miss = 2 + scan" 12 cost

let test_sr_remove_invalidates_caches () =
  let demux = Demux.Sr_cache.create () in
  List.iter (fun f -> ignore (Demux.Sr_cache.insert demux f ())) (flows 4);
  ignore (Demux.Sr_cache.lookup demux (flow 1));
  Demux.Sr_cache.note_send demux (flow 1);
  ignore (Demux.Sr_cache.remove demux (flow 1));
  Alcotest.(check bool) "recv cleared" true
    (Demux.Sr_cache.cached_received_flow demux = None);
  Alcotest.(check bool) "send cleared" true
    (Demux.Sr_cache.cached_sent_flow demux = None)

(* ------------------------------------------------------------------ *)
(* Sequent: per-chain caches, scans confined to the home chain         *)

let test_sequent_chain_confinement () =
  let chains = 19 in
  let demux =
    Demux.Sequent.create ~chains ~hasher:Hashing.Hashers.multiplicative ()
  in
  let population = flows 200 in
  List.iter (fun f -> ignore (Demux.Sequent.insert demux f ())) population;
  let lengths = Demux.Sequent.chain_lengths demux in
  Alcotest.(check int) "chains" chains (Array.length lengths);
  Alcotest.(check int) "population preserved" 200
    (Array.fold_left ( + ) 0 lengths);
  let longest = Array.fold_left max 0 lengths in
  (* No lookup may ever examine more than cache + longest chain. *)
  let stats = Demux.Sequent.stats demux in
  List.iter (fun f -> ignore (Demux.Sequent.lookup demux f)) population;
  let s = Demux.Lookup_stats.snapshot stats in
  Alcotest.(check bool)
    (Printf.sprintf "max %d <= 1 + longest %d" s.Demux.Lookup_stats.max_examined
       longest)
    true
    (s.Demux.Lookup_stats.max_examined <= longest + 1)

let test_sequent_cache_per_chain () =
  let demux = Demux.Registry.create
      (Demux.Registry.Sequent
         { chains = 19; hasher = Hashing.Hashers.multiplicative })
  in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 100);
  ignore (demux.Demux.Registry.lookup (flow 42));
  let _, repeat = last_cost demux (flow 42) in
  Alcotest.(check int) "chain cache hit costs 1" 1 repeat

let test_sequent_beats_bsd_on_oltp_shape () =
  (* Uniform-random lookups over 500 flows: hashed chains must examine
     far fewer PCBs than the single BSD list. *)
  let population = flows 500 in
  let run spec =
    let demux = Demux.Registry.create spec in
    List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) population;
    let rng = Numerics.Rng.create ~seed:4 in
    for _ = 1 to 2000 do
      ignore
        (demux.Demux.Registry.lookup
           (List.nth population (Numerics.Rng.int rng ~bound:500)))
    done;
    mean_examined demux
  in
  let bsd = run Demux.Registry.Bsd in
  let sequent =
    run
      (Demux.Registry.Sequent
         { chains = 19; hasher = Hashing.Hashers.multiplicative })
  in
  Alcotest.(check bool)
    (Printf.sprintf "sequent %.1f at least 5x better than bsd %.1f" sequent bsd)
    true
    (sequent *. 5.0 < bsd)

let test_sequent_validation () =
  Alcotest.check_raises "chains 0"
    (Invalid_argument "Sequent.create: chains <= 0") (fun () ->
      ignore (Demux.Sequent.create ~chains:0 () : unit Demux.Sequent.t))

(* ------------------------------------------------------------------ *)
(* Hashed MTF                                                          *)

let test_hashed_mtf_repeat_costs_one () =
  let demux =
    Demux.Registry.create
      (Demux.Registry.Hashed_mtf
         { chains = 7; hasher = Hashing.Hashers.multiplicative })
  in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 100);
  ignore (demux.Demux.Registry.lookup (flow 31));
  let _, repeat = last_cost demux (flow 31) in
  Alcotest.(check int) "moved to chain front" 1 repeat

(* ------------------------------------------------------------------ *)
(* Connection IDs                                                      *)

let test_conn_id_always_one () =
  let demux = Demux.Registry.create (Demux.Registry.Conn_id { capacity = 64 }) in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 50);
  let rng = Numerics.Rng.create ~seed:5 in
  for _ = 1 to 500 do
    let _, cost = last_cost demux (flow (Numerics.Rng.int rng ~bound:50)) in
    Alcotest.(check int) "direct index costs 1" 1 cost
  done

let test_conn_id_recycling () =
  let demux = Demux.Conn_id.create ~capacity:2 () in
  ignore (Demux.Conn_id.insert demux (flow 0) ());
  ignore (Demux.Conn_id.insert demux (flow 1) ());
  (match Demux.Conn_id.insert demux (flow 2) () with
  | _ -> Alcotest.fail "over capacity"
  | exception Failure _ -> ());
  let id0 =
    match Demux.Conn_id.connection_id demux (flow 0) with
    | Some id -> id
    | None -> Alcotest.fail "no id"
  in
  ignore (Demux.Conn_id.remove demux (flow 0));
  ignore (Demux.Conn_id.insert demux (flow 2) ());
  Alcotest.(check (option int)) "id recycled" (Some id0)
    (Demux.Conn_id.connection_id demux (flow 2))

let test_conn_id_lookup_by_id () =
  let demux = Demux.Conn_id.create ~capacity:8 () in
  let pcb = Demux.Conn_id.insert demux (flow 3) () in
  (match Demux.Conn_id.lookup_by_id demux pcb.Demux.Pcb.id with
  | Some found -> Alcotest.(check int) "same pcb" pcb.Demux.Pcb.id found.Demux.Pcb.id
  | None -> Alcotest.fail "id lookup failed");
  Alcotest.(check bool) "bad id" true
    (Demux.Conn_id.lookup_by_id demux 99999 = None)

(* ------------------------------------------------------------------ *)
(* Resizing hash                                                       *)

let test_resizing_grows_and_stays_correct () =
  let demux = Demux.Resizing_hash.create ~initial_buckets:2 () in
  let population = flows 300 in
  List.iter (fun f -> ignore (Demux.Resizing_hash.insert demux f ())) population;
  Alcotest.(check bool) "grew" true (Demux.Resizing_hash.chains demux >= 256);
  List.iter
    (fun f ->
      match Demux.Resizing_hash.lookup demux f with
      | Some _ -> ()
      | None -> Alcotest.fail "lost a flow across resizes")
    population;
  (* Load factor <= 1 keeps scans short. *)
  let stats = Demux.Resizing_hash.stats demux in
  let s = Demux.Lookup_stats.snapshot stats in
  Alcotest.(check bool)
    (Printf.sprintf "max scan small (%d)" s.Demux.Lookup_stats.max_examined)
    true
    (s.Demux.Lookup_stats.max_examined <= 8)

(* ------------------------------------------------------------------ *)
(* Splay tree                                                          *)

let test_splay_repeat_costs_one () =
  let demux = Demux.Registry.create Demux.Registry.Splay in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 200);
  ignore (demux.Demux.Registry.lookup (flow 57));
  (* The splayed node is at the root: one comparison. *)
  let _, repeat = last_cost demux (flow 57) in
  Alcotest.(check int) "root hit" 1 repeat

let test_splay_logarithmic_uniform () =
  (* Uniform-random lookups over 2000 keys must stay near O(log N) on
     average — far below any list scheme's N/2. *)
  let demux = Demux.Registry.create Demux.Registry.Splay in
  let flows = Sim.Topology.flows 2000 in
  Array.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) flows;
  let rng = Numerics.Rng.create ~seed:2 in
  for _ = 1 to 5000 do
    ignore (demux.Demux.Registry.lookup flows.(Numerics.Rng.int rng ~bound:2000))
  done;
  let mean = mean_examined demux in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f within ~4x log2(2000)=11" mean)
    true (mean < 45.0)

let test_splay_iter_in_key_order () =
  let demux = Demux.Splay.create () in
  let population = flows 50 in
  List.iter (fun f -> ignore (Demux.Splay.insert demux f ())) population;
  let collected = ref [] in
  Demux.Splay.iter (fun pcb -> collected := pcb.Demux.Pcb.flow :: !collected) demux;
  let collected = List.rev !collected in
  Alcotest.(check int) "all present" 50 (List.length collected);
  let rec sorted = function
    | a :: (b :: _ as rest) -> Packet.Flow.compare a b < 0 && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "in-order traversal" true (sorted collected)

let test_splay_depth_shrinks_under_locality () =
  (* Hammering one key splays it to the root; depth statistics stay
     bounded by the population. *)
  let demux = Demux.Splay.create () in
  let population = flows 128 in
  List.iter (fun f -> ignore (Demux.Splay.insert demux f ())) population;
  let depth_before = Demux.Splay.depth demux in
  Alcotest.(check bool) "depth positive" true (depth_before >= 7);
  for _ = 1 to 50 do
    ignore (Demux.Splay.lookup demux (flow 100))
  done;
  Alcotest.(check bool) "depth bounded by population" true
    (Demux.Splay.depth demux <= 128)

let test_splay_remove_rejoins () =
  let demux = Demux.Splay.create () in
  let population = flows 64 in
  List.iter (fun f -> ignore (Demux.Splay.insert demux f ())) population;
  (* Remove every third key, confirm the rest survive in order. *)
  List.iteri
    (fun i f -> if i mod 3 = 0 then ignore (Demux.Splay.remove demux f))
    population;
  Alcotest.(check int) "population" (64 - 22) (Demux.Splay.length demux);
  List.iteri
    (fun i f ->
      let found = Demux.Splay.lookup demux f <> None in
      Alcotest.(check bool) (Printf.sprintf "key %d" i) (i mod 3 <> 0) found)
    population

(* ------------------------------------------------------------------ *)
(* LRU-K cache                                                         *)

let test_lru_hit_position_cost () =
  let demux = Demux.Registry.create (Demux.Registry.Lru_cache { entries = 4 }) in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 20);
  (* Touch 0,1,2,3: cache is [3;2;1;0]. *)
  List.iter (fun i -> ignore (demux.Demux.Registry.lookup (flow i))) [ 0; 1; 2; 3 ];
  let _, c3 = last_cost demux (flow 3) in
  Alcotest.(check int) "front of cache costs 1" 1 c3;
  (* After touching 3 again the LRU order is [3;2;1;0]; 0 is deepest. *)
  let _, c0 = last_cost demux (flow 0) in
  Alcotest.(check int) "back of cache costs 4" 4 c0

let test_lru_eviction () =
  let demux = Demux.Lru_cache.create ~entries:2 () in
  let population = flows 10 in
  List.iter (fun f -> ignore (Demux.Lru_cache.insert demux f ())) population;
  (* Fill the cache with 0 and 1, then touch 2: 0 must be evicted. *)
  List.iter (fun i -> ignore (Demux.Lru_cache.lookup demux (flow i))) [ 0; 1; 2 ];
  let stats = Demux.Lru_cache.stats demux in
  let probe f =
    let before =
      (Demux.Lookup_stats.snapshot stats).Demux.Lookup_stats.pcbs_examined
    in
    ignore (Demux.Lru_cache.lookup demux f);
    (Demux.Lookup_stats.snapshot stats).Demux.Lookup_stats.pcbs_examined - before
  in
  (* 2 is at cache front (1 probe); 0 was evicted, so it pays the two
     cache probes plus its list position. *)
  Alcotest.(check int) "2 cached" 1 (probe (flow 2));
  Alcotest.(check bool) "0 evicted" true (probe (flow 0) > 2)

let test_lru_remove_purges_cache () =
  let demux = Demux.Lru_cache.create ~entries:4 () in
  List.iter (fun f -> ignore (Demux.Lru_cache.insert demux f ())) (flows 5);
  ignore (Demux.Lru_cache.lookup demux (flow 1));
  ignore (Demux.Lru_cache.remove demux (flow 1));
  Alcotest.(check bool) "gone" true (Demux.Lru_cache.lookup demux (flow 1) = None);
  (* Re-inserting must not resurrect a stale cache entry pointing at
     the old PCB. *)
  ignore (Demux.Lru_cache.insert demux (flow 1) ());
  match Demux.Lru_cache.lookup demux (flow 1) with
  | Some pcb ->
    Alcotest.(check bool) "fresh pcb" true
      (Packet.Flow.equal pcb.Demux.Pcb.flow (flow 1))
  | None -> Alcotest.fail "lost after reinsert"

let test_lru_k1_equals_bsd_costs () =
  (* K = 1 must reproduce BSD's cost sequence on any access pattern. *)
  let lru = Demux.Registry.create (Demux.Registry.Lru_cache { entries = 1 }) in
  let bsd = Demux.Registry.create Demux.Registry.Bsd in
  let population = flows 30 in
  List.iter
    (fun f ->
      ignore (lru.Demux.Registry.insert f ());
      ignore (bsd.Demux.Registry.insert f ()))
    population;
  let rng = Numerics.Rng.create ~seed:21 in
  for _ = 1 to 500 do
    let f = flow (Numerics.Rng.int rng ~bound:30) in
    ignore (lru.Demux.Registry.lookup f);
    ignore (bsd.Demux.Registry.lookup f)
  done;
  Alcotest.(check int)
    "identical examined totals"
    (Demux.Lookup_stats.snapshot bsd.Demux.Registry.stats)
      .Demux.Lookup_stats.pcbs_examined
    (Demux.Lookup_stats.snapshot lru.Demux.Registry.stats)
      .Demux.Lookup_stats.pcbs_examined

(* ------------------------------------------------------------------ *)
(* Registry spec parsing                                               *)

let test_spec_of_string () =
  List.iter
    (fun (name, expect) ->
      match Demux.Registry.spec_of_string name with
      | Ok spec ->
        Alcotest.(check string) name expect (Demux.Registry.spec_name spec)
      | Error e -> Alcotest.fail e)
    [ ("bsd", "bsd"); ("mtf", "mtf"); ("linear", "linear");
      ("sr-cache", "sr-cache"); ("sequent", "sequent-19");
      ("sequent-100", "sequent-100"); ("hashed-mtf", "hashed-mtf-19");
      ("hashed-mtf-7", "hashed-mtf-7"); ("conn-id", "conn-id");
      ("resizing-hash", "resizing-hash"); ("splay", "splay");
      ("lru-cache", "lru-cache-8"); ("lru-cache-64", "lru-cache-64");
      ("guarded-bsd", "guarded-bsd");
      ("guarded-sequent-7", "guarded-sequent-7");
      ("guarded-guarded-mtf", "guarded-guarded-mtf") ];
  List.iter
    (fun bad ->
      match Demux.Registry.spec_of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "nonsense"; "sequent-0"; "sequent--3"; ""; "guarded-"; "guarded-nonsense";
      "guarded-sequent-0"; "lru-cache-0" ];
  (* Rejections come with a message naming the offence. *)
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  (match Demux.Registry.spec_of_string "sequent-0" with
  | Error message ->
    Alcotest.(check bool)
      "error names the bad count" true
      (contains message "positive" && contains message "0")
  | Ok _ -> Alcotest.fail "accepted sequent-0")

(* Name-level round trip over every constructor: printing a spec and
   re-parsing it must succeed and print the same.  (Names do not
   encode hashers or guard bounds, so equality is on names, not on
   specs.) *)
let spec_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [ oneofl
          Demux.Registry.
            [ Linear; Bsd; Mtf; Sr_cache; Resizing_hash; Splay ];
        map
          (fun chains ->
            Demux.Registry.Sequent
              { chains; hasher = Hashing.Hashers.multiplicative })
          (int_range 1 512);
        map
          (fun chains ->
            Demux.Registry.Hashed_mtf
              { chains; hasher = Hashing.Hashers.multiplicative })
          (int_range 1 512);
        map
          (fun capacity -> Demux.Registry.Conn_id { capacity })
          (int_range 1 8192);
        map
          (fun entries -> Demux.Registry.Lru_cache { entries })
          (int_range 1 256) ]
  in
  base >>= fun spec ->
  oneof
    [ return spec;
      map2
        (fun max_chain max_total ->
          Demux.Registry.Guarded { spec; max_chain; max_total })
        (int_range 1 128) (int_range 1 4096) ]

let prop_spec_name_round_trip =
  QCheck.Test.make ~count:500 ~name:"spec_name/spec_of_string round trip"
    (QCheck.make ~print:Demux.Registry.spec_name spec_gen) (fun spec ->
      let name = Demux.Registry.spec_name spec in
      match Demux.Registry.spec_of_string name with
      | Ok reparsed -> String.equal name (Demux.Registry.spec_name reparsed)
      | Error message ->
        QCheck.Test.fail_reportf "%S did not re-parse: %s" name message)

(* ------------------------------------------------------------------ *)
(* Guarded: graceful degradation under overload                        *)

let guarded_sequent ~max_chain ~max_total =
  Demux.Registry.Guarded
    { spec = Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative };
      max_chain; max_total }

let test_guarded_caps_chain () =
  let max_chain = 8 in
  let demux = Demux.Registry.create (guarded_sequent ~max_chain ~max_total:2048) in
  let colliders =
    Sim.Attack_workload.colliding_flows
      ~hasher:Hashing.Hashers.multiplicative ~chains:19 ~count:30
  in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) colliders;
  Alcotest.(check int) "chain capped" max_chain (demux.Demux.Registry.length ());
  let snap = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "evictions counted" (30 - max_chain)
    snap.Demux.Lookup_stats.evictions;
  (* The LRU shed the oldest flows: early inserts miss, recent hit. *)
  let hit f = demux.Demux.Registry.lookup f <> None in
  List.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d %s" i (if i < 30 - max_chain then "shed" else "kept"))
        (i >= 30 - max_chain) (hit f))
    colliders

let test_guarded_caps_total () =
  let demux = Demux.Registry.create (guarded_sequent ~max_chain:32 ~max_total:10) in
  List.iter
    (fun f -> ignore (demux.Demux.Registry.insert f ()))
    (flows 40);
  Alcotest.(check int) "total capped" 10 (demux.Demux.Registry.length ());
  let snap = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "evictions counted" 30 snap.Demux.Lookup_stats.evictions

let test_guarded_reject_new () =
  let config =
    Demux.Guarded.config ~policy:Demux.Guarded.Reject_new ~max_chain:4
      ~max_total:16 ~chains:1 ~hasher:Hashing.Hashers.multiplicative ()
  in
  let demux = Demux.Registry.guard config (Demux.Registry.create Demux.Registry.Bsd) in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 10);
  Alcotest.(check int) "first-come kept" 4 (demux.Demux.Registry.length ());
  let snap = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "rejections counted" 6 snap.Demux.Lookup_stats.rejections;
  Alcotest.(check int) "no evictions" 0 snap.Demux.Lookup_stats.evictions;
  (* Admitted flows stay reachable; rejected ones were never retained. *)
  List.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "flow %d" i)
        (i < 4)
        (demux.Demux.Registry.lookup f <> None))
    (flows 10)

let test_guarded_lookup_refreshes_lru () =
  let demux = Demux.Registry.create (guarded_sequent ~max_chain:32 ~max_total:3) in
  let f0, f1, f2, f3 =
    (flow 0, flow 1, flow 2, flow 3)
  in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) [ f0; f1; f2 ];
  (* Touch f0 so f1 becomes the least recently seen, then overflow. *)
  ignore (demux.Demux.Registry.lookup f0);
  ignore (demux.Demux.Registry.insert f3 ());
  Alcotest.(check bool) "f0 refreshed, kept" true
    (demux.Demux.Registry.lookup f0 <> None);
  Alcotest.(check bool) "f1 was LRU, shed" true
    (demux.Demux.Registry.lookup f1 = None);
  Alcotest.(check bool) "f3 admitted" true
    (demux.Demux.Registry.lookup f3 <> None)

let test_guarded_remove_untracks () =
  let demux = Demux.Registry.create (guarded_sequent ~max_chain:32 ~max_total:4) in
  List.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) (flows 4);
  ignore (demux.Demux.Registry.remove (flow 0));
  Alcotest.(check int) "slot freed" 3 (demux.Demux.Registry.length ());
  ignore (demux.Demux.Registry.insert (flow 9) ());
  let snap = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "no eviction needed" 0 snap.Demux.Lookup_stats.evictions

(* ------------------------------------------------------------------ *)
(* Lookup_stats and Pcb primitives                                     *)

let test_lookup_stats_lifecycle () =
  let stats = Demux.Lookup_stats.create () in
  Demux.Lookup_stats.begin_lookup stats;
  Demux.Lookup_stats.examine stats ();
  Demux.Lookup_stats.examine stats ~count:3 ();
  Demux.Lookup_stats.end_lookup stats ~hit_cache:false ~found:true;
  Demux.Lookup_stats.begin_lookup stats;
  Demux.Lookup_stats.examine stats ();
  Demux.Lookup_stats.end_lookup stats ~hit_cache:true ~found:true;
  Demux.Lookup_stats.note_insert stats;
  Demux.Lookup_stats.note_remove stats;
  let s = Demux.Lookup_stats.snapshot stats in
  Alcotest.(check int) "lookups" 2 s.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "examined" 5 s.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int) "max" 4 s.Demux.Lookup_stats.max_examined;
  Alcotest.(check int) "hits" 1 s.Demux.Lookup_stats.cache_hits;
  Alcotest.(check int) "inserts" 1 s.Demux.Lookup_stats.inserts;
  Alcotest.(check int) "removes" 1 s.Demux.Lookup_stats.removes;
  Alcotest.(check (float 1e-9)) "mean" 2.5
    (Demux.Lookup_stats.mean_examined s);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Demux.Lookup_stats.hit_rate s);
  Demux.Lookup_stats.reset stats;
  let s = Demux.Lookup_stats.snapshot stats in
  Alcotest.(check int) "reset lookups" 0 s.Demux.Lookup_stats.lookups;
  Alcotest.(check bool) "reset mean is nan" true
    (Float.is_nan (Demux.Lookup_stats.mean_examined s))

let test_lookup_stats_merge () =
  let make lookups examined =
    let stats = Demux.Lookup_stats.create () in
    for _ = 1 to lookups do
      Demux.Lookup_stats.begin_lookup stats;
      Demux.Lookup_stats.examine stats ~count:examined ();
      Demux.Lookup_stats.end_lookup stats ~hit_cache:false ~found:true
    done;
    Demux.Lookup_stats.snapshot stats
  in
  let merged = Demux.Lookup_stats.merge_snapshots [ make 2 10; make 3 4 ] in
  Alcotest.(check int) "lookups" 5 merged.Demux.Lookup_stats.lookups;
  Alcotest.(check int) "examined" 32 merged.Demux.Lookup_stats.pcbs_examined;
  Alcotest.(check int) "max" 10 merged.Demux.Lookup_stats.max_examined;
  let empty = Demux.Lookup_stats.merge_snapshots [] in
  Alcotest.(check int) "empty merge" 0 empty.Demux.Lookup_stats.lookups

let test_pcb_counters () =
  let pcb = Demux.Pcb.make ~id:7 ~flow:(flow 7) () in
  Alcotest.(check int) "fresh rx" 0 pcb.Demux.Pcb.rx_packets;
  Demux.Pcb.note_rx pcb;
  Demux.Pcb.note_rx pcb;
  Demux.Pcb.note_tx pcb;
  Alcotest.(check int) "rx" 2 pcb.Demux.Pcb.rx_packets;
  Alcotest.(check int) "tx" 1 pcb.Demux.Pcb.tx_packets;
  Alcotest.(check bool) "matches own flow" true (Demux.Pcb.matches pcb (flow 7));
  Alcotest.(check bool) "rejects other" false (Demux.Pcb.matches pcb (flow 8))

(* ------------------------------------------------------------------ *)
(* Chain primitive                                                     *)

let test_chain_operations () =
  let chain = Demux.Chain.create () in
  Alcotest.(check bool) "empty" true (Demux.Chain.is_empty chain);
  let pcbs =
    List.map
      (fun i -> Demux.Pcb.make ~id:i ~flow:(flow i) ())
      [ 0; 1; 2; 3 ]
  in
  let nodes = List.map (Demux.Chain.push_front chain) pcbs in
  Alcotest.(check int) "length" 4 (Demux.Chain.length chain);
  (* push_front order: 3,2,1,0. *)
  let order = List.map (fun p -> p.Demux.Pcb.id) (Demux.Chain.to_list chain) in
  Alcotest.(check (list int)) "order" [ 3; 2; 1; 0 ] order;
  (* Move 0 (pushed first, hence at the tail) to the front. *)
  (match nodes with
  | tail_node :: _ -> Demux.Chain.move_to_front chain tail_node
  | [] -> assert false);
  let order = List.map (fun p -> p.Demux.Pcb.id) (Demux.Chain.to_list chain) in
  Alcotest.(check (list int)) "after mtf" [ 0; 3; 2; 1 ] order;
  (* Remove the middle. *)
  (match nodes with
  | _ :: _ :: n2 :: _ ->
    Demux.Chain.remove chain n2;
    Alcotest.check_raises "double remove"
      (Invalid_argument "Chain.remove: node not linked") (fun () ->
        Demux.Chain.remove chain n2)
  | _ -> assert false);
  let order = List.map (fun p -> p.Demux.Pcb.id) (Demux.Chain.to_list chain) in
  Alcotest.(check (list int)) "after remove" [ 0; 3; 1 ] order

let test_chain_scan_counts () =
  let chain = Demux.Chain.create () in
  let stats = Demux.Lookup_stats.create () in
  List.iter
    (fun i -> ignore (Demux.Chain.push_front chain (Demux.Pcb.make ~id:i ~flow:(flow i) ())))
    [ 0; 1; 2 ];
  Demux.Lookup_stats.begin_lookup stats;
  (* List is 2,1,0 — finding 0 examines 3 PCBs. *)
  (match
     Demux.Chain.scan chain ~stats ~w0:(Demux.Flow_key.w0_of_flow (flow 0))
       ~w1:(Demux.Flow_key.w1_of_flow (flow 0))
   with
  | Some node -> Alcotest.(check int) "found 0" 0 (Demux.Chain.pcb node).Demux.Pcb.id
  | None -> Alcotest.fail "scan failed");
  Demux.Lookup_stats.end_lookup stats ~hit_cache:false ~found:true;
  let s = Demux.Lookup_stats.snapshot stats in
  Alcotest.(check int) "examined 3" 3 s.Demux.Lookup_stats.pcbs_examined

(* ------------------------------------------------------------------ *)
(* QCheck: every algorithm agrees with a reference model               *)

type op = Insert of int | Remove of int | Lookup of int | Note_send of int

let arbitrary_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (4, map (fun i -> Insert i) (int_bound 40));
        (2, map (fun i -> Remove i) (int_bound 40));
        (6, map (fun i -> Lookup i) (int_bound 40));
        (1, map (fun i -> Note_send i) (int_bound 40)) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Insert i -> Printf.sprintf "I%d" i
             | Remove i -> Printf.sprintf "R%d" i
             | Lookup i -> Printf.sprintf "L%d" i
             | Note_send i -> Printf.sprintf "S%d" i)
           ops))
    (list_size (int_range 1 200) op)

module Int_set = Set.Make (Int)

let model_agreement spec ops =
  let demux = Demux.Registry.create spec in
  let model = ref Int_set.empty in
  List.for_all
    (fun op ->
      match op with
      | Insert i ->
        if Int_set.mem i !model then (
          match demux.Demux.Registry.insert (flow i) () with
          | _ -> false (* duplicate must be rejected *)
          | exception Invalid_argument _ -> true)
        else begin
          ignore (demux.Demux.Registry.insert (flow i) ());
          model := Int_set.add i !model;
          true
        end
      | Remove i ->
        let removed = demux.Demux.Registry.remove (flow i) <> None in
        let expected = Int_set.mem i !model in
        model := Int_set.remove i !model;
        removed = expected
      | Lookup i ->
        let found = demux.Demux.Registry.lookup (flow i) <> None in
        found = Int_set.mem i !model
      | Note_send i ->
        demux.Demux.Registry.note_send (flow i);
        (* note_send never changes membership. *)
        demux.Demux.Registry.length () = Int_set.cardinal !model)
    ops
  && demux.Demux.Registry.length () = Int_set.cardinal !model

let model_tests =
  List.map
    (fun spec ->
      QCheck.Test.make ~count:150
        ~name:
          (Printf.sprintf "%s agrees with set model"
             (Demux.Registry.spec_name spec))
        arbitrary_ops (model_agreement spec))
    all_specs

let prop_lookup_count_invariant =
  QCheck.Test.make ~count:100 ~name:"stats.lookups counts every lookup"
    arbitrary_ops (fun ops ->
      let demux = Demux.Registry.create Demux.Registry.Bsd in
      let expected = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Insert i -> (
            try ignore (demux.Demux.Registry.insert (flow i) ())
            with Invalid_argument _ -> ())
          | Remove i -> ignore (demux.Demux.Registry.remove (flow i))
          | Lookup i ->
            incr expected;
            ignore (demux.Demux.Registry.lookup (flow i))
          | Note_send i -> demux.Demux.Registry.note_send (flow i))
        ops;
      (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)
        .Demux.Lookup_stats.lookups
      = !expected)

(* Per-stripe accounting (snapshot merge) and per-stripe histograms
   must both aggregate to exactly the whole-stream result: the
   parallel demultiplexers rely on the former, the observability
   export on the latter. *)
let prop_merge_snapshots_with_histograms =
  QCheck.Test.make ~count:200
    ~name:"merge_snapshots + histogram merge = whole stream"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (int_bound 500))
        (int_bound 3))
    (fun (examined_counts, stripes) ->
      let stripes = stripes + 1 in
      let make_striped () =
        Array.init stripes (fun _ ->
            let stats = Demux.Lookup_stats.create () in
            let histogram = Obs.Histogram.create () in
            Demux.Lookup_stats.set_histogram stats (Some histogram);
            (stats, histogram))
      in
      let striped = make_striped () in
      let whole_stats = Demux.Lookup_stats.create () in
      let whole_histogram = Obs.Histogram.create () in
      Demux.Lookup_stats.set_histogram whole_stats (Some whole_histogram);
      let drive stats examined =
        Demux.Lookup_stats.begin_lookup stats;
        Demux.Lookup_stats.examine stats ~count:examined ();
        Demux.Lookup_stats.end_lookup stats ~hit_cache:(examined = 0)
          ~found:(examined land 1 = 0)
      in
      List.iteri
        (fun i examined ->
          drive (fst striped.(i mod stripes)) examined;
          drive whole_stats examined)
        examined_counts;
      let merged =
        Demux.Lookup_stats.merge_snapshots
          (Array.to_list
             (Array.map (fun (s, _) -> Demux.Lookup_stats.snapshot s) striped))
      in
      let merged_histogram =
        Obs.Histogram.merge_all
          (Array.to_list (Array.map snd striped))
      in
      merged = Demux.Lookup_stats.snapshot whole_stats
      && Obs.Histogram.buckets merged_histogram
         = Obs.Histogram.buckets whole_histogram
      && Obs.Histogram.summary merged_histogram
         = Obs.Histogram.summary whole_histogram)

(* ------------------------------------------------------------------ *)
(* Flow_key: packed immediate keys                                     *)

(* Random flows over the {e full} 32-bit address space — including
   addresses whose Int32 representation is negative, the case the
   unsigned packing must mask correctly. *)
let gen_flow_full_range =
  let open QCheck.Gen in
  let word16 = int_bound 0xFFFF in
  let endpoint =
    map3
      (fun hi lo port ->
        Packet.Flow.endpoint
          (Packet.Ipv4.addr_of_int32 (Int32.of_int ((hi lsl 16) lor lo)))
          port)
      word16 word16 word16
  in
  map2
    (fun local remote -> Packet.Flow.v ~local ~remote)
    endpoint endpoint

let arbitrary_flow =
  QCheck.make ~print:Packet.Flow.to_string gen_flow_full_range

let arbitrary_flow_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Packet.Flow.to_string a ^ " / " ^ Packet.Flow.to_string b)
    QCheck.Gen.(pair gen_flow_full_range gen_flow_full_range)

let prop_flow_key_round_trip =
  QCheck.Test.make ~count:500 ~name:"flow_key round-trips and hashes like bytes"
    arbitrary_flow (fun f ->
      let k = Demux.Flow_key.of_flow f in
      Packet.Flow.equal f (Demux.Flow_key.to_flow k)
      && Demux.Flow_key.w0 k = Demux.Flow_key.w0_of_flow f
      && Demux.Flow_key.w1 k = Demux.Flow_key.w1_of_flow f
      && Demux.Flow_key.hash k
         = Hashing.Hashers.hash Hashing.Hashers.multiplicative
             (Packet.Flow.to_key_bytes f)
      && Demux.Flow_key.hash_words (Demux.Flow_key.w0 k) (Demux.Flow_key.w1 k)
         = Demux.Flow_key.hash k)

let prop_flow_key_equality_agrees =
  QCheck.Test.make ~count:500 ~name:"flow_key equal/compare agree with Flow.equal"
    arbitrary_flow_pair (fun (a, b) ->
      let ka = Demux.Flow_key.of_flow a and kb = Demux.Flow_key.of_flow b in
      Demux.Flow_key.equal ka kb = Packet.Flow.equal a b
      && (Demux.Flow_key.compare ka kb = 0) = Packet.Flow.equal a b
      && Demux.Flow_key.equal_words ka ~w0:(Demux.Flow_key.w0 kb)
           ~w1:(Demux.Flow_key.w1 kb)
         = Packet.Flow.equal a b)

(* Companion to Flow_key's 63-bit startup guard: the extreme corners
   of the 4-tuple space — 0.0.0.0 and 255.255.255.255, ports 0 and
   65535 — must round-trip through the packed words, and the words
   themselves must stay non-negative OCaml immediates.  The all-ones
   address with port 65535 is the pattern that would spill into the
   sign bit if the 48-bit layout were off by one. *)
let gen_flow_boundary =
  let open QCheck.Gen in
  let addr =
    oneofl [ 0l; 0xFFFFFFFFl; 0x7FFFFFFFl; 0x80000000l; 1l; 0xFFFFFFFEl ]
  in
  let port = oneofl [ 0; 1; 32767; 32768; 65534; 65535 ] in
  let endpoint =
    map2
      (fun a p -> Packet.Flow.endpoint (Packet.Ipv4.addr_of_int32 a) p)
      addr port
  in
  map2 (fun local remote -> Packet.Flow.v ~local ~remote) endpoint endpoint

let prop_flow_key_boundary_round_trip =
  QCheck.Test.make ~count:300
    ~name:"flow_key round-trips at the 4-tuple boundary corners"
    (QCheck.make ~print:Packet.Flow.to_string gen_flow_boundary)
    (fun f ->
      let k = Demux.Flow_key.of_flow f in
      let w0 = Demux.Flow_key.w0 k and w1 = Demux.Flow_key.w1 k in
      w0 >= 0 && w1 >= 0
      && Packet.Flow.equal f (Demux.Flow_key.to_flow k)
      && Packet.Flow.equal f
           (Demux.Flow_key.to_flow (Demux.Flow_key.make ~w0 ~w1))
      && Demux.Flow_key.hash_words w0 w1 = Demux.Flow_key.hash k)

(* ------------------------------------------------------------------ *)
(* Keyed chain scan vs a reference walk over the boxed flows           *)

(* [f] with one bit flipped in exactly one of its four fields: the near
   miss a scan comparing too few bits of the key would accept. *)
let flip_one_field (f : Packet.Flow.t) field bit =
  let flip_addr a =
    Packet.Ipv4.addr_of_int32
      (Int32.logxor (Packet.Ipv4.addr_to_int32 a)
         (Int32.shift_left 1l (bit mod 32)))
  in
  let flip_port p = p lxor (1 lsl (bit mod 16)) in
  let open Packet.Flow in
  let l = f.local and r = f.remote in
  match field with
  | 0 -> v ~local:(endpoint (flip_addr l.addr) l.port) ~remote:r
  | 1 -> v ~local:(endpoint l.addr (flip_port l.port)) ~remote:r
  | 2 -> v ~local:l ~remote:(endpoint (flip_addr r.addr) r.port)
  | _ -> v ~local:l ~remote:(endpoint r.addr (flip_port r.port))

(* A chain's flows (duplicates allowed: the scan must stop at the
   first) and a query that is resident, a one-field neighbour of a
   resident flow, or drawn afresh. *)
let gen_chain_and_query =
  let open QCheck.Gen in
  let fresh = oneof [ gen_flow_boundary; gen_flow_full_range ] in
  list_size (int_range 0 24) fresh >>= fun flows ->
  let query =
    match flows with
    | [] -> fresh
    | _ :: _ ->
      frequency
        [ (2, oneofl flows);
          (3, map3 flip_one_field (oneofl flows) (int_bound 3) (int_bound 31));
          (1, fresh) ]
  in
  map (fun q -> (flows, q)) query

let prop_chain_scan_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"keyed Chain.scan agrees with a Pcb.matches walk"
    (QCheck.make
       ~print:(fun (flows, q) ->
         String.concat "; " (List.map Packet.Flow.to_string flows)
         ^ " ? " ^ Packet.Flow.to_string q)
       gen_chain_and_query)
    (fun (flows, query) ->
      let chain = Demux.Chain.create () in
      let nodes =
        List.mapi
          (fun id flow ->
            Demux.Chain.push_front chain (Demux.Pcb.make ~id ~flow ()))
          flows
      in
      let w0 = Demux.Flow_key.w0_of_flow query
      and w1 = Demux.Flow_key.w1_of_flow query in
      (* Reference: the first PCB from the head whose boxed flow is
         [Flow.equal] to the query, charging every PCB compared. *)
      let rec walk examined = function
        | [] -> (None, examined)
        | pcb :: rest ->
          if Demux.Pcb.matches pcb query then (Some pcb, examined + 1)
          else walk (examined + 1) rest
      in
      let expected, expected_examined = walk 0 (Demux.Chain.to_list chain) in
      let stats = Demux.Lookup_stats.create () in
      Demux.Lookup_stats.begin_lookup stats;
      let found = Demux.Chain.scan chain ~stats ~w0 ~w1 in
      Demux.Lookup_stats.end_lookup stats ~hit_cache:false
        ~found:(Option.is_some found);
      let examined =
        (Demux.Lookup_stats.snapshot stats).Demux.Lookup_stats.pcbs_examined
      in
      examined = expected_examined
      && List.for_all
           (fun node ->
             Demux.Chain.matches node ~w0 ~w1
             = Demux.Pcb.matches (Demux.Chain.pcb node) query)
           nodes
      &&
      match (found, expected) with
      | None, None -> true
      | Some node, Some pcb -> Demux.Chain.pcb node == pcb
      | Some _, None | None, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Flat_table: open-addressing index vs a Hashtbl reference model      *)

type ft_op = F_insert of int | F_remove of int | F_find of int

let arbitrary_flat_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (4, map (fun i -> F_insert i) (int_bound 60));
        (2, map (fun i -> F_remove i) (int_bound 60));
        (5, map (fun i -> F_find i) (int_bound 60)) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | F_insert i -> Printf.sprintf "I%d" i
             | F_remove i -> Printf.sprintf "R%d" i
             | F_find i -> Printf.sprintf "F%d" i)
           ops))
    (list_size (int_range 1 300) op)

(* Drive the table and a Hashtbl through the same random op sequence.
   [hash] lets the property run again with degenerate hashes that
   force every key into colliding probe sequences — Robin-Hood
   displacement and backward-shift deletion must not lose or invent
   entries under maximal collision pressure either.

   A fixed prelude runs first: twenty inserts cross the first slab
   chunk (8 handles) and two growth triggers (populations 8 and 15
   from the 8-slot minimum), then ten removes and ten fresh inserts
   push every freed handle back through the free stack — so the
   random ops always land on recycled handles, a multi-chunk slab and
   a table that has resized, under whichever [resize] policy. *)
let flat_prelude =
  List.init 20 (fun i -> F_insert i)
  @ List.init 10 (fun i -> F_remove (2 * i))
  @ List.init 10 (fun i -> F_insert (40 + i))

let flat_table_model_agreement ?hash ~resize ops =
  let table = Demux.Flat_table.create ?hash ~initial_capacity:8 ~resize () in
  let model = Hashtbl.create 16 in
  let words i =
    let f = flow i in
    (Demux.Flow_key.w0_of_flow f, Demux.Flow_key.w1_of_flow f)
  in
  (* Every insert binds a fresh value, so an overwrite that lost its
     value, or two keys sharing one slab cell, shows up. *)
  let step = ref 0 in
  List.for_all
    (fun op ->
      incr step;
      match op with
      | F_insert i ->
        let w0, w1 = words i in
        Demux.Flat_table.replace table ~w0 ~w1 !step;
        Hashtbl.replace model i !step;
        Demux.Flat_table.find_opt table ~w0 ~w1 = Some !step
      | F_remove i ->
        let w0, w1 = words i in
        Demux.Flat_table.remove table ~w0 ~w1;
        Hashtbl.remove model i;
        Demux.Flat_table.find_opt table ~w0 ~w1 = None
        && not (Demux.Flat_table.mem table ~w0 ~w1)
      | F_find i ->
        let w0, w1 = words i in
        Demux.Flat_table.find_opt table ~w0 ~w1 = Hashtbl.find_opt model i
        && (match Demux.Flat_table.find table ~w0 ~w1 with
           | v -> Hashtbl.find_opt model i = Some v
           | exception Not_found -> Hashtbl.find_opt model i = None))
    (flat_prelude @ ops)
  && Demux.Flat_table.resizes table >= 2
  && Demux.Flat_table.length table = Hashtbl.length model
  && List.sort compare
       (Demux.Flat_table.fold
          (fun ~w0 ~w1 v acc -> (w0, w1, v) :: acc)
          table [])
     = List.sort compare
         (Hashtbl.fold
            (fun i v acc ->
              let w0, w1 = words i in
              (w0, w1, v) :: acc)
            model [])

let both_policies ?hash ops =
  flat_table_model_agreement ?hash ~resize:Demux.Flat_table.Incremental ops
  && flat_table_model_agreement ?hash ~resize:Demux.Flat_table.Doubling ops

let prop_flat_table_model =
  QCheck.Test.make ~count:200 ~name:"flat_table agrees with Hashtbl model"
    arbitrary_flat_ops both_policies

let prop_flat_table_model_degenerate_hash =
  QCheck.Test.make ~count:100
    ~name:"flat_table agrees with model under forced collisions"
    arbitrary_flat_ops
    (fun ops ->
      both_policies ~hash:(fun _ _ -> 0) ops
      && both_policies ~hash:(fun w0 _ -> w0 land 3) ops)

(* ------------------------------------------------------------------ *)
(* Cuckoo_table: bucketized cuckoo hashing vs the same Hashtbl model   *)

(* Same drive as [flat_table_model_agreement], but over either Storage
   backend and with the hash pair injectable: degenerate pairs aim
   every key at one bucket pair, forcing BFS kick loops to exhaust
   and spill into the stash, and the table must still agree with the
   model key for key. *)
let cuckoo_model_agreement (module T : Demux.Cuckoo_table.S) ?hash1 ?hash2 ()
    ops =
  let table = T.create2 ?hash1 ?hash2 () in
  let model = Hashtbl.create 16 in
  let words i =
    let f = flow i in
    (Demux.Flow_key.w0_of_flow f, Demux.Flow_key.w1_of_flow f)
  in
  List.for_all
    (fun op ->
      match op with
      | F_insert i ->
        let w0, w1 = words i in
        T.replace table ~w0 ~w1 i;
        Hashtbl.replace model i i;
        T.find_opt table ~w0 ~w1 = Some i
      | F_remove i ->
        let w0, w1 = words i in
        T.remove table ~w0 ~w1;
        Hashtbl.remove model i;
        T.find_opt table ~w0 ~w1 = None && not (T.mem table ~w0 ~w1)
      | F_find i ->
        let w0, w1 = words i in
        T.find_opt table ~w0 ~w1 = Hashtbl.find_opt model i
        && (match T.find table ~w0 ~w1 with
           | v -> Hashtbl.find_opt model i = Some v
           | exception Not_found -> Hashtbl.find_opt model i = None)
        && T.probe_count table ~w0 ~w1 <= 2 + T.stash_len table)
    ops
  && T.length table = Hashtbl.length model
  && T.fold (fun ~w0:_ ~w1:_ _ n -> n + 1) table 0 = Hashtbl.length model
  && T.max_probe_length table <= 2 + T.stash_len table

let prop_cuckoo_model =
  QCheck.Test.make ~count:200
    ~name:"cuckoo_table agrees with Hashtbl model (heap + offheap)"
    arbitrary_flat_ops
    (fun ops ->
      cuckoo_model_agreement (module Demux.Cuckoo_table.Heap) () ops
      && cuckoo_model_agreement (module Demux.Cuckoo_table.Offheap) () ops)

(* Degenerate primary hash: every key's home is one of 4 buckets, so
   both buckets fill and inserts ride BFS kicks constantly while the
   honest secondary still spreads. *)
let prop_cuckoo_model_degenerate_primary =
  QCheck.Test.make ~count:100
    ~name:"cuckoo_table agrees with model under a degenerate primary hash"
    arbitrary_flat_ops
    (fun ops ->
      cuckoo_model_agreement (module Demux.Cuckoo_table.Heap)
        ~hash1:(fun w0 _ -> w0 land 3) () ops
      && cuckoo_model_agreement (module Demux.Cuckoo_table.Offheap)
           ~hash1:(fun w0 _ -> w0 land 3) () ops)

(* Both hashes constant: every key targets the same bucket pair, so
   past 16 keys each insert's BFS exhausts and spills to the stash.
   The key pool stays below the 2-buckets + stash bound (32), so this
   never trips the degenerate-overflow guard; the explicit bound test
   below does. *)
let arbitrary_small_pool_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (4, map (fun i -> F_insert i) (int_bound 23));
        (2, map (fun i -> F_remove i) (int_bound 23));
        (5, map (fun i -> F_find i) (int_bound 23)) ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | F_insert i -> Printf.sprintf "I%d" i
             | F_remove i -> Printf.sprintf "R%d" i
             | F_find i -> Printf.sprintf "F%d" i)
           ops))
    (list_size (int_range 1 300) op)

let prop_cuckoo_model_stash =
  QCheck.Test.make ~count:100
    ~name:"cuckoo_table agrees with model when kicks spill to the stash"
    arbitrary_small_pool_ops
    (fun ops ->
      cuckoo_model_agreement (module Demux.Cuckoo_table.Heap)
        ~hash1:(fun _ _ -> 0) ~hash2:(fun _ _ -> 1) () ops
      && cuckoo_model_agreement (module Demux.Cuckoo_table.Offheap)
           ~hash1:(fun _ _ -> 0) ~hash2:(fun _ _ -> 1) () ops)

(* Deterministic kick-chain + stash walk: with both hashes constant
   the victim pair holds exactly 2 buckets = 16 slots, so keys 17..20
   must live in the stash, lookups must still find all 20, and the
   probe bound must hold. *)
let test_cuckoo_kick_chain_into_stash () =
  let module T = Demux.Cuckoo_table.Heap in
  let table = T.create2 ~hash1:(fun _ _ -> 0) ~hash2:(fun _ _ -> 1) () in
  let words i =
    let f = flow i in
    (Demux.Flow_key.w0_of_flow f, Demux.Flow_key.w1_of_flow f)
  in
  for i = 0 to 19 do
    let w0, w1 = words i in
    T.replace table ~w0 ~w1 i
  done;
  Alcotest.(check int) "all resident" 20 (T.length table);
  Alcotest.(check int) "overflow sits in the stash" 4 (T.stash_len table);
  for i = 0 to 19 do
    let w0, w1 = words i in
    Alcotest.(check (option int))
      (Printf.sprintf "key %d found" i)
      (Some i)
      (T.find_opt table ~w0 ~w1)
  done;
  Alcotest.(check bool) "probe bound 2 buckets + stash" true
    (T.max_probe_length table <= 2 + T.stash_len table);
  (* Remove one bucket resident and one stash resident; both classes
     of removal must neither lose nor resurrect anything. *)
  let w0, w1 = words 3 in
  T.remove table ~w0 ~w1;
  Alcotest.(check (option int)) "bucket removal" None (T.find_opt table ~w0 ~w1);
  let w0, w1 = words 19 in
  T.remove table ~w0 ~w1;
  Alcotest.(check (option int)) "stash removal" None (T.find_opt table ~w0 ~w1);
  Alcotest.(check int) "population after removals" 18 (T.length table)

(* More keys target one bucket pair than 2 buckets + stash can hold:
   the insert must fail loudly after growth retries (growth cannot
   separate keys whose hashes are constants), not loop forever. *)
let test_cuckoo_degenerate_overflow_raises () =
  let module T = Demux.Cuckoo_table.Heap in
  let table = T.create2 ~hash1:(fun _ _ -> 0) ~hash2:(fun _ _ -> 1) () in
  let words i =
    let f = flow i in
    (Demux.Flow_key.w0_of_flow f, Demux.Flow_key.w1_of_flow f)
  in
  let raised = ref None in
  (try
     for i = 0 to 39 do
       let w0, w1 = words i in
       T.replace table ~w0 ~w1 i
     done
   with Invalid_argument msg -> raised := Some msg);
  Alcotest.(check bool) "insert past the bound raises" true (!raised <> None);
  Alcotest.(check int) "bound is 2 buckets + stash"
    (2 * Demux.Cuckoo_table.slots_per_bucket + Demux.Cuckoo_table.stash_capacity)
    (T.length table)

(* The negative-lookup filter: a miss whose tag class never overflowed
   out of its primary bucket must resolve after one bucket probe. *)
let test_cuckoo_filter_short_circuits_misses () =
  let module T = Demux.Cuckoo_table.Heap in
  let table = T.create () in
  let population = Sim.Topology.flows 64 in
  Array.iteri
    (fun i f ->
      T.replace table ~w0:(Demux.Flow_key.w0_of_flow f)
        ~w1:(Demux.Flow_key.w1_of_flow f) i)
    population;
  (* At 64 keys over >= 16 buckets no bucket can have overflowed
     (load is far below one bucket's 8 slots on average), so every
     absent key must short-circuit. *)
  Alcotest.(check int) "no stash at this load" 0 (T.stash_len table);
  let absent = Sim.Topology.flows 2048 in
  let worst = ref 0 in
  for i = 1024 to 2047 do
    let f = absent.(i) in
    let p =
      T.probe_count table ~w0:(Demux.Flow_key.w0_of_flow f)
        ~w1:(Demux.Flow_key.w1_of_flow f)
    in
    if p > !worst then worst := p
  done;
  Alcotest.(check bool)
    (Printf.sprintf "misses bounded by 2 (worst %d)" !worst)
    true (!worst <= 2)

let test_flat_table_grows () =
  let table = Demux.Flat_table.create ~initial_capacity:8 () in
  Alcotest.(check int) "starting capacity" 8 (Demux.Flat_table.capacity table);
  let n = 1_000 in
  for i = 0 to n - 1 do
    let f = flow i in
    Demux.Flat_table.replace table ~w0:(Demux.Flow_key.w0_of_flow f)
      ~w1:(Demux.Flow_key.w1_of_flow f) i
  done;
  Alcotest.(check int) "all present" n (Demux.Flat_table.length table);
  Alcotest.(check bool) "stayed under 7/8 load" true
    (Demux.Flat_table.length table * 8 <= Demux.Flat_table.capacity table * 7);
  for i = 0 to n - 1 do
    let f = flow i in
    Alcotest.(check int)
      (Printf.sprintf "entry %d survived the growth" i)
      i
      (Demux.Flat_table.find table ~w0:(Demux.Flow_key.w0_of_flow f)
         ~w1:(Demux.Flow_key.w1_of_flow f))
  done;
  (* Robin Hood keeps probe sequences short even at 1000 entries. *)
  Alcotest.(check bool) "probe lengths bounded" true
    (Demux.Flat_table.max_probe_length table < 32);
  Demux.Flat_table.clear table;
  Alcotest.(check int) "clear empties" 0 (Demux.Flat_table.length table)

(* ------------------------------------------------------------------ *)
(* Incremental resize: drain accounting and the dead-slot invariant    *)

let flat_words i =
  let f = flow i in
  (Demux.Flow_key.w0_of_flow f, Demux.Flow_key.w1_of_flow f)

let test_flat_table_no_resurrection () =
  (* Regression for the tombstone drain: once a migration starts the
     old region's layout is frozen and removes dead-mark instead of
     backshifting.  A dead slot keeps its stored words, so if it could
     ever satisfy a probe, removing an old-region resident and
     re-inserting the same key would later resurrect the stale
     binding.  Cross a boundary, churn exactly that pattern while the
     drain is in flight, then drain fully and audit every key. *)
  let table : int Demux.Flat_table.t = Demux.Flat_table.create () in
  let put i v =
    let w0, w1 = flat_words i in
    Demux.Flat_table.replace table ~w0 ~w1 v
  in
  let get i =
    let w0, w1 = flat_words i in
    Demux.Flat_table.find_opt table ~w0 ~w1
  in
  let del i =
    let w0, w1 = flat_words i in
    Demux.Flat_table.remove table ~w0 ~w1
  in
  for i = 0 to 28 do put i i done;
  (* The insert reaching population 29 fires the 32 -> 64 grow. *)
  Alcotest.(check bool) "migration in flight" true
    (Demux.Flat_table.pending_migration table > 0);
  del 3;
  Alcotest.(check (option int)) "removed while draining" None (get 3);
  put 3 1003;
  Alcotest.(check (option int)) "re-insert lands fresh" (Some 1003) (get 3);
  del 7;
  put 7 1007;
  (* Push the drain to completion with further inserts. *)
  for i = 29 to 40 do put i i done;
  Alcotest.(check int) "drain complete" 0
    (Demux.Flat_table.pending_migration table);
  Alcotest.(check (option int)) "no stale binding for 3" (Some 1003) (get 3);
  Alcotest.(check (option int)) "no stale binding for 7" (Some 1007) (get 7);
  for i = 0 to 40 do
    if i <> 3 && i <> 7 then
      Alcotest.(check (option int))
        (Printf.sprintf "key %d intact" i)
        (Some i) (get i)
  done;
  Alcotest.(check int) "population" 41 (Demux.Flat_table.length table);
  Alcotest.(check int) "fold agrees" 41
    (Demux.Flat_table.fold (fun ~w0:_ ~w1:_ _ n -> n + 1) table 0)

let test_flat_table_resize_accounting () =
  (* The observability counters behind bench E31 and the pressure
     controller's insert-latency watermark. *)
  let incremental : int Demux.Flat_table.t = Demux.Flat_table.create () in
  let doubling : int Demux.Flat_table.t =
    Demux.Flat_table.create ~resize:Demux.Flat_table.Doubling ()
  in
  let presized : int Demux.Flat_table.t =
    Demux.Flat_table.create ~initial_capacity:256 ()
  in
  for i = 0 to 99 do
    let w0, w1 = flat_words i in
    Demux.Flat_table.replace incremental ~w0 ~w1 i;
    Demux.Flat_table.replace doubling ~w0 ~w1 i;
    Demux.Flat_table.replace presized ~w0 ~w1 i
  done;
  Alcotest.(check bool) "incremental crossed >= 4 boundaries" true
    (Demux.Flat_table.resizes incremental >= 4);
  Alcotest.(check int) "same trigger, same count"
    (Demux.Flat_table.resizes incremental)
    (Demux.Flat_table.resizes doubling);
  Alcotest.(check int) "doubling never carries a drain" 0
    (Demux.Flat_table.pending_migration doubling);
  Alcotest.(check int) "pre-sized never resizes" 0
    (Demux.Flat_table.resizes presized);
  (* Whatever drain the last trigger left behind retires after a
     bounded number of further mutations. *)
  let budget = ref 0 in
  while Demux.Flat_table.pending_migration incremental > 0 do
    incr budget;
    if !budget > 1_000 then Alcotest.fail "drain never completed";
    let w0, w1 = flat_words (100 + !budget) in
    Demux.Flat_table.replace incremental ~w0 ~w1 0;
    Demux.Flat_table.remove incremental ~w0 ~w1
  done;
  Alcotest.(check int) "churning the drain out left the population alone" 100
    (Demux.Flat_table.length incremental)

let test_flat_table_policies_agree_under_churn () =
  (* Differential: the same deterministic churn through both resize
     policies must be observationally identical at every step. *)
  let incremental : int Demux.Flat_table.t = Demux.Flat_table.create () in
  let doubling : int Demux.Flat_table.t =
    Demux.Flat_table.create ~resize:Demux.Flat_table.Doubling ()
  in
  let rng = Numerics.Rng.create ~seed:77 in
  let pool = 300 in
  for step = 1 to 6_000 do
    let i = Numerics.Rng.int rng ~bound:pool in
    let w0, w1 = flat_words i in
    let roll = Numerics.Rng.int rng ~bound:100 in
    if roll < 45 then begin
      Demux.Flat_table.replace incremental ~w0 ~w1 step;
      Demux.Flat_table.replace doubling ~w0 ~w1 step
    end
    else if roll < 65 then begin
      Demux.Flat_table.remove incremental ~w0 ~w1;
      Demux.Flat_table.remove doubling ~w0 ~w1
    end
    else begin
      let a = Demux.Flat_table.find_opt incremental ~w0 ~w1
      and b = Demux.Flat_table.find_opt doubling ~w0 ~w1 in
      if a <> b then
        Alcotest.fail
          (Printf.sprintf "step %d key %d: incremental %s, doubling %s" step
             i
             (match a with Some v -> string_of_int v | None -> "miss")
             (match b with Some v -> string_of_int v | None -> "miss"))
    end
  done;
  Alcotest.(check int) "same final population"
    (Demux.Flat_table.length doubling)
    (Demux.Flat_table.length incremental);
  Alcotest.(check bool) "incremental resized repeatedly" true
    (Demux.Flat_table.resizes incremental >= 4);
  let contents t =
    List.sort compare
      (Demux.Flat_table.fold
         (fun ~w0 ~w1 v acc -> (w0, w1, v) :: acc)
         t [])
  in
  Alcotest.(check bool) "same final contents" true
    (contents incremental = contents doubling)

(* ------------------------------------------------------------------ *)
(* Zero-allocation regression: the Sequent hit path                    *)

(* [Gc.minor_words] delta across 10k warm lookups.  A single word
   allocated per lookup would show as 10k words; the slack of 64
   covers only the boxing of the float counters themselves. *)
let measure_minor_words iterations f =
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    f ()
  done;
  Gc.minor_words () -. before

let test_sequent_hit_path_zero_alloc () =
  let t = Demux.Sequent.create () in
  let population = Sim.Topology.flows 256 in
  Array.iter (fun f -> ignore (Demux.Sequent.insert t f ())) population;
  let target = population.(17) in
  (* Warm: fault code in and point the chain cache at the target. *)
  ignore (Demux.Sequent.lookup_pcb t target);
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (Demux.Sequent.lookup_pcb t target))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sequent hit allocates nothing (minor-words delta %.0f)"
       delta)
    true (delta <= 64.0)

(* [lookup] returns a fresh [Some pcb] (two words); nothing else on
   these paths may allocate. *)
let result_words_per_lookup = 2.0

(* Each iteration is a cache refill followed by a cache hit, twice: the
   refill must store the scan's own option cell and the hit must hand
   back the cached cell, so neither boxes a fresh [Some]. *)
let test_bsd_hit_path_zero_alloc () =
  let t = Demux.Sequent.create ~chains:1 () in
  let population = Sim.Topology.flows 64 in
  Array.iter (fun f -> ignore (Demux.Sequent.insert t f ())) population;
  let a = population.(17) and b = population.(40) in
  ignore (Demux.Sequent.lookup t a);
  ignore (Demux.Sequent.lookup t b);
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (Demux.Sequent.lookup t a);
        ignore (Demux.Sequent.lookup t a);
        ignore (Demux.Sequent.lookup t b);
        ignore (Demux.Sequent.lookup t b))
  in
  Alcotest.(check (float 0.0))
    "bsd refill and hit allocate only the result (minor words)"
    (40_000.0 *. result_words_per_lookup) delta

(* Covers all three ways [received] is refilled: a hit on [received]
   itself, a hit on the [sent] probe ([c] was sent on last), and a
   full scan. *)
let test_sr_cache_hit_path_zero_alloc () =
  let t = Demux.Sr_cache.create () in
  let population = Sim.Topology.flows 64 in
  Array.iter (fun f -> ignore (Demux.Sr_cache.insert t f ())) population;
  let a = population.(17) and c = population.(40) in
  Demux.Sr_cache.note_send t c;
  ignore (Demux.Sr_cache.lookup t a);
  ignore (Demux.Sr_cache.lookup t c);
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (Demux.Sr_cache.lookup t a);
        ignore (Demux.Sr_cache.lookup t a);
        ignore (Demux.Sr_cache.lookup t c);
        ignore (Demux.Sr_cache.lookup t c))
  in
  Alcotest.(check (float 0.0))
    "sr-cache probes and refills allocate only the result (minor words)"
    (40_000.0 *. result_words_per_lookup) delta

(* A pushed node is [pcb; w0; w1; prev; next; linked] plus a header,
   and it is linked through one shared [Some node] cell (two words). *)
let chain_node_words = 7.0
let option_cell_words = 2.0

let test_chain_push_front_words () =
  let n = 1_000 in
  let pcbs = Array.init n (fun i -> Demux.Pcb.make ~id:i ~flow:(flow i) ()) in
  let chain = Demux.Chain.create () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Demux.Chain.push_front chain pcbs.(i))
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "push_front = one node + one option cell"
    (float_of_int n *. (chain_node_words +. option_cell_words))
    delta

(* Words per Sequent insert into a 1,000-flow table: the PCB
   (6), the chain node and its cell (9), the index entry [{node; home}]
   (3) and the index's [Some entry] cell (2). *)
let sequent_insert_words = 20.0

let test_sequent_insert_words () =
  let t = Demux.Sequent.create () in
  let population = Sim.Topology.flows 2_000 in
  Array.iteri
    (fun i f -> if i < 1_000 then ignore (Demux.Sequent.insert t f ()))
    population;
  let before = Gc.minor_words () in
  for i = 1_000 to 1_099 do
    ignore (Demux.Sequent.insert t population.(i) ())
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "sequent insert words" (100.0 *. sequent_insert_words) delta

let test_flat_table_find_zero_alloc () =
  let table = Demux.Flat_table.create () in
  let population = Sim.Topology.flows 256 in
  Array.iteri
    (fun i f ->
      Demux.Flat_table.replace table ~w0:(Demux.Flow_key.w0_of_flow f)
        ~w1:(Demux.Flow_key.w1_of_flow f) i)
    population;
  let w0 = Demux.Flow_key.w0_of_flow population.(17)
  and w1 = Demux.Flow_key.w1_of_flow population.(17) in
  ignore (Demux.Flat_table.find table ~w0 ~w1);
  ignore (Demux.Flat_table.find_opt table ~w0 ~w1);
  (* [find_opt] is what Sequent.note_send calls once per datagram: it
     must hand back the stored option cell, not box a fresh one. *)
  let delta =
    measure_minor_words 10_000 (fun () ->
        ignore (Demux.Flat_table.find table ~w0 ~w1);
        ignore (Demux.Flat_table.find_opt table ~w0 ~w1))
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "flat find/find_opt allocate nothing (minor-words delta %.0f)" delta)
    true (delta <= 64.0)

(* The warm-hit regression E35 gates: cuckoo lookups on either Storage
   backend allocate nothing once the table is built. *)
let cuckoo_find_zero_alloc (module T : Demux.Cuckoo_table.S) () =
  let table = T.create () in
  let population = Sim.Topology.flows 256 in
  Array.iteri
    (fun i f ->
      T.replace table ~w0:(Demux.Flow_key.w0_of_flow f)
        ~w1:(Demux.Flow_key.w1_of_flow f) i)
    population;
  let w0 = Demux.Flow_key.w0_of_flow population.(17)
  and w1 = Demux.Flow_key.w1_of_flow population.(17) in
  ignore (T.find table ~w0 ~w1);
  let delta =
    measure_minor_words 10_000 (fun () -> ignore (T.find table ~w0 ~w1))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s cuckoo find allocates nothing (minor-words delta %.0f)"
       T.backend delta)
    true (delta <= 64.0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    (prop_lookup_count_invariant :: prop_merge_snapshots_with_histograms
     :: prop_flow_key_round_trip :: prop_flow_key_equality_agrees
     :: prop_flow_key_boundary_round_trip :: prop_chain_scan_matches_reference
     :: prop_flat_table_model :: prop_flat_table_model_degenerate_hash
     :: prop_cuckoo_model :: prop_cuckoo_model_degenerate_primary
     :: prop_cuckoo_model_stash
     :: model_tests)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "demux"
    [ ("generic", generic_cases);
      ( "golden",
        [ Alcotest.test_case "accounting over a mixed program" `Quick
            test_golden_accounting ] );
      ( "linear",
        [ Alcotest.test_case "cost = position" `Quick test_linear_cost_is_position ] );
      ( "bsd",
        [ Alcotest.test_case "cache hit costs 1" `Quick test_bsd_cache_hit_costs_one;
          Alcotest.test_case "cache invalidated on remove" `Quick
            test_bsd_cache_invalidated_on_remove;
          Alcotest.test_case "trains hit the cache" `Quick test_bsd_hit_rate_on_trains ] );
      ( "mtf",
        [ Alcotest.test_case "moves to front" `Quick test_mtf_moves_to_front;
          Alcotest.test_case "repeat costs 1" `Quick test_mtf_repeat_costs_one;
          Alcotest.test_case "LRU order" `Quick test_mtf_lru_order ] );
      ( "sr-cache",
        [ Alcotest.test_case "probe order by kind" `Quick test_sr_probe_order;
          Alcotest.test_case "full miss cost" `Quick test_sr_full_miss_cost;
          Alcotest.test_case "remove invalidates" `Quick
            test_sr_remove_invalidates_caches ] );
      ( "sequent",
        [ Alcotest.test_case "chain confinement" `Quick test_sequent_chain_confinement;
          Alcotest.test_case "per-chain cache" `Quick test_sequent_cache_per_chain;
          Alcotest.test_case "beats bsd on OLTP shape" `Quick
            test_sequent_beats_bsd_on_oltp_shape;
          Alcotest.test_case "validation" `Quick test_sequent_validation ] );
      ( "hashed-mtf",
        [ Alcotest.test_case "repeat costs 1" `Quick test_hashed_mtf_repeat_costs_one ] );
      ( "conn-id",
        [ Alcotest.test_case "always 1" `Quick test_conn_id_always_one;
          Alcotest.test_case "id recycling" `Quick test_conn_id_recycling;
          Alcotest.test_case "lookup by id" `Quick test_conn_id_lookup_by_id ] );
      ( "resizing-hash",
        [ Alcotest.test_case "grows, stays correct" `Quick
            test_resizing_grows_and_stays_correct ] );
      ( "lru-cache",
        [ Alcotest.test_case "hit position cost" `Quick test_lru_hit_position_cost;
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "remove purges cache" `Quick
            test_lru_remove_purges_cache;
          Alcotest.test_case "K=1 equals BSD" `Quick test_lru_k1_equals_bsd_costs ] );
      ( "splay",
        [ Alcotest.test_case "repeat costs 1" `Quick test_splay_repeat_costs_one;
          Alcotest.test_case "logarithmic on uniform" `Quick
            test_splay_logarithmic_uniform;
          Alcotest.test_case "in-order iteration" `Quick test_splay_iter_in_key_order;
          Alcotest.test_case "depth under locality" `Quick
            test_splay_depth_shrinks_under_locality;
          Alcotest.test_case "remove rejoins" `Quick test_splay_remove_rejoins ] );
      ( "registry",
        [ Alcotest.test_case "spec_of_string" `Quick test_spec_of_string;
          QCheck_alcotest.to_alcotest prop_spec_name_round_trip ] );
      ( "guarded",
        [ Alcotest.test_case "caps chain length" `Quick test_guarded_caps_chain;
          Alcotest.test_case "caps total population" `Quick
            test_guarded_caps_total;
          Alcotest.test_case "reject-new policy" `Quick test_guarded_reject_new;
          Alcotest.test_case "lookup refreshes LRU" `Quick
            test_guarded_lookup_refreshes_lru;
          Alcotest.test_case "remove frees slot" `Quick
            test_guarded_remove_untracks ] );
      ( "primitives",
        [ Alcotest.test_case "lookup_stats lifecycle" `Quick
            test_lookup_stats_lifecycle;
          Alcotest.test_case "lookup_stats merge" `Quick test_lookup_stats_merge;
          Alcotest.test_case "pcb counters" `Quick test_pcb_counters ] );
      ( "chain",
        [ Alcotest.test_case "operations" `Quick test_chain_operations;
          Alcotest.test_case "scan counts" `Quick test_chain_scan_counts ] );
      ( "flat-table",
        [ Alcotest.test_case "grows, stays correct" `Quick test_flat_table_grows;
          Alcotest.test_case "dead slots never resurrect a binding" `Quick
            test_flat_table_no_resurrection;
          Alcotest.test_case "resize and drain accounting" `Quick
            test_flat_table_resize_accounting;
          Alcotest.test_case "incremental and doubling agree under churn"
            `Quick test_flat_table_policies_agree_under_churn ] );
      ( "cuckoo-table",
        [ Alcotest.test_case "kick chain crosses into the stash" `Quick
            test_cuckoo_kick_chain_into_stash;
          Alcotest.test_case "degenerate overflow raises at the bound" `Quick
            test_cuckoo_degenerate_overflow_raises;
          Alcotest.test_case "filter short-circuits misses" `Quick
            test_cuckoo_filter_short_circuits_misses ] );
      ( "zero-alloc",
        [ Alcotest.test_case "sequent hit path" `Quick
            test_sequent_hit_path_zero_alloc;
          Alcotest.test_case "bsd refill and hit" `Quick
            test_bsd_hit_path_zero_alloc;
          Alcotest.test_case "sr-cache probes and refills" `Quick
            test_sr_cache_hit_path_zero_alloc;
          Alcotest.test_case "chain push_front words" `Quick
            test_chain_push_front_words;
          Alcotest.test_case "sequent insert words" `Quick
            test_sequent_insert_words;
          Alcotest.test_case "flat_table find" `Quick
            test_flat_table_find_zero_alloc;
          Alcotest.test_case "cuckoo find (heap)" `Quick
            (cuckoo_find_zero_alloc (module Demux.Cuckoo_table.Heap));
          Alcotest.test_case "cuckoo find (offheap)" `Quick
            (cuckoo_find_zero_alloc (module Demux.Cuckoo_table.Offheap)) ] );
      ("properties", qcheck_cases) ]
