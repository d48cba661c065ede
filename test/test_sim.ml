(* Tests for the discrete-event simulator: event queue, engine,
   topology, metering and the four workloads. *)

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let test_queue_ordering () =
  let q = Sim.Event_queue.create () in
  List.iter
    (fun (t, v) -> Sim.Event_queue.add q ~time:t v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let popped = ref [] in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "z"; "a"; "b"; "c" ]
    (List.rev !popped)

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  List.iter (fun v -> Sim.Event_queue.add q ~time:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = ref [] in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | Some (_, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_queue_interleaved () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.add q ~time:5.0 "late";
  Sim.Event_queue.add q ~time:1.0 "early";
  (match Sim.Event_queue.pop q with
  | Some (t, v) ->
    Alcotest.(check string) "early first" "early" v;
    Alcotest.(check (float 1e-12)) "time" 1.0 t
  | None -> Alcotest.fail "empty");
  Sim.Event_queue.add q ~time:2.0 "middle";
  (match Sim.Event_queue.pop q with
  | Some (_, v) -> Alcotest.(check string) "middle next" "middle" v
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "one left" 1 (Sim.Event_queue.length q)

let test_queue_misc () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check bool) "pop empty" true (Sim.Event_queue.pop q = None);
  Alcotest.(check bool) "peek empty" true (Sim.Event_queue.peek_time q = None);
  Alcotest.check_raises "NaN time" (Invalid_argument "Event_queue.add: NaN time")
    (fun () -> Sim.Event_queue.add q ~time:Float.nan ());
  Sim.Event_queue.add q ~time:1.0 ();
  Sim.Event_queue.clear q;
  Alcotest.(check bool) "cleared" true (Sim.Event_queue.is_empty q)

let prop_queue_sorted =
  QCheck.Test.make ~count:200 ~name:"pops are sorted by time"
    QCheck.(list_of_size (Gen.int_range 0 300) (float_range 0.0 1000.0))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iter (fun t -> Sim.Event_queue.add q ~time:t ()) times;
      let rec check last =
        match Sim.Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && check t
      in
      check Float.neg_infinity)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_engine_runs_in_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule engine ~delay:2.0 (fun e ->
      log := ("b", Sim.Engine.now e) :: !log);
  Sim.Engine.schedule engine ~delay:1.0 (fun e ->
      log := ("a", Sim.Engine.now e) :: !log;
      (* Nested scheduling. *)
      Sim.Engine.schedule e ~delay:0.5 (fun e ->
          log := ("a2", Sim.Engine.now e) :: !log));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "execution order" [ "a"; "a2"; "b" ]
    (List.rev_map fst !log);
  Alcotest.(check int) "events" 3 (Sim.Engine.events_processed engine)

let test_engine_until () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Sim.Engine.schedule engine ~delay:t (fun _ -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.Engine.run ~until:2.0 engine;
  Alcotest.(check (list (float 1e-12))) "only <= until" [ 1.0; 2.0 ]
    (List.rev !fired);
  (* Resume picks up the rest. *)
  Sim.Engine.run ~until:10.0 engine;
  Alcotest.(check int) "all fired" 4 (List.length !fired)

let test_engine_max_events_and_stop () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    Sim.Engine.schedule e ~delay:1.0 tick
  in
  Sim.Engine.schedule engine ~delay:0.0 tick;
  Sim.Engine.run ~max_events:5 engine;
  Alcotest.(check int) "bounded" 5 !count;
  (* stop() from within a callback. *)
  let engine2 = Sim.Engine.create () in
  let count2 = ref 0 in
  let rec tick2 e =
    incr count2;
    if !count2 = 3 then Sim.Engine.stop e
    else Sim.Engine.schedule e ~delay:1.0 tick2
  in
  Sim.Engine.schedule engine2 ~delay:0.0 tick2;
  Sim.Engine.run engine2;
  Alcotest.(check int) "stopped" 3 !count2

let test_engine_validation () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      Sim.Engine.schedule engine ~delay:(-1.0) (fun _ -> ()));
  Sim.Engine.schedule engine ~delay:5.0 (fun _ -> ());
  Sim.Engine.run engine;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Sim.Engine.schedule_at engine ~time:1.0 (fun _ -> ()))

let test_engine_run_validation () =
  List.iter
    (fun (name, message, run) ->
      Alcotest.check_raises name (Invalid_argument message) (fun () ->
          run (Sim.Engine.create ())))
    [ ( "NaN until", "Engine.run: NaN until",
        fun e -> Sim.Engine.run ~until:Float.nan e );
      ( "negative until", "Engine.run: negative until",
        fun e -> Sim.Engine.run ~until:(-1.0) e );
      ( "zero max_events", "Engine.run: max_events <= 0",
        fun e -> Sim.Engine.run ~max_events:0 e );
      ( "negative max_events", "Engine.run: max_events <= 0",
        fun e -> Sim.Engine.run ~max_events:(-3) e ) ]

exception Boom

let test_engine_resumable_after_raise () =
  let engine = Sim.Engine.create () in
  let trace = ref [] in
  let note label e = trace := (label, Sim.Engine.now e) :: !trace in
  Sim.Engine.schedule engine ~delay:1.0 (note "a");
  Sim.Engine.schedule engine ~delay:2.0 (fun e ->
      note "boom" e;
      raise Boom);
  Sim.Engine.schedule engine ~delay:3.0 (note "c");
  (match Sim.Engine.run engine with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom -> ());
  (* The faulting event is reflected in clock and count... *)
  Alcotest.(check (float 0.0)) "clock at fault" 2.0 (Sim.Engine.now engine);
  Alcotest.(check int) "fault counted" 2 (Sim.Engine.events_processed engine);
  (* ...and the rest of the agenda survives a later run. *)
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "resumed to the end" 3.0 (Sim.Engine.now engine);
  Alcotest.(check (list (pair string (float 0.0))))
    "every event fired once"
    [ ("a", 1.0); ("boom", 2.0); ("c", 3.0) ]
    (List.rev !trace)

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_topology_distinct_flows () =
  let flows = Sim.Topology.flows 5000 in
  let module FS = Set.Make (struct
    type t = Packet.Flow.t

    let compare = Packet.Flow.compare
  end) in
  let set = Array.fold_left (fun s f -> FS.add f s) FS.empty flows in
  Alcotest.(check int) "all distinct" 5000 (FS.cardinal set)

let test_topology_server_side () =
  let flow = Sim.Topology.flow_of_client 0 in
  Alcotest.(check int) "local port is server's" 8888
    flow.Packet.Flow.local.Packet.Flow.port;
  Alcotest.check_raises "range" (Invalid_argument "Topology.client: index out of range")
    (fun () -> ignore (Sim.Topology.client (-1)))

(* ------------------------------------------------------------------ *)
(* Meter                                                               *)

let test_meter_kind_separation () =
  let demux = Demux.Registry.create Demux.Registry.Bsd in
  let meter = Sim.Meter.create demux in
  let flows = Sim.Topology.flows 10 in
  Array.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) flows;
  Sim.Meter.start_measuring meter;
  Sim.Meter.lookup meter ~kind:Demux.Types.Data flows.(0);
  Sim.Meter.lookup meter ~kind:Demux.Types.Data flows.(1);
  Sim.Meter.lookup meter ~kind:Demux.Types.Pure_ack flows.(2);
  Alcotest.(check int) "entry count" 2
    (Numerics.Stats.count (Sim.Meter.entry_examined meter));
  Alcotest.(check int) "ack count" 1
    (Numerics.Stats.count (Sim.Meter.ack_examined meter))

let test_meter_warmup_reset () =
  let demux = Demux.Registry.create Demux.Registry.Bsd in
  let meter = Sim.Meter.create demux in
  let flows = Sim.Topology.flows 5 in
  Array.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) flows;
  Sim.Meter.set_measuring meter false;
  Sim.Meter.lookup meter ~kind:Demux.Types.Data flows.(0);
  Alcotest.(check int) "warm-up not recorded" 0
    (Numerics.Stats.count (Sim.Meter.entry_examined meter));
  Sim.Meter.start_measuring meter;
  Sim.Meter.lookup meter ~kind:Demux.Types.Data flows.(0);
  Alcotest.(check int) "recorded after reset" 1
    (Numerics.Stats.count (Sim.Meter.entry_examined meter));
  (* Aggregate demux stats also reset at measurement start. *)
  let s = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "aggregate reset" 1 s.Demux.Lookup_stats.lookups

(* A miss is a metered lookup like any other: charged to the ledger
   and recorded, not fatal. *)
let test_meter_unknown_flow_recorded () =
  let demux = Demux.Registry.create Demux.Registry.Bsd in
  let meter = Sim.Meter.create demux in
  Array.iter
    (fun f -> ignore (demux.Demux.Registry.insert f ()))
    (Sim.Topology.flows 3);
  Sim.Meter.lookup meter ~kind:Demux.Types.Data (Sim.Topology.flow_of_client 7);
  let s = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  Alcotest.(check int) "one miss" 1 s.Demux.Lookup_stats.not_found;
  let entry = Sim.Meter.entry_examined meter in
  Alcotest.(check int) "recorded" 1 (Numerics.Stats.count entry);
  Alcotest.(check (float 0.0)) "its examinations"
    (float_of_int s.Demux.Lookup_stats.pcbs_examined)
    (Numerics.Stats.mean entry);
  Alcotest.(check bool) "the miss walked the chain" true
    (s.Demux.Lookup_stats.pcbs_examined >= 3)

(* The default guard (32 PCBs per chain, 19 chains) sheds part of 2,000
   users, whose later lookups miss.  Each workload runs the guarded
   spec to the end, and sequent-19 beside it prints the row it prints
   alone, as [tcpdemux simulate W -a sequent-19,guarded-sequent-19]
   does. *)
let test_guarded_beside_sequent () =
  let sequent =
    Demux.Registry.Sequent
      { chains = 19; hasher = Hashing.Hashers.multiplicative }
  in
  let guarded =
    Demux.Registry.Guarded
      { spec = sequent; max_chain = Demux.Guarded.default_max_chain;
        max_total = Demux.Guarded.default_max_total }
  in
  let misses run =
    let obs = Obs.Registry.create () in
    ignore (run ~obs guarded);
    match
      Obs.Registry.find (Obs.Registry.snapshot obs)
        "demux.guarded-sequent-19.not_found"
    with
    | Some { Obs.Registry.data = Obs.Registry.Counter n; _ } -> n
    | _ -> Alcotest.fail "no not_found counter"
  in
  let check workload ~run ~rows =
    Alcotest.(check bool)
      (workload ^ ": the guarded run missed")
      true
      (misses run > 0);
    match rows [ sequent; guarded ], rows [ sequent ] with
    | [ beside; _ ], [ alone ] ->
      Alcotest.(check string) (workload ^ ": sequent-19's row") alone beside
    | _ -> Alcotest.fail (workload ^ ": expected one row per spec")
  in
  let p = Analysis.Tpca_params.v ~users:2000 () in
  let tpca = Sim.Tpca_workload.default_config ~duration:20.0 p in
  check "tpca"
    ~run:(fun ~obs spec -> Sim.Tpca_workload.run ~obs tpca spec)
    ~rows:(fun specs ->
      List.map
        (fun row -> Format.asprintf "%a" Sim.Validate.pp_rows [ row ])
        (Sim.Validate.compare ~config:tpca p specs));
  let polling = Sim.Polling_workload.default_config ~users:2000 () in
  check "polling"
    ~run:(fun ~obs spec -> Sim.Polling_workload.run ~obs polling spec)
    ~rows:
      (List.map (fun spec ->
           Format.asprintf "%a" Sim.Report.pp
             (Sim.Polling_workload.run polling spec)));
  let mixed = Sim.Mixed_workload.default_config ~oltp_users:2000 () in
  check "mixed"
    ~run:(fun ~obs spec -> Sim.Mixed_workload.run ~obs mixed spec)
    ~rows:
      (List.map (fun spec ->
           Format.asprintf "%a" Sim.Mixed_workload.pp_results
             [ Sim.Mixed_workload.run mixed spec ]))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

let small_params = Analysis.Tpca_params.v ~users:200 ()

let test_tpca_matches_analysis () =
  (* The headline cross-validation at a size that runs in ~1 s. *)
  let config = Sim.Tpca_workload.default_config ~duration:400.0 small_params in
  List.iter
    (fun (spec, predicted) ->
      let report = Sim.Tpca_workload.run config spec in
      let ratio = report.Sim.Report.overall_mean /. predicted in
      if ratio < 0.9 || ratio > 1.15 then
        Alcotest.failf "%s: predicted %.1f, simulated %.1f (ratio %.3f)"
          report.Sim.Report.algorithm predicted report.Sim.Report.overall_mean
          ratio)
    [ (Demux.Registry.Bsd, Analysis.Bsd_model.cost small_params);
      (Demux.Registry.Mtf, Analysis.Mtf_model.overall_cost small_params);
      ( Demux.Registry.Sr_cache,
        Analysis.Srcache_model.overall_cost small_params ) ]

let test_tpca_matches_analysis_across_r () =
  (* The R-dependence (Equation 6's whole point) must also reproduce:
     check MTF and Sequent at a slower server. *)
  List.iter
    (fun response_time ->
      let params = Analysis.Tpca_params.v ~users:200 ~response_time () in
      let config = Sim.Tpca_workload.default_config ~duration:400.0 params in
      List.iter
        (fun (spec, predicted) ->
          let report = Sim.Tpca_workload.run config spec in
          let ratio = report.Sim.Report.overall_mean /. predicted in
          if ratio < 0.85 || ratio > 1.2 then
            Alcotest.failf "%s at R=%g: predicted %.1f simulated %.1f"
              report.Sim.Report.algorithm response_time predicted
              report.Sim.Report.overall_mean)
        [ (Demux.Registry.Mtf, Analysis.Mtf_model.overall_cost params);
          ( Demux.Registry.Sequent
              { chains = 19; hasher = Hashing.Hashers.multiplicative },
            Analysis.Sequent_model.cost params ~chains:19 ) ])
    [ 0.5; 1.0 ]

let test_tpca_deterministic_per_seed () =
  let config = Sim.Tpca_workload.default_config ~duration:50.0 small_params in
  let a = Sim.Tpca_workload.run config Demux.Registry.Bsd in
  let b = Sim.Tpca_workload.run config Demux.Registry.Bsd in
  Alcotest.(check int) "same packets" a.Sim.Report.packets b.Sim.Report.packets;
  Alcotest.(check (float 1e-12)) "same mean" a.Sim.Report.overall_mean
    b.Sim.Report.overall_mean;
  let c =
    Sim.Tpca_workload.run { config with Sim.Tpca_workload.seed = 43 }
      Demux.Registry.Bsd
  in
  Alcotest.(check bool) "different seed differs" true
    (c.Sim.Report.overall_mean <> a.Sim.Report.overall_mean
    || c.Sim.Report.packets <> a.Sim.Report.packets)

let test_tpca_packet_balance () =
  (* Half the server's receptions are entries, half are acks (up to
     edge effects at the measurement boundary). *)
  let config = Sim.Tpca_workload.default_config ~duration:300.0 small_params in
  let report = Sim.Tpca_workload.run config Demux.Registry.Bsd in
  Alcotest.(check bool)
    (Printf.sprintf "entry %.1f and ack %.1f both populated"
       report.Sim.Report.entry_mean report.Sim.Report.ack_mean)
    true
    ((not (Float.is_nan report.Sim.Report.entry_mean))
    && not (Float.is_nan report.Sim.Report.ack_mean));
  (* Offered load: 20 txn/s * 2 packets * 300 s = 12,000 +- 10%. *)
  Alcotest.(check bool)
    (Printf.sprintf "packets %d near offered load" report.Sim.Report.packets)
    true
    (report.Sim.Report.packets > 10_000 && report.Sim.Report.packets < 14_000)

let test_tpca_validation_errors () =
  let config = Sim.Tpca_workload.default_config ~duration:1.0 small_params in
  Alcotest.check_raises "users" (Invalid_argument "Tpca_workload.run: users <= 0")
    (fun () ->
      ignore
        (Sim.Tpca_workload.run { config with Sim.Tpca_workload.users = 0 }
           Demux.Registry.Bsd));
  Alcotest.check_raises "duration"
    (Invalid_argument "Tpca_workload.run: duration <= 0") (fun () ->
      ignore
        (Sim.Tpca_workload.run { config with Sim.Tpca_workload.duration = 0.0 }
           Demux.Registry.Bsd))

let test_polling_mtf_degenerates () =
  let config = Sim.Polling_workload.default_config ~users:100 ~rounds:5 () in
  let report = Sim.Polling_workload.run config Demux.Registry.Mtf in
  (* Paper: entry scans the whole list. *)
  Alcotest.(check (float 0.6)) "entry = N" 100.0 report.Sim.Report.entry_mean

let test_trains_bsd_cache_shines () =
  let config = Sim.Trains_workload.default_config ~connections:32 ~trains:500 () in
  let report = Sim.Trains_workload.run config Demux.Registry.Bsd in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate %.2f > 0.8" report.Sim.Report.hit_rate)
    true
    (report.Sim.Report.hit_rate > 0.8);
  (* Singleton trains: hit rate collapses. *)
  let flat =
    { config with
      Sim.Trains_workload.train_length = Numerics.Distribution.deterministic 0.0 }
  in
  let report_flat = Sim.Trains_workload.run flat Demux.Registry.Bsd in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate %.3f < 0.15" report_flat.Sim.Report.hit_rate)
    true
    (report_flat.Sim.Report.hit_rate < 0.15)

let test_locality_zipf_helps_mtf () =
  (* Zipf + bursts: MTF keeps hot connections near the front, so it
     beats the uncached linear scan clearly. *)
  let config = Sim.Locality_workload.default_config ~connections:128 ~packets:20_000 () in
  let mtf = Sim.Locality_workload.run config Demux.Registry.Mtf in
  let linear = Sim.Locality_workload.run config Demux.Registry.Linear in
  Alcotest.(check bool)
    (Printf.sprintf "mtf %.1f < linear %.1f" mtf.Sim.Report.overall_mean
       linear.Sim.Report.overall_mean)
    true
    (mtf.Sim.Report.overall_mean < linear.Sim.Report.overall_mean *. 0.8)

let test_delayed_acks_footnote2 () =
  (* Paper footnote 2: eliminating the query's transport-level ack
     "will have no effect on the results at the database server" — for
     stateless-transmit algorithms it is bit-for-bit identical. *)
  let config = Sim.Tpca_workload.default_config ~duration:150.0 small_params in
  let delayed = { config with Sim.Tpca_workload.delayed_acks = true } in
  List.iter
    (fun spec ->
      let base = Sim.Tpca_workload.run config spec in
      let without_ack = Sim.Tpca_workload.run delayed spec in
      Alcotest.(check (float 1e-12))
        (Demux.Registry.spec_name spec)
        base.Sim.Report.overall_mean without_ack.Sim.Report.overall_mean)
    Demux.Registry.
      [ Bsd; Mtf;
        Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative } ];
  (* The send/receive cache is the exception: its transmit path is
     stateful, so removing the ack send changes (improves) it. *)
  let base = Sim.Tpca_workload.run config Demux.Registry.Sr_cache in
  let without_ack = Sim.Tpca_workload.run delayed Demux.Registry.Sr_cache in
  Alcotest.(check bool)
    (Printf.sprintf "sr-cache moves: %.1f vs %.1f"
       base.Sim.Report.overall_mean without_ack.Sim.Report.overall_mean)
    true
    (without_ack.Sim.Report.overall_mean < base.Sim.Report.overall_mean)

let test_chatty_hit_ratio_pitfall () =
  (* Paper Section 3.4: 3x the packets lifts the hit ratio toward 67%
     but the PCBs searched per *transaction* do not drop. *)
  let config = Sim.Tpca_workload.default_config ~duration:150.0 small_params in
  let chatty = { config with Sim.Tpca_workload.extra_query_packets = 2 } in
  let base = Sim.Tpca_workload.run config Demux.Registry.Bsd in
  let noisy = Sim.Tpca_workload.run chatty Demux.Registry.Bsd in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate jumps: %.4f -> %.4f" base.Sim.Report.hit_rate
       noisy.Sim.Report.hit_rate)
    true
    (noisy.Sim.Report.hit_rate > 0.4 && base.Sim.Report.hit_rate < 0.05);
  let per_txn_base = base.Sim.Report.overall_mean *. 2.0 in
  let per_txn_noisy = noisy.Sim.Report.overall_mean *. 4.0 in
  Alcotest.(check bool)
    (Printf.sprintf "per-transaction work %.0f >= %.0f" per_txn_noisy
       (per_txn_base *. 0.95))
    true
    (per_txn_noisy >= per_txn_base *. 0.95)

let test_churn_steady_state () =
  let config = Sim.Churn_workload.default_config ~arrival_rate:40.0 () in
  (* Little's law: 40/s * 8 packets * 50 ms = 16 connections. *)
  Alcotest.(check (float 0.01)) "population" 16.0
    (Sim.Churn_workload.steady_state_population config);
  let report = Sim.Churn_workload.run config Demux.Registry.Bsd in
  Alcotest.(check string) "workload name" "churn" report.Sim.Report.workload;
  (* Mean cost is bounded by the live population's scale, far below
     the total number of connections ever created. *)
  Alcotest.(check bool)
    (Printf.sprintf "cost %.1f within population scale" report.Sim.Report.overall_mean)
    true
    (report.Sim.Report.overall_mean > 1.0 && report.Sim.Report.overall_mean < 32.0);
  (* Offered load ~ 40 conn/s * 8 packets * 60 s. *)
  Alcotest.(check bool)
    (Printf.sprintf "packets %d near offered load" report.Sim.Report.packets)
    true
    (report.Sim.Report.packets > 15_000 && report.Sim.Report.packets < 24_000)

let test_churn_no_leak () =
  (* After a run, every departed connection must have been removed:
     inserts - removes equals the (small) still-live population. *)
  let config = Sim.Churn_workload.default_config ~arrival_rate:30.0 ~duration:30.0 () in
  let report = Sim.Churn_workload.run config Demux.Registry.Sr_cache in
  ignore report;
  (* Run again against a resizing hash and check the same through the
     metered report's hit-rate sanity (no exception = no leak-induced
     duplicate insert). *)
  let report = Sim.Churn_workload.run config Demux.Registry.Resizing_hash in
  Alcotest.(check bool) "ran" true (report.Sim.Report.packets > 0)

let test_trace_replay_roundtrip () =
  (* Build a small synthetic capture and replay it. *)
  let records =
    List.concat_map
      (fun i ->
        let src = Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 10 0 0 (i + 1)) (4000 + i) in
        let dst = Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 192 168 1 1) 8888 in
        [ Packet.Segment.make ~src ~dst ~flags:Packet.Tcp_header.flag_psh_ack
            ~payload:(Printf.sprintf "q%d" i) ();
          Packet.Segment.make ~src ~dst ~flags:Packet.Tcp_header.flag_ack () ])
      (List.init 10 Fun.id)
    |> List.mapi (fun i segment ->
           { Packet.Pcap.time = float_of_int i *. 0.001;
             data = Packet.Segment.to_bytes segment })
  in
  let result = Sim.Trace_replay.replay_records records Demux.Registry.Bsd in
  Alcotest.(check int) "total" 20 result.Sim.Trace_replay.packets_total;
  Alcotest.(check int) "replayed" 20 result.Sim.Trace_replay.packets_replayed;
  Alcotest.(check int) "skipped" 0 result.Sim.Trace_replay.packets_skipped;
  Alcotest.(check int) "flows" 10 result.Sim.Trace_replay.flows_seen;
  Alcotest.(check bool) "cost positive" true
    (result.Sim.Trace_replay.report.Sim.Report.overall_mean > 0.0)

let test_trace_replay_skips_garbage () =
  let good =
    Packet.Segment.make
      ~src:(Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 10 0 0 1) 4000)
      ~dst:(Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 192 168 1 1) 8888)
      ~flags:Packet.Tcp_header.flag_syn ()
  in
  let records =
    [ { Packet.Pcap.time = 0.0; data = Bytes.make 15 'x' };
      { Packet.Pcap.time = 0.1; data = Packet.Segment.to_bytes good } ]
  in
  let result = Sim.Trace_replay.replay_records records Demux.Registry.Mtf in
  Alcotest.(check int) "skipped" 1 result.Sim.Trace_replay.packets_skipped;
  Alcotest.(check int) "replayed" 1 result.Sim.Trace_replay.packets_replayed

let test_trace_replay_missing_file () =
  match Sim.Trace_replay.replay_file "/no/such/file.pcap" Demux.Registry.Bsd with
  | Ok _ -> Alcotest.fail "opened a missing file"
  | Error _ -> ()

let test_validate_rows () =
  let params = Analysis.Tpca_params.v ~users:100 () in
  let config = Sim.Tpca_workload.default_config ~duration:100.0 params in
  let rows =
    Sim.Validate.compare ~config params
      Demux.Registry.[ Bsd; Conn_id { capacity = 256 } ]
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.3f sane" r.Sim.Validate.algorithm
           r.Sim.Validate.ratio)
        true
        (r.Sim.Validate.ratio > 0.8 && r.Sim.Validate.ratio < 1.25))
    rows

let test_predicted_cost_coverage () =
  let p = small_params in
  let has spec = Sim.Validate.predicted_cost p spec <> None in
  Alcotest.(check bool) "bsd" true (has Demux.Registry.Bsd);
  Alcotest.(check bool) "linear" true (has Demux.Registry.Linear);
  Alcotest.(check bool) "mtf" true (has Demux.Registry.Mtf);
  Alcotest.(check bool) "sr" true (has Demux.Registry.Sr_cache);
  Alcotest.(check bool) "conn-id" true (has (Demux.Registry.Conn_id { capacity = 1 }));
  Alcotest.(check bool) "resizing unmodelled" false
    (has Demux.Registry.Resizing_hash)

(* The three result tables pad the algorithm column to the longest
   name, at least 16: two rows with the same figures, one named
   guarded-sequent-19 (18 characters), print each number in the same
   columns. *)
let test_tables_align_long_names () =
  let names = [ "sequent-19"; "guarded-sequent-19" ] in
  let number_starts line =
    List.filter
      (fun i -> line.[i] <> ' ' && line.[i - 1] = ' ')
      (List.init (String.length line - 1) succ)
  in
  let check table pp =
    match String.split_on_char '\n' (Format.asprintf "%t" pp) with
    | _header :: short :: long :: _ ->
      Alcotest.(check (list int)) table (number_starts short)
        (number_starts long)
    | _ -> Alcotest.fail (table ^ ": expected a header and two rows")
  in
  let report algorithm =
    { Sim.Report.algorithm; workload = "polling"; packets = 11759;
      overall_mean = 7.84; entry_mean = 10.03; ack_mean = 5.65;
      overall_ci95 = 0.12; hit_rate = 0.2501; max_examined = 25 }
  in
  check "Report.pp_table" (fun ppf ->
      Sim.Report.pp_table ppf (List.map report names));
  check "Mixed_workload.pp_results" (fun ppf ->
      Sim.Mixed_workload.pp_results ppf
        (List.map
           (fun name ->
             { Sim.Mixed_workload.combined = report name; oltp_mean = 8.16;
               bulk_mean = 1.01 })
           names));
  check "Validate.pp_rows" (fun ppf ->
      Sim.Validate.pp_rows ppf
        (List.map
           (fun algorithm ->
             { Sim.Validate.algorithm; predicted = 6.58; simulated = 7.61;
               ci95 = 0.51; ratio = 1.156 })
           names))

(* ------------------------------------------------------------------ *)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_queue_sorted ]

(* ------------------------------------------------------------------ *)
(* Adversarial workloads                                               *)

let sequent_spec =
  Demux.Registry.Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative }

let guarded_spec ~max_chain ~max_total =
  Demux.Registry.Guarded { spec = sequent_spec; max_chain; max_total }

let test_attack_deterministic () =
  let specs = [ sequent_spec; guarded_spec ~max_chain:8 ~max_total:64 ] in
  let run () =
    Sim.Attack_workload.run_all (Sim.Attack_workload.smoke_config ~seed:11 ())
      specs
  in
  let first = run () and second = run () in
  Alcotest.(check int) "same shape" (List.length first) (List.length second);
  List.iter2
    (fun (a : Sim.Attack_workload.result) b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s replays identically" a.Sim.Attack_workload.scenario
           a.Sim.Attack_workload.algorithm)
        true (a = b))
    first second

let test_attack_collision_degrades_to_linear () =
  (* The whole point of the flood: with every flow in one chain, the
     hashed algorithm's mean lookup cost collapses to the linear
     list's (same flow count, same lookup sequence). *)
  let config = Sim.Attack_workload.smoke_config () in
  let hashed = Sim.Attack_workload.run_collision_flood config sequent_spec in
  let linear =
    Sim.Attack_workload.run_collision_flood config Demux.Registry.Linear
  in
  let deviation =
    abs_float
      (hashed.Sim.Attack_workload.mean_examined
      -. linear.Sim.Attack_workload.mean_examined)
    /. linear.Sim.Attack_workload.mean_examined
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f within 10%% of linear's %.2f"
       hashed.Sim.Attack_workload.mean_examined
       linear.Sim.Attack_workload.mean_examined)
    true (deviation < 0.10)

let test_attack_guard_caps_collision_flood () =
  let config = Sim.Attack_workload.smoke_config () in
  let max_chain = 8 in
  let result =
    Sim.Attack_workload.run_collision_flood config
      (guarded_spec ~max_chain ~max_total:2048)
  in
  Alcotest.(check int) "population capped at the chain bound" max_chain
    result.Sim.Attack_workload.table_length;
  Alcotest.(check int) "overflow shed as evictions"
    (config.Sim.Attack_workload.flood_flows - max_chain)
    result.Sim.Attack_workload.evictions;
  Alcotest.(check bool) "bounded worst case" true
    (result.Sim.Attack_workload.max_examined <= max_chain + 1)

let test_attack_guard_bounds_syn_flood () =
  let config = Sim.Attack_workload.smoke_config () in
  let unguarded = Sim.Attack_workload.run_syn_flood config sequent_spec in
  let guarded =
    Sim.Attack_workload.run_syn_flood config
      (guarded_spec ~max_chain:8 ~max_total:100)
  in
  Alcotest.(check int) "unguarded table bloats to every spoofed SYN"
    config.Sim.Attack_workload.syn_attempts
    unguarded.Sim.Attack_workload.table_length;
  Alcotest.(check bool) "guarded table bounded" true
    (guarded.Sim.Attack_workload.table_length <= 100);
  Alcotest.(check bool) "shedding reported" true
    (guarded.Sim.Attack_workload.evictions
     >= config.Sim.Attack_workload.syn_attempts - 100)

let test_attack_storm_attributes_drops () =
  let config = Sim.Attack_workload.smoke_config () in
  let result = Sim.Attack_workload.run_malformed_storm config sequent_spec in
  Alcotest.(check bool) "some datagrams shed" true
    (result.Sim.Attack_workload.drops > 0);
  Alcotest.(check bool) "parse errors attributed" true
    (result.Sim.Attack_workload.parse_errors > 0);
  Alcotest.(check bool) "parse errors are a subset of drops" true
    (result.Sim.Attack_workload.parse_errors
    <= result.Sim.Attack_workload.drops)

let () =
  Alcotest.run "sim"
    [ ( "event-queue",
        [ Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
          Alcotest.test_case "misc" `Quick test_queue_misc ] );
      ( "engine",
        [ Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "until + resume" `Quick test_engine_until;
          Alcotest.test_case "max events and stop" `Quick
            test_engine_max_events_and_stop;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "run validation" `Quick test_engine_run_validation;
          Alcotest.test_case "resumable after raise" `Quick
            test_engine_resumable_after_raise ] );
      ( "attack",
        [ Alcotest.test_case "deterministic per seed" `Quick
            test_attack_deterministic;
          Alcotest.test_case "collision flood degrades to linear" `Quick
            test_attack_collision_degrades_to_linear;
          Alcotest.test_case "guard caps collision flood" `Quick
            test_attack_guard_caps_collision_flood;
          Alcotest.test_case "guard bounds SYN flood" `Quick
            test_attack_guard_bounds_syn_flood;
          Alcotest.test_case "storm attributes drops" `Quick
            test_attack_storm_attributes_drops ] );
      ( "topology",
        [ Alcotest.test_case "distinct flows" `Quick test_topology_distinct_flows;
          Alcotest.test_case "server side" `Quick test_topology_server_side ] );
      ( "meter",
        [ Alcotest.test_case "kind separation" `Quick test_meter_kind_separation;
          Alcotest.test_case "warm-up reset" `Quick test_meter_warmup_reset;
          Alcotest.test_case "unknown flow" `Quick
            test_meter_unknown_flow_recorded;
          Alcotest.test_case "guarded misses beside sequent-19" `Quick
            test_guarded_beside_sequent ] );
      ( "tpca",
        [ Alcotest.test_case "matches analysis" `Slow test_tpca_matches_analysis;
          Alcotest.test_case "matches analysis across R" `Slow
            test_tpca_matches_analysis_across_r;
          Alcotest.test_case "deterministic per seed" `Quick
            test_tpca_deterministic_per_seed;
          Alcotest.test_case "packet balance" `Slow test_tpca_packet_balance;
          Alcotest.test_case "validation" `Quick test_tpca_validation_errors ] );
      ( "other-workloads",
        [ Alcotest.test_case "polling degrades MTF" `Quick
            test_polling_mtf_degenerates;
          Alcotest.test_case "trains reward BSD" `Quick test_trains_bsd_cache_shines;
          Alcotest.test_case "locality rewards MTF" `Quick
            test_locality_zipf_helps_mtf;
          Alcotest.test_case "delayed acks (footnote 2)" `Slow
            test_delayed_acks_footnote2;
          Alcotest.test_case "chatty hit-ratio pitfall" `Slow
            test_chatty_hit_ratio_pitfall;
          Alcotest.test_case "churn steady state" `Quick test_churn_steady_state;
          Alcotest.test_case "churn no leak" `Quick test_churn_no_leak ] );
      ( "mixed",
        [ Alcotest.test_case "sequent wins both classes" `Slow
            (fun () ->
              let config =
                Sim.Mixed_workload.default_config ~oltp_users:400
                  ~bulk_streams:2 ()
              in
              let bsd = Sim.Mixed_workload.run config Demux.Registry.Bsd in
              let sequent =
                Sim.Mixed_workload.run config
                  (Demux.Registry.Sequent
                     { chains = 19; hasher = Hashing.Hashers.multiplicative })
              in
              (* OLTP: order-of-magnitude win. *)
              Alcotest.(check bool)
                (Printf.sprintf "oltp %.1f << %.1f"
                   sequent.Sim.Mixed_workload.oltp_mean
                   bsd.Sim.Mixed_workload.oltp_mean)
                true
                (sequent.Sim.Mixed_workload.oltp_mean *. 5.0
                < bsd.Sim.Mixed_workload.oltp_mean);
              (* Bulk: both fine; sequent at least as good. *)
              Alcotest.(check bool)
                (Printf.sprintf "bulk %.2f <= %.2f"
                   sequent.Sim.Mixed_workload.bulk_mean
                   bsd.Sim.Mixed_workload.bulk_mean)
                true
                (sequent.Sim.Mixed_workload.bulk_mean
                <= bsd.Sim.Mixed_workload.bulk_mean +. 0.5);
              (* The two classes were actually both measured. *)
              Alcotest.(check bool) "classes populated" true
                ((not (Float.is_nan bsd.Sim.Mixed_workload.oltp_mean))
                && not (Float.is_nan bsd.Sim.Mixed_workload.bulk_mean)));
          Alcotest.test_case "validation" `Quick (fun () ->
              let config = Sim.Mixed_workload.default_config () in
              Alcotest.check_raises "no users"
                (Invalid_argument "Mixed_workload.run: no OLTP users")
                (fun () ->
                  ignore
                    (Sim.Mixed_workload.run
                       { config with Sim.Mixed_workload.oltp_users = 0 }
                       Demux.Registry.Bsd))) ] );
      ( "trace-replay",
        [ Alcotest.test_case "roundtrip" `Quick test_trace_replay_roundtrip;
          Alcotest.test_case "skips garbage" `Quick test_trace_replay_skips_garbage;
          Alcotest.test_case "missing file" `Quick test_trace_replay_missing_file ] );
      ( "validate",
        [ Alcotest.test_case "rows" `Slow test_validate_rows;
          Alcotest.test_case "model coverage" `Quick test_predicted_cost_coverage;
          Alcotest.test_case "tables align long names" `Quick
            test_tables_align_long_names ] );
      ("properties", qcheck_cases) ]
