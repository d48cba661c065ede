(* Cross-core lockstep tests for the shared-nothing per-core pipeline
   (Parallel.Smp): an N-domain run over a sharded segment trace must
   reproduce a single-domain run exactly — final connection states,
   drop counters and merged lookup statistics — including runs where
   accepted connections migrate off the listener core mid-trace. *)

let server = Sim.Topology.server

let workload ?(clients = 48) ?(requests = 5) ?(close_after = false)
    ?(interleave = Sim.Segment_workload.Shuffled) () =
  Sim.Segment_workload.generate
    (Sim.Segment_workload.config ~clients ~requests_per_client:requests
       ~close_after ~interleave ())

let smp ?ring_capacity ?demux ?migrate ?on_data ?pressure ?on_pressure domains
    trace =
  Parallel.Smp.run
    (Parallel.Smp.config ?ring_capacity ?demux ?migrate ?on_data ?pressure
       ?on_pressure ~domains
       ~local_addr:server.Packet.Flow.addr ())
    trace.Sim.Segment_workload.datagrams

let check_no_violations label r =
  Alcotest.(check (list string)) (label ^ ": conservation") []
    (Parallel.Smp.violations r)

let summaries (r : Parallel.Smp.result) =
  List.map
    (fun (c : Parallel.Smp.conn_summary) ->
      ( Packet.Flow.to_string c.flow,
        Tcpcore.State.to_string c.state,
        c.bytes_in, c.bytes_out,
        Int32.to_int c.snd_nxt, Int32.to_int c.rcv_nxt,
        Int32.to_int c.snd_una ))
    r.Parallel.Smp.connections

let conn_testable =
  Alcotest.(list (pair (pair string string) (pair (pair int int) (pair (pair int int) int))))

let flat r =
  List.map
    (fun (a, b, c, d, e, f, g) -> ((a, b), ((c, d), ((e, f), g))))
    (summaries r)

let check_lockstep label single multi =
  Alcotest.check conn_testable (label ^ ": connection states") (flat single)
    (flat multi);
  Alcotest.(check (list (pair string int)))
    (label ^ ": merged drop counters")
    single.Parallel.Smp.merged_drops multi.Parallel.Smp.merged_drops;
  Alcotest.(check bool)
    (label ^ ": merged lookup stats")
    true
    (single.Parallel.Smp.merged_stats = multi.Parallel.Smp.merged_stats);
  check_no_violations label single;
  check_no_violations label multi

(* ------------------------------------------------------------------ *)
(* Lockstep without migration                                          *)

let test_lockstep_chain_affine () =
  (* Chain-affine steering keeps every Sequent chain wholly on one
     core, so even the content-dependent examined counts must agree
     exactly with the single-domain run. *)
  let trace = workload () in
  let single = smp 1 trace and multi = smp 4 trace in
  check_lockstep "chain-affine d1 vs d4" single multi;
  Alcotest.(check int)
    "every flow established" trace.Sim.Segment_workload.syns
    (List.length multi.Parallel.Smp.connections);
  List.iter
    (fun (c : Parallel.Smp.conn_summary) ->
      Alcotest.(check string)
        "established" "ESTABLISHED"
        (Tcpcore.State.to_string c.state);
      Alcotest.(check int)
        "bytes conserved" trace.Sim.Segment_workload.payload_bytes_per_flow
        c.bytes_in)
    multi.Parallel.Smp.connections;
  (* More than one domain actually participated. *)
  let active =
    Array.fold_left
      (fun n (d : Parallel.Smp.domain_result) ->
        if d.processed > 0 then n + 1 else n)
      0 multi.Parallel.Smp.per_domain
  in
  Alcotest.(check bool) "work spread across domains" true (active >= 3)

let test_lockstep_close_after () =
  (* Client FINs ride the trace: every connection must end Close_wait
     on every sharding. *)
  let trace = workload ~clients:24 ~requests:3 ~close_after:true () in
  let single = smp 1 trace and multi = smp 3 trace in
  check_lockstep "close d1 vs d3" single multi;
  List.iter
    (fun (c : Parallel.Smp.conn_summary) ->
      Alcotest.(check string)
        "close-wait" "CLOSE-WAIT"
        (Tcpcore.State.to_string c.state))
    multi.Parallel.Smp.connections

(* ------------------------------------------------------------------ *)
(* Lockstep with flow migration                                        *)

let conn_id = Demux.Registry.Conn_id { capacity = 4096 }

let test_lockstep_migrate () =
  (* All traffic lands on the listener core first; completed
     handshakes migrate to domains 1..N-1.  The single-domain run
     performs the same extract+adopt as a self-handoff, so table op
     counts and lookup stats still match exactly. *)
  let trace =
    workload ~clients:36 ~requests:5
      ~interleave:Sim.Segment_workload.Round_robin ()
  in
  let single = smp ~demux:conn_id ~migrate:true 1 trace in
  let multi = smp ~demux:conn_id ~migrate:true 3 trace in
  check_lockstep "migrate d1 vs d3" single multi;
  Alcotest.(check int) "d1: every handoff is a self-handoff" 36
    single.Parallel.Smp.self_handoffs;
  Alcotest.(check int) "d1: no cross-core handoffs" 0
    single.Parallel.Smp.handoffs;
  Alcotest.(check int) "d3: every flow migrated" 36
    multi.Parallel.Smp.handoffs;
  Alcotest.(check int) "d3: listener core retains nothing" 0
    multi.Parallel.Smp.per_domain.(0).Parallel.Smp.connections;
  Alcotest.(check int) "d3: adoptions match handoffs" 36
    (multi.Parallel.Smp.per_domain.(1).Parallel.Smp.adopted
    + multi.Parallel.Smp.per_domain.(2).Parallel.Smp.adopted);
  Alcotest.(check bool) "d3: both adopting cores used" true
    (multi.Parallel.Smp.per_domain.(1).Parallel.Smp.adopted > 0
    && multi.Parallel.Smp.per_domain.(2).Parallel.Smp.adopted > 0)

let test_migrate_shuffled_conservation () =
  (* A seeded random interleave puts data segments right behind the
     handshake-completing ACK, and 16-datagram rings keep the
     dispatcher close enough behind the listener core that they race
     the handoff: each datagram must be processed exactly once, on the
     core its flow was routed to when it was steered. *)
  let trace =
    workload ~clients:40 ~requests:6 ~close_after:true
      ~interleave:Sim.Segment_workload.Shuffled ()
  in
  let single = smp ~demux:conn_id ~migrate:true 1 trace in
  let multi = smp ~ring_capacity:16 ~demux:conn_id ~migrate:true 4 trace in
  check_lockstep "shuffled migrate d1 vs d4" single multi;
  let processed = ref 0 in
  Array.iter
    (fun (d : Parallel.Smp.domain_result) ->
      Alcotest.(check int)
        (Printf.sprintf "d%d: processed what was steered to it" d.index)
        d.steered d.processed;
      processed := !processed + d.processed)
    multi.Parallel.Smp.per_domain;
  Alcotest.(check int) "every datagram processed once"
    (Array.length trace.Sim.Segment_workload.datagrams)
    !processed;
  Alcotest.(check int) "no flow held at shutdown" 0
    multi.Parallel.Smp.unreleased;
  Alcotest.(check int) "handoff accounting exact" 40
    multi.Parallel.Smp.flushes

let test_migrate_backpressure () =
  (* Small rings keep the dispatcher close behind the listener core,
     so flows migrate mid-trace and their later datagrams are held
     while the connection moves; the default ring holds this whole
     trace, so the listener core handles everything before any
     [Flush] and nothing is held.  Two-slot rings also keep the
     dispatcher spinning on full rings while the listener core sends
     control messages: a spinning push must keep reading the control
     ring, and nothing it reads may overtake the datagram it is blocked
     on.  A ring of capacity c carries batches of up to c datagrams,
     so the other capacities leave partial batches of several sizes
     pending when [Flush] or [Adopt] goes on, and each must ship
     first. *)
  let trace =
    workload ~clients:40 ~requests:6 ~close_after:true
      ~interleave:Sim.Segment_workload.Shuffled ()
  in
  let single = smp ~demux:conn_id ~migrate:true 1 trace in
  let held =
    List.fold_left
      (fun held ring_capacity ->
        let multi = smp ~ring_capacity ~demux:conn_id ~migrate:true 3 trace in
        let label = Printf.sprintf "capacity-%d rings" ring_capacity in
        check_lockstep (label ^ ", migrate d1 vs d3") single multi;
        Alcotest.(check int) (label ^ ": every flow handed off") 40
          multi.Parallel.Smp.handoffs;
        let adopters = multi.Parallel.Smp.per_domain in
        Alcotest.(check bool) (label ^ ": adopting cores processed datagrams")
          true
          (adopters.(1).Parallel.Smp.processed
           + adopters.(2).Parallel.Smp.processed
          > 0);
        held + multi.Parallel.Smp.held)
      0 [ 2; 1; 3; 8; 16 ]
  in
  Alcotest.(check bool) "datagrams were held while flows moved" true (held > 0)

let test_migrate_fixed_target () =
  (* At 2 domains every accepted flow has one target: domain 1. *)
  let trace = workload ~clients:12 ~requests:2 () in
  let r = smp ~demux:conn_id ~migrate:true 2 trace in
  check_no_violations "fixed target" r;
  Alcotest.(check int) "all adopted by domain 1" 12
    r.Parallel.Smp.per_domain.(1).Parallel.Smp.adopted;
  Alcotest.(check int) "domain 1 owns every connection" 12
    r.Parallel.Smp.per_domain.(1).Parallel.Smp.connections

let test_migrate_reset_before_flush () =
  (* A client resets its connection right behind the handshake ACK.
     The three datagrams ship as one batch, so the listener core has
     closed the connection before its [Flush] arrives: the answer
     carries no connection, the flow goes back to the listener core,
     and nothing is handed off or left held. *)
  let client =
    Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 10 9 9 9) 40000
  in
  let listener = Packet.Flow.endpoint server.Packet.Flow.addr 8888 in
  let iss =
    Tcpcore.Stack.deterministic_iss
      (Packet.Flow.v ~local:listener ~remote:client)
  in
  let segment ?ack_number ~seq flags =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~src:client ~dst:listener ~flags ~seq ?ack_number
         ())
  in
  let r =
    Parallel.Smp.run
      (Parallel.Smp.config ~demux:conn_id ~migrate:true ~domains:2
         ~local_addr:server.Packet.Flow.addr ())
      [| segment ~seq:100l Packet.Tcp_header.flag_syn;
         segment ~seq:101l ~ack_number:(Int32.add iss 1l)
           Packet.Tcp_header.flag_ack;
         segment ~seq:101l Packet.Tcp_header.flag_rst |]
  in
  check_no_violations "reset before flush" r;
  Alcotest.(check int) "one Flush, answered" 1
    r.Parallel.Smp.per_domain.(0).Parallel.Smp.flushes;
  Alcotest.(check int) "nothing handed off" 0 r.Parallel.Smp.handoffs;
  Alcotest.(check int) "no connection left" 0
    (List.length r.Parallel.Smp.connections)

let test_migrate_corpus_oracle () =
  (* The pinned migration trace: corpus/smp-migrate.prog lowered to
     wire segments (Check.Smp_trace) and replayed through the full
     migrating pipeline.  The oracle is exact handoff conservation —
     each datagram processed once, on the listener core before its
     flow's hold or on the adoptive core after — plus per-flow final
     states: every Removed flow must be parked in TIME-WAIT on its
     adoptive core, and the retransmitted-FIN probes must not
     resurrect it. *)
  let prog =
    match Check.Op.load "corpus/smp-migrate.prog" with
    | Ok p -> p
    | Error e -> Alcotest.failf "corpus load: %s" e
  in
  let low =
    match Check.Smp_trace.lower prog with
    | Ok l -> l
    | Error e -> Alcotest.failf "lowering: %s" e
  in
  let run ?ring_capacity domains =
    Parallel.Smp.run
      (Parallel.Smp.config ?ring_capacity ~demux:conn_id ~migrate:true
         ~on_data:Check.Smp_trace.close_on_marker ~domains
         ~local_addr:server.Packet.Flow.addr ())
      low.Check.Smp_trace.datagrams
  in
  let single = run 1 in
  let check_run label multi =
    check_lockstep label single multi;
    Alcotest.(check int) (label ^ ": every datagram accounted")
      (Array.length low.Check.Smp_trace.datagrams)
      multi.Parallel.Smp.total;
    Alcotest.(check int) (label ^ ": exactly one connection per opened flow")
      low.Check.Smp_trace.opened
      (List.length multi.Parallel.Smp.connections);
    Alcotest.(check int) (label ^ ": every accepted flow handed off")
      low.Check.Smp_trace.opened multi.Parallel.Smp.handoffs;
    List.iter
      (fun (e : Check.Smp_trace.expectation) ->
        match
          List.find_opt
            (fun (c : Parallel.Smp.conn_summary) ->
              Packet.Flow.equal c.flow e.flow)
            multi.Parallel.Smp.connections
        with
        | None ->
          Alcotest.failf "%s: flow %s has no connection" label
            (Packet.Flow.to_string e.flow)
        | Some c ->
          Alcotest.(check string)
            (Packet.Flow.to_string e.flow ^ ": final state")
            (Tcpcore.State.to_string e.Check.Smp_trace.state)
            (Tcpcore.State.to_string c.state);
          Alcotest.(check int)
            (Packet.Flow.to_string e.flow ^ ": bytes delivered")
            e.Check.Smp_trace.bytes_in c.bytes_in)
      low.Check.Smp_trace.expectations;
    let time_waits =
      List.length
        (List.filter
           (fun (c : Parallel.Smp.conn_summary) ->
             Tcpcore.State.equal c.state Tcpcore.State.Time_wait)
           multi.Parallel.Smp.connections)
    in
    Alcotest.(check int) (label ^ ": no TIME-WAIT resurrection")
      low.Check.Smp_trace.closed time_waits
  in
  (* The default ring takes the whole trace before the first [Flush];
     two-slot rings make flows move mid-trace, with datagrams held. *)
  check_run "corpus d1 vs d3" (run 3);
  check_run "corpus d1 vs d3, two-slot rings" (run ~ring_capacity:2 3);
  Alcotest.(check bool) "resurrection probes actually fired" true
    (low.Check.Smp_trace.probes > 0)

(* ------------------------------------------------------------------ *)
(* Pressure under the SMP pipeline                                     *)

let test_pressure_forced_local_shed () =
  (* Forcing one domain's controller to Shed_new_flows must refuse
     exactly that domain's SYNs and leave siblings untouched: the
     controllers are per-domain, nothing is shared. *)
  let trace = workload ~clients:30 ~requests:2 () in
  let r =
    smp
      ~pressure:(Parallel.Pressure.config ())
      ~on_pressure:(fun cs ->
        Parallel.Pressure.force cs.(1) Parallel.Pressure.Shed_new_flows)
      3 trace
  in
  check_no_violations "forced shed" r;
  let d0 = r.Parallel.Smp.per_domain.(0)
  and d1 = r.Parallel.Smp.per_domain.(1)
  and d2 = r.Parallel.Smp.per_domain.(2) in
  let shed (d : Parallel.Smp.domain_result) =
    match List.assoc_opt "overload-shed-new-flow" d.drops with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "stalled domain sheds its SYNs" true (shed d1 > 0);
  Alcotest.(check int) "domain 0 sheds nothing" 0 (shed d0);
  Alcotest.(check int) "domain 2 sheds nothing" 0 (shed d2);
  Alcotest.(check int) "no connections on the degraded domain" 0
    d1.Parallel.Smp.connections;
  Alcotest.(check int) "siblings keep full service" 30
    (d0.Parallel.Smp.connections + d1.Parallel.Smp.connections
    + d2.Parallel.Smp.connections + shed d1)

let test_pressure_forced_reject () =
  (* Reject refuses a domain's datagrams at the dispatcher; the ledger
     must attribute every one of them. *)
  let trace = workload ~clients:30 ~requests:2 () in
  let r =
    smp
      ~pressure:(Parallel.Pressure.config ())
      ~on_pressure:(fun cs ->
        Parallel.Pressure.force cs.(2) Parallel.Pressure.Reject)
      3 trace
  in
  check_no_violations "forced reject" r;
  let d2 = r.Parallel.Smp.per_domain.(2) in
  Alcotest.(check bool) "datagrams were refused" true
    (d2.Parallel.Smp.rejected > 0);
  Alcotest.(check int) "nothing reached the refused ring" 0
    d2.Parallel.Smp.steered;
  Alcotest.(check int) "pressure ledger matches dispatcher ledger"
    d2.Parallel.Smp.rejected
    (match List.assoc_opt "reject" d2.Parallel.Smp.pressure_counters with
    | Some n -> n
    | None -> -1)

let test_pressure_control_never_shed () =
  (* Handoff messages share the adopting core's ring with datagrams,
     but only datagrams go through the tier gate: with domain 2 at
     Reject, its datagrams, held ones too, are refused while every
     [Adopt] still lands.  Domains 0 and 1 are pinned at Normal so
     their two-slot rings push back instead of shedding. *)
  let clients = 30 in
  let trace =
    workload ~clients ~requests:4
      ~interleave:Sim.Segment_workload.Round_robin ()
  in
  let r =
    smp ~ring_capacity:2 ~migrate:true
      ~pressure:(Parallel.Pressure.config ())
      ~on_pressure:(fun cs ->
        Parallel.Pressure.force cs.(0) Parallel.Pressure.Normal;
        Parallel.Pressure.force cs.(1) Parallel.Pressure.Normal;
        Parallel.Pressure.force cs.(2) Parallel.Pressure.Reject)
      3 trace
  in
  check_no_violations "control never shed" r;
  let adopted =
    Array.fold_left
      (fun n (d : Parallel.Smp.domain_result) -> n + d.adopted)
      0 r.Parallel.Smp.per_domain
  in
  Alcotest.(check int) "every flow handed off" clients
    r.Parallel.Smp.handoffs;
  Alcotest.(check int) "every handoff adopted" clients adopted;
  Alcotest.(check int) "every handoff flushed" clients
    r.Parallel.Smp.flushes;
  let d2 = r.Parallel.Smp.per_domain.(2) in
  Alcotest.(check bool) "the rejecting domain adopted flows" true
    (d2.Parallel.Smp.adopted > 0);
  Alcotest.(check bool) "the rejecting domain refused datagrams" true
    (d2.Parallel.Smp.rejected > 0)

let test_pressure_organic_stall () =
  (* A genuinely slow core: the application busy-waits 400 us on every
     delivery to a flow whose chain-affine core is 1, so that core's
     ring stays hot, its controller trips Shed_new_flows on its own
     observations, and the ledger still reconciles exactly. *)
  let trace =
    workload ~clients:45 ~requests:4
      ~interleave:Sim.Segment_workload.Round_robin ()
  in
  let domains = 3 in
  let chains, hasher =
    Demux.Registry.chain_geometry
      (Parallel.Smp.config ~domains ~local_addr:server.Packet.Flow.addr ())
        .Parallel.Smp.demux
  in
  let on_data _ (conn : Tcpcore.Stack.connection) _ =
    let core =
      Hashing.Hashers.bucket_flow hasher ~buckets:chains
        conn.Tcpcore.Stack.flow
      mod domains
    in
    if core = 1 then begin
      let until = Obs.Clock.now_ns () + 400_000 in
      while Obs.Clock.now_ns () < until do
        Domain.cpu_relax ()
      done
    end
  in
  let r =
    smp ~ring_capacity:16 ~on_data
      ~pressure:
        (Parallel.Pressure.config ~ring_high_pct:75 ~ring_low_pct:25 ~trip:4
           ~hold:1000 ())
      domains trace
  in
  check_no_violations "organic stall" r;
  let d1 = r.Parallel.Smp.per_domain.(1) in
  let entered tier (d : Parallel.Smp.domain_result) =
    match List.assoc_opt tier d.Parallel.Smp.tier_transitions with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "stalled domain tripped" true
    (entered "shed-new-flows" d1 > 0);
  Array.iter
    (fun (d : Parallel.Smp.domain_result) ->
      Alcotest.(check int)
        (Printf.sprintf "d%d: dispatcher drops = pressure drops" d.index)
        d.Parallel.Smp.dropped_full
        (match List.assoc_opt "drop-batches" d.Parallel.Smp.pressure_counters with
        | Some n -> n
        | None -> -1);
      Alcotest.(check int)
        (Printf.sprintf "d%d: dispatcher rejects = pressure rejects" d.index)
        d.Parallel.Smp.rejected
        (match List.assoc_opt "reject" d.Parallel.Smp.pressure_counters with
        | Some n -> n
        | None -> -1))
    r.Parallel.Smp.per_domain

(* ------------------------------------------------------------------ *)
(* Steering from flow words                                            *)

(* The reference steer: the flow's chain bucket over
   [Segment.peek_flow], core 0 when that fails. *)
let steer_by_peek_flow (cfg : Parallel.Smp.config) bytes =
  let chains, hasher = Demux.Registry.chain_geometry cfg.demux in
  match Packet.Segment.peek_flow bytes ~off:0 with
  | Error _ -> 0
  | Ok flow -> Hashing.Hashers.bucket_flow hasher ~buckets:chains flow mod cfg.domains

let steering_specs =
  [ Demux.Registry.Sequent
      { chains = Demux.Sequent.default_chains;
        hasher = Hashing.Hashers.multiplicative };
    Demux.Registry.Sequent { chains = 7; hasher = Hashing.Hashers.crc32 };
    Demux.Registry.Bsd; conn_id ]

let steer_config ?demux domains =
  Parallel.Smp.config ?demux ~domains ~local_addr:server.Packet.Flow.addr ()

let prop_steer_matches_peek_flow =
  QCheck.Test.make ~count:40
    ~name:"word steer picks bucket_flow's core over peek_flow"
    QCheck.(
      triple (int_range 1 8) (int_range 0 10_000)
        (int_range 0 (List.length steering_specs - 1)))
    (fun (domains, seed, spec) ->
      let cfg = steer_config ~demux:(List.nth steering_specs spec) domains in
      let steer = Parallel.Smp.steer cfg in
      let clean =
        (Sim.Segment_workload.generate
           (Sim.Segment_workload.config ~clients:12 ~requests_per_client:2
              ~seed ()))
          .Sim.Segment_workload.datagrams
      in
      let mutated =
        Fault.Injector.feed_all
          (Fault.Injector.create ~seed
             (Fault.Plan.v ~corrupt:0.3 ~truncate:0.3 ~tuple_flip:0.3 ()))
          (Array.to_list clean)
      in
      List.for_all
        (fun d -> steer d = steer_by_peek_flow cfg d)
        (Array.to_list clean @ mutated))

let test_steer_unreadable () =
  (* Headers whose 4-tuple cannot be read go to core 0 on both sides. *)
  let valid =
    (workload ~clients:1 ~requests:1 ()).Sim.Segment_workload.datagrams.(0)
  in
  let with_byte i v =
    let b = Bytes.copy valid in
    Bytes.set_uint8 b i v;
    b
  in
  let cfg = steer_config 5 in
  let steer = Parallel.Smp.steer cfg in
  List.iter
    (fun (label, bytes) ->
      Alcotest.(check bool) (label ^ ": unreadable") true
        (Result.is_error (Packet.Segment.peek_flow bytes ~off:0));
      Alcotest.(check int) (label ^ ": word steer") 0 (steer bytes);
      Alcotest.(check int) (label ^ ": peek_flow steer") 0
        (steer_by_peek_flow cfg bytes))
    [ ("empty", Bytes.empty); ("truncated", Bytes.sub valid 0 23);
      ("IPv6 version", with_byte 0 0x65); ("IHL 4", with_byte 0 0x44);
      ("IHL past the end", with_byte 0 0x4F); ("UDP", with_byte 9 17) ]

let test_steer_zero_alloc () =
  (* A warm steer under the default spec, from bytes to core. *)
  let steer = Parallel.Smp.steer (steer_config 4) in
  let ds = (workload ()).Sim.Segment_workload.datagrams in
  let n = Array.length ds in
  ignore (steer ds.(0));
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    ignore (Sys.opaque_identity (steer ds.(i mod n)))
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "steer allocates nothing (minor-words delta %.0f)" delta)
    true (delta <= 64.0)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let test_register_obs_and_pp () =
  let trace =
    workload ~clients:40 ~requests:6 ~close_after:true
      ~interleave:Sim.Segment_workload.Shuffled ()
  in
  let r = smp ~ring_capacity:16 ~demux:conn_id ~migrate:true 3 trace in
  check_no_violations "registered run" r;
  let obs = Obs.Registry.create () in
  Parallel.Smp.register_obs r obs;
  let snapshot = Obs.Registry.snapshot obs in
  let per_domain (dr : Parallel.Smp.domain_result) =
    List.map
      (fun (field, value) -> (Printf.sprintf "smp.d%d.%s" dr.index field, value))
      [ ("steered", dr.steered); ("processed", dr.processed);
        ("rejected", dr.rejected); ("dropped_full", dr.dropped_full);
        ("adopted", dr.adopted); ("connections", dr.connections) ]
  in
  Alcotest.(check (list (pair string int)))
    "every counter, with the result's value"
    ([ ("smp.total", r.total); ("smp.handoffs", r.handoffs);
       ("smp.self_handoffs", r.self_handoffs); ("smp.held", r.held);
       ("smp.flushes", r.flushes) ]
    @ List.concat_map per_domain (Array.to_list r.per_domain))
    (List.filter_map
       (fun (m : Obs.Registry.metric) ->
         match m.data with
         | Obs.Registry.Counter n -> Some (m.name, n)
         | Obs.Registry.Gauge _ | Obs.Registry.Histogram _ -> None)
       snapshot);
  let mentions needle (m : Obs.Registry.metric) =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length m.name
      && (String.sub m.name i n = needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check (list string)) "no stage metric" []
    (List.map
       (fun (m : Obs.Registry.metric) -> m.name)
       (List.filter (mentions "stage") snapshot));
  (match
     Result.bind
       (Obs.Json.of_string
          (Obs.Json.to_string (Obs.Registry.to_json ~label:"smp" obs)))
       Obs.Registry.of_json
   with
  | Ok read -> Alcotest.(check bool) "snapshot round-trips" true (read = snapshot)
  | Error message -> Alcotest.fail message);
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Parallel.Smp.pp r)
  in
  Array.iter
    (fun (dr : Parallel.Smp.domain_result) ->
      let prefix = Printf.sprintf "  d%d: steered %d " dr.index dr.steered in
      Alcotest.(check bool) ("pp names " ^ prefix) true
        (List.exists (String.starts_with ~prefix) lines))
    r.per_domain

let () =
  Alcotest.run "smp"
    [ ( "lockstep",
        [ Alcotest.test_case "chain-affine d1 = d4" `Quick
            test_lockstep_chain_affine;
          Alcotest.test_case "client FINs d1 = d3" `Quick
            test_lockstep_close_after ] );
      ( "migration",
        [ Alcotest.test_case "migrate d1 = d3" `Quick test_lockstep_migrate;
          Alcotest.test_case "shuffled stragglers conserved" `Quick
            test_migrate_shuffled_conservation;
          Alcotest.test_case "two-slot rings d1 = d3" `Quick
            test_migrate_backpressure;
          Alcotest.test_case "fixed target" `Quick test_migrate_fixed_target;
          Alcotest.test_case "reset before its Flush" `Quick
            test_migrate_reset_before_flush;
          Alcotest.test_case "pinned corpus oracle" `Quick
            test_migrate_corpus_oracle ] );
      ( "pressure",
        [ Alcotest.test_case "forced shed is local" `Quick
            test_pressure_forced_local_shed;
          Alcotest.test_case "forced reject ledger" `Quick
            test_pressure_forced_reject;
          Alcotest.test_case "control is never shed" `Quick
            test_pressure_control_never_shed;
          Alcotest.test_case "organic stall trips locally" `Quick
            test_pressure_organic_stall ] );
      ( "obs",
        [ Alcotest.test_case "register_obs and pp" `Quick
            test_register_obs_and_pp ] );
      ( "steering",
        [ QCheck_alcotest.to_alcotest prop_steer_matches_peek_flow;
          Alcotest.test_case "unreadable headers go to core 0" `Quick
            test_steer_unreadable;
          Alcotest.test_case "warm steer allocates nothing" `Quick
            test_steer_zero_alloc ] ) ]
