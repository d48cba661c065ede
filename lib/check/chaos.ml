(* Chaos scenarios for the tiered parallel path, and their replay audit.

   Each scenario runs a pool of worker domains, each draining its own
   bounded SPSC ring and applying ops to one shared striped table under
   a tiered pressure controller.  The producer shards ops by flow hash
   through Parallel.Dispatcher's staging and tier policy, while a
   seeded injector perturbs the run (a stalled consumer, a slow worker,
   undersized rings, bursty arrivals, or a flow population sized to
   force incremental resizes mid-run).  The stalls and per-batch lag
   live in the workers and the pacing in the producer loop.

   The run does not judge itself; it records.  Every op a worker
   applies is logged with its observed outcome, in application order,
   and every op the producer sheds is charged to a tier counter.  The
   audit then replays the logs into the reference Oracle and demands a
   perfect match.  Why a replay is exact despite a racy run: sharding
   is per flow (RSS), so all ops on a given flow were applied by one
   worker in FIFO order, and flows never share state; replaying each
   worker's log in its recorded order reconstructs the only correct end
   state.  Tier decisions (which ops were shed) are timing-driven and
   differ run to run; the audit does not predict them, it holds the
   run to consistency: each flow owned by one worker, every logged
   outcome agreeing with the oracle at that point, every dropped op
   accounted (offered = applied + dropped + rejected, checked against
   both the producer's and the controller's ledgers), and the final
   contents and stats equal to what the logs imply. *)

type scenario =
  | Stalled_consumer
  | Slow_worker
  | Ring_full_storm
  | Burst_arrival
  | Mid_run_growth

let all =
  [ Stalled_consumer; Slow_worker; Ring_full_storm; Burst_arrival;
    Mid_run_growth ]

let scenario_name = function
  | Stalled_consumer -> "stalled-consumer"
  | Slow_worker -> "slow-worker"
  | Ring_full_storm -> "ring-full-storm"
  | Burst_arrival -> "burst-arrival"
  | Mid_run_growth -> "mid-run-growth"

let scenario_of_name s =
  List.find_opt (fun scenario -> scenario_name scenario = s) all

type op_kind = Insert | Lookup | Remove

type op = { kind : op_kind; flow : Packet.Flow.t; payload : int }

type outcome =
  | Inserted
  | Duplicate
  | Shed
  | Found of int
  | Missed
  | Removed of int
  | Absent

type event = { op : op; outcome : outcome }

type result = {
  scenario : scenario;
  seed : int;
  workers : int;
  offered : int;
  delivered : int;
  dropped_ops : int;
  rejected_ops : int;
  logs : event array array;
  contents : (Packet.Flow.t * int) list;
  population : int;
  stats : Demux.Lookup_stats.snapshot;
  shed_flows : int;
  pressure_dropped_ops : int;
  pressure_rejected_ops : int;
  transitions : (string * int) list;
  max_ring_depth : int;
  elapsed_seconds : float;
}

(* Per-scenario pipeline shape and injector knobs.  [stall_ns] is a
   one-time sleep of worker 0 before it touches its ring; [lag_ns] a
   per-batch delay of worker 0; [drag_ns] a per-batch delay of every
   worker; [burst]/[gap_ns] make the producer slam [burst] ops and
   then pause; [pace_every]/[pace_ns] pace the producer so the run
   spans the injector's timescale — an unpaced producer can exhaust
   the whole script inside a single stall, and then there is no
   "after the fault" left to recover in. *)
type tuning = {
  pool : int;
  insert_pct : int;
  lookup_pct : int;          (* remainder: removes *)
  ring_capacity : int;
  batch : int;
  stall_ns : int;
  lag_ns : int;
  drag_ns : int;
  burst : int;
  gap_ns : int;
  pace_every : int;
  pace_ns : int;
  config : Parallel.Pressure.config;
}

let tuning = function
  | Stalled_consumer ->
    { pool = 512; insert_pct = 40; lookup_pct = 40; ring_capacity = 8;
      batch = 16; stall_ns = 1_000_000; lag_ns = 0; drag_ns = 0; burst = 0;
      gap_ns = 0; pace_every = 128; pace_ns = 30_000;
      config = Parallel.Pressure.config ~trip:4 ~hold:4 () }
  | Slow_worker ->
    { pool = 512; insert_pct = 40; lookup_pct = 40; ring_capacity = 8;
      batch = 16; stall_ns = 0; lag_ns = 30_000; drag_ns = 0; burst = 0;
      gap_ns = 0; pace_every = 128; pace_ns = 10_000;
      config = Parallel.Pressure.config ~trip:4 ~hold:8 () }
  | Ring_full_storm ->
    { pool = 256; insert_pct = 40; lookup_pct = 40; ring_capacity = 2;
      batch = 8; stall_ns = 0; lag_ns = 0; drag_ns = 2_000; burst = 0;
      gap_ns = 0; pace_every = 64; pace_ns = 10_000;
      config =
        Parallel.Pressure.config ~ring_high_pct:50 ~trip:2 ~hold:16 () }
  | Burst_arrival ->
    { pool = 512; insert_pct = 40; lookup_pct = 40; ring_capacity = 4;
      batch = 16; stall_ns = 0; lag_ns = 0; drag_ns = 1_000; burst = 4096;
      gap_ns = 500_000; pace_every = 0; pace_ns = 0;
      config = Parallel.Pressure.config ~trip:4 ~hold:4 () }
  | Mid_run_growth ->
    (* Growth is the fault here, not overload: generous rings and
       watermarks keep the tiers mostly disengaged so the population
       actually climbs and every stripe's flat index migrates. *)
    { pool = 8192; insert_pct = 70; lookup_pct = 20; ring_capacity = 256;
      batch = 32; stall_ns = 0; lag_ns = 0; drag_ns = 0; burst = 0;
      gap_ns = 0; pace_every = 256; pace_ns = 20_000;
      config =
        Parallel.Pressure.config ~ring_high_pct:90 ~insert_ns_high:1_000_000
          ~trip:32 ~hold:4 () }

(* A synthetic client universe: one distinct remote address per index,
   the same server endpoint everywhere (the demux key is the 4-tuple,
   so the address alone distinguishes flows).  Not the Throughput
   population: the tuning above was calibrated on how these flows
   shard across workers. *)
let flow_of_index i =
  Packet.Flow.v
    ~local:
      (Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 192 168 1 1) 8888)
    ~remote:
      (Packet.Flow.endpoint
         (Packet.Ipv4.addr_of_octets 10
            ((i lsr 16) land 0xFF)
            ((i lsr 8) land 0xFF)
            (i land 0xFF))
         5555)

let busy_wait_ns ns =
  if ns > 0 then begin
    let t0 = Obs.Clock.now_ns () in
    while Obs.Clock.now_ns () - t0 < ns do
      Domain.cpu_relax ()
    done
  end

let applied logs = Array.fold_left (fun a log -> a + Array.length log) 0 logs

(* One scenario's run.  The producer stages each op for the worker that
   owns its flow's hash and ships every batch through the tier policy;
   each worker drains its ring, applying and logging every op, until
   the producer closes it.  The injected faults live in the workers
   (worker 0's stall runs once, in its own domain, before its first
   pop) and in the producer loop, paced so the run spans the
   injector's timescale. *)
let execute ~workers ~ops ~seed scenario =
  if workers <= 0 then invalid_arg "Chaos.run_scenario: workers <= 0";
  if ops <= 0 then invalid_arg "Chaos.run_scenario: ops <= 0";
  let tu = tuning scenario in
  let pressure = Parallel.Pressure.create ~config:tu.config () in
  let table : int Parallel.Striped.t =
    Parallel.Striped.create ~pressure ()
  in
  (* The seeded workload: payload is the op's index, so a stale PCB
     surviving a remove/re-insert cycle is distinguishable on replay. *)
  let rng = Numerics.Rng.create ~seed in
  let pool = Array.init tu.pool flow_of_index in
  let script =
    Array.init ops (fun i ->
        let roll = Numerics.Rng.int rng ~bound:100 in
        let kind =
          if roll < tu.insert_pct then Insert
          else if roll < tu.insert_pct + tu.lookup_pct then Lookup
          else Remove
        in
        { kind; flow = pool.(Numerics.Rng.int rng ~bound:tu.pool);
          payload = i })
  in
  let apply op =
    let outcome =
      match op.kind with
      | Insert -> (
        match Parallel.Striped.try_insert table op.flow op.payload with
        | `Inserted _ -> Inserted
        | `Duplicate -> Duplicate
        | `Shed -> Shed)
      | Lookup -> (
        match Parallel.Striped.lookup table op.flow with
        | Some pcb -> Found pcb.Demux.Pcb.data
        | None -> Missed)
      | Remove -> (
        match Parallel.Striped.remove table op.flow with
        | Some pcb -> Removed pcb.Demux.Pcb.data
        | None -> Absent)
    in
    { op; outcome }
  in
  let rings =
    Array.init workers (fun _ ->
        Parallel.Ring.create ~capacity:tu.ring_capacity)
  in
  let dropped = ref 0 and rejected = ref 0 and max_depth = ref 0 in
  let ship w items fill =
    let ring = rings.(w) in
    max_depth := max !max_depth (Parallel.Ring.length ring);
    match
      Parallel.Dispatcher.offer ~pressure ring (Array.sub items 0 fill)
        ~packets:fill
    with
    | Parallel.Dispatcher.Shipped -> ()
    | Dropped -> dropped := !dropped + fill
    | Rejected -> rejected := !rejected + fill
  in
  let staging =
    Parallel.Dispatcher.staging ~targets:workers ~batch:tu.batch ~ship
  in
  let started = Obs.Clock.now_ns () in
  let domains =
    Array.init workers (fun w ->
        Domain.spawn (fun () ->
            if w = 0 then busy_wait_ns tu.stall_ns;
            let log = ref [] in
            Parallel.Ring.drain rings.(w) (fun batch ->
                if w = 0 then busy_wait_ns tu.lag_ns;
                busy_wait_ns tu.drag_ns;
                Array.iter (fun op -> log := apply op :: !log) batch);
            Array.of_list (List.rev !log)))
  in
  Array.iteri
    (fun i op ->
      if tu.burst > 0 && i > 0 && i mod tu.burst = 0 then
        busy_wait_ns tu.gap_ns;
      if tu.pace_every > 0 && i > 0 && i mod tu.pace_every = 0 then
        busy_wait_ns tu.pace_ns;
      Parallel.Dispatcher.stage staging
        ~target:(Parallel.Striped.hash_flow table op.flow mod workers)
        op)
    script;
  for w = 0 to workers - 1 do
    Parallel.Dispatcher.flush staging w
  done;
  Array.iter Parallel.Ring.close rings;
  let logs = Array.map Domain.join domains in
  let elapsed_seconds =
    float_of_int (Obs.Clock.now_ns () - started) /. 1e9
  in
  let contents =
    let acc = ref [] in
    Parallel.Striped.iter
      (fun pcb -> acc := (pcb.Demux.Pcb.flow, pcb.Demux.Pcb.data) :: !acc)
      table;
    List.sort (fun (a, _) (b, _) -> Packet.Flow.compare a b) !acc
  in
  { scenario; seed; workers; offered = ops;
    delivered = applied logs;
    dropped_ops = !dropped; rejected_ops = !rejected; logs; contents;
    population = Parallel.Striped.length table;
    stats = Parallel.Striped.stats table;
    shed_flows = Parallel.Pressure.shed_flows pressure;
    pressure_dropped_ops = Parallel.Pressure.dropped_batch_packets pressure;
    pressure_rejected_ops = Parallel.Pressure.rejected_packets pressure;
    transitions = Parallel.Pressure.transitions pressure;
    max_ring_depth = !max_depth; elapsed_seconds }

(* ------------------------------------------------------------------ *)
(* Replay audit                                                        *)

exception Stop of Diff.mismatch

let flow_str = Packet.Flow.to_string

(* [fail step fmt]: stop the audit at replay index [step]. *)
let fail (r : result) step fmt =
  Printf.ksprintf
    (fun what ->
      raise
        (Stop
           { Diff.subject = scenario_name r.scenario; step; op = None; what }))
    fmt

(* Each flow's ops come from one worker's log, or the replay below
   would interleave them in an order no worker saw. *)
let check_owners (r : result) =
  let owner = Hashtbl.create 1024 in
  let step = ref (-1) in
  Array.iteri
    (fun w log ->
      Array.iter
        (fun { op; _ } ->
          incr step;
          let key = (Packet.Flow.w0 op.flow, Packet.Flow.w1 op.flow) in
          match Hashtbl.find_opt owner key with
          | None -> Hashtbl.add owner key w
          | Some first when first = w -> ()
          | Some first ->
            fail r !step "ops on %s applied by workers %d and %d"
              (flow_str op.flow) first w)
        log)
    r.logs

(* Replay the logs into [oracle], checking each event's observed
   outcome as it is applied, and predict the stats ledger into [exp].
   Stops at the first disagreement: the reconstruction is suspect from
   then on, as in Diff. *)
let replay (r : result) oracle (exp : Diff.counts) =
  let step = ref (-1) in
  Array.iter
    (Array.iter (fun { op = { flow; payload; _ }; outcome } ->
         incr step;
         let fail fmt = fail r !step fmt in
         match outcome with
         | Inserted ->
           if Oracle.mem oracle flow then
             fail "insert of %s admitted while already resident"
               (flow_str flow);
           Oracle.insert oracle flow payload;
           exp.inserts <- exp.inserts + 1
         | Duplicate ->
           if not (Oracle.mem oracle flow) then
             fail "duplicate reported for absent flow %s" (flow_str flow)
         | Shed ->
           exp.rejections <- exp.rejections + 1;
           if Oracle.mem oracle flow then
             fail "shed %s as a new flow while it was resident"
               (flow_str flow)
         | Found got -> (
           exp.lookups <- exp.lookups + 1;
           match Oracle.lookup oracle flow with
           | Some v when v = got -> exp.found <- exp.found + 1
           | Some v ->
             fail "lookup of %s returned stale payload %d, oracle has %d"
               (flow_str flow) got v
           | None ->
             fail "lookup found %s, which the oracle lost" (flow_str flow))
         | Missed -> (
           exp.lookups <- exp.lookups + 1;
           match Oracle.lookup oracle flow with
           | None -> exp.not_found <- exp.not_found + 1
           | Some _ -> fail "lookup missed resident flow %s" (flow_str flow))
         | Removed got -> (
           match Oracle.remove oracle flow with
           | Some v when v = got -> exp.removes <- exp.removes + 1
           | Some v ->
             fail "remove of %s returned stale payload %d, oracle has %d"
               (flow_str flow) got v
           | None ->
             fail "removed %s, which the oracle never held" (flow_str flow))
         | Absent ->
           if Oracle.mem oracle flow then
             fail "remove missed resident flow %s" (flow_str flow)))
    r.logs

let audit (r : result) =
  let applied = applied r.logs in
  let quiesce fmt = fail r applied fmt in
  let oracle = Oracle.create () in
  let exp = Diff.counts () in
  try
    check_owners r;
    replay r oracle exp;
    (* Conservation: nothing offered may vanish unaccounted, and the
       producer's ledger must agree with the controller's. *)
    if r.offered <> applied + r.dropped_ops + r.rejected_ops then
      quiesce "conservation: offered %d <> applied %d + dropped %d + \
               rejected %d"
        r.offered applied r.dropped_ops r.rejected_ops;
    if r.dropped_ops <> r.pressure_dropped_ops then
      quiesce "ledgers disagree: producer dropped %d, controller %d"
        r.dropped_ops r.pressure_dropped_ops;
    if r.rejected_ops <> r.pressure_rejected_ops then
      quiesce "ledgers disagree: producer rejected %d, controller %d"
        r.rejected_ops r.pressure_rejected_ops;
    if exp.rejections <> r.shed_flows then
      quiesce "ledgers disagree: logs show %d sheds, controller %d"
        exp.rejections r.shed_flows;
    (match
       Diff.audit_contents_against ~contents:r.contents ~length:r.population
         oracle
     with
    | Ok () -> ()
    | Error what -> quiesce "%s" what);
    (match Diff.audit_snapshot r.stats exp with
    | Ok () -> ()
    | Error what -> quiesce "%s" what);
    []
  with Stop mismatch -> [ mismatch ]

type scenario_outcome = { result : result; mismatches : Diff.mismatch list }

let run_scenario ?(workers = 4) ?(ops = 60_000) ~seed scenario =
  let result = execute ~workers ~ops ~seed scenario in
  { result; mismatches = audit result }

type t = {
  seed : int;
  workers : int;
  ops : int;
  outcomes : scenario_outcome list;
}

let run ?(workers = 4) ?(ops = 60_000) ?(scenarios = all) ~seed () =
  let outcomes =
    List.mapi
      (fun i scenario ->
        run_scenario ~workers ~ops ~seed:((seed * 31) + i) scenario)
      scenarios
  in
  { seed; workers; ops; outcomes }

let passed t = List.for_all (fun o -> o.mismatches = []) t.outcomes

let mismatches t = List.concat_map (fun o -> o.mismatches) t.outcomes

let pp ppf t =
  List.iter
    (fun { result = r; mismatches } ->
      Format.fprintf ppf
        "@[<v>%s (seed %d, %d workers): %d offered = %d applied + %d \
         dropped + %d rejected@,%d residents, %d shed flows, max ring depth \
         %d, %.3f s@]@,"
        (scenario_name r.scenario) r.seed r.workers r.offered r.delivered
        r.dropped_ops r.rejected_ops r.population r.shed_flows
        r.max_ring_depth r.elapsed_seconds;
      let live = List.filter (fun (_, n) -> n > 0) r.transitions in
      if live <> [] then
        Format.fprintf ppf "  tier entries: %s@,"
          (String.concat ", "
             (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) live));
      match mismatches with
      | [] -> Format.fprintf ppf "  audit: contents + stats + ledgers ok@,"
      | ms ->
        List.iter
          (fun m -> Format.fprintf ppf "  MISMATCH %a@," Diff.pp_mismatch m)
          ms)
    t.outcomes

(* ------------------------------------------------------------------ *)
(* tcpdemux-chaos/1 report                                             *)

let schema = "tcpdemux-chaos/1"

let json_of_outcome o =
  let r = o.result in
  Obs.Json.Obj
    [ ( "name",
        Obs.Json.String (scenario_name r.scenario) );
      ("seed", Obs.Json.Int r.seed);
      ("workers", Obs.Json.Int r.workers);
      ("offered", Obs.Json.Int r.offered);
      ("applied", Obs.Json.Int r.delivered);
      ("dropped", Obs.Json.Int r.dropped_ops);
      ("rejected", Obs.Json.Int r.rejected_ops);
      ("shed_flows", Obs.Json.Int r.shed_flows);
      ("residents", Obs.Json.Int r.population);
      ("max_ring_depth", Obs.Json.Int r.max_ring_depth);
      ( "transitions",
        Obs.Json.Obj
          (List.map
             (fun (name, n) -> (name, Obs.Json.Int n))
             r.transitions) );
      ( "mismatches",
        Obs.Json.List
          (List.map
             (fun (m : Diff.mismatch) ->
               Obs.Json.Obj
                 [ ("subject", Obs.Json.String m.Diff.subject);
                   ("step", Obs.Json.Int m.Diff.step);
                   ("what", Obs.Json.String m.Diff.what) ])
             o.mismatches) ) ]

let to_json t =
  Obs.Json.Obj
    [ ("schema", Obs.Json.String schema);
      ("seed", Obs.Json.Int t.seed);
      ("workers", Obs.Json.Int t.workers);
      ("ops", Obs.Json.Int t.ops);
      ("passed", Obs.Json.Bool (passed t));
      ("scenarios", Obs.Json.List (List.map json_of_outcome t.outcomes)) ]

let write path t = Obs.Json.write_file path (to_json t)

let validate_file path =
  let ( let* ) = Result.bind in
  let* json = Obs.Json.of_file path in
  let* () =
    match Option.bind (Obs.Json.member "schema" json) Obs.Json.to_string_opt with
    | Some s when s = schema -> Ok ()
    | Some s -> Error (Printf.sprintf "schema is %S, want %S" s schema)
    | None -> Error "missing \"schema\" field"
  in
  let* scenarios =
    match
      Option.bind (Obs.Json.member "scenarios" json) Obs.Json.to_list_opt
    with
    | Some [] -> Error "empty \"scenarios\" list"
    | Some l -> Ok l
    | None -> Error "missing \"scenarios\" list"
  in
  let* () =
    let bad =
      List.filter
        (fun s ->
          match
            Option.bind (Obs.Json.member "mismatches" s) Obs.Json.to_list_opt
          with
          | Some [] -> false
          | Some _ | None -> true)
        scenarios
    in
    if bad = [] then Ok ()
    else
      Error
        (Printf.sprintf "%d scenario(s) with recorded mismatches"
           (List.length bad))
  in
  match Obs.Json.member "passed" json with
  | Some (Obs.Json.Bool true) -> Ok ()
  | Some (Obs.Json.Bool false) -> Error "report says \"passed\": false"
  | Some _ | None -> Error "missing boolean \"passed\" field"
