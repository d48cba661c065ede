(* Chaos harness for the parallel demux pipeline.

   Each scenario drives Parallel.Dispatcher — the producer shards ops
   by flow hash into bounded SPSC rings, worker domains apply them to
   one shared striped table under a tiered pressure controller — while
   a seeded injector perturbs it (a stalled consumer, a slow worker,
   undersized rings, bursty arrivals, or a flow population sized to
   force incremental resizes mid-run).  The stalls and per-batch lag
   live in the workers' consume callback and the pacing in the
   producer loop; the sharding, batching, tier gates and drain are the
   Dispatcher's own.

   The harness does not judge the run; it records it.  Every op a
   worker applies is logged with its observed outcome, in application
   order, and every op the producer sheds is charged to a tier
   counter.  Because sharding is per-flow (RSS), a flow's ops are
   applied in FIFO order by exactly one worker, so the logs determine
   the final table contents and stats exactly — Check.Chaos replays
   them into the reference oracle and demands a perfect match:
   degradation may drop work, but must never corrupt state or lose
   accounting. *)

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

let run ?(workers = 4) ?(ops = 60_000) ?(seed = 42) scenario =
  if workers <= 0 then invalid_arg "Chaos.run: workers <= 0";
  if ops <= 0 then invalid_arg "Chaos.run: ops <= 0";
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
  let logs = Array.make workers [] in
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
  (* The injected faults live in the workers' consume callback: worker
     0's stall runs once, in its own domain, before its first pop. *)
  let consume w =
    if w = 0 then busy_wait_ns tu.stall_ns;
    fun batch ~hashes:_ ->
      if w = 0 then busy_wait_ns tu.lag_ns;
      busy_wait_ns tu.drag_ns;
      Array.iter (fun op -> logs.(w) <- apply op :: logs.(w)) batch;
      Array.length batch
  in
  let pipeline =
    Parallel.Dispatcher.start ~ring_capacity:tu.ring_capacity ~pressure
      ~workers ~batch:tu.batch
      ~hash:(fun op -> Parallel.Striped.hash_flow table op.flow)
      ~consume ()
  in
  (* The producer loop, paced so the run spans the injector's
     timescale. *)
  Array.iteri
    (fun i op ->
      if tu.burst > 0 && i > 0 && i mod tu.burst = 0 then
        busy_wait_ns tu.gap_ns;
      if tu.pace_every > 0 && i > 0 && i mod tu.pace_every = 0 then
        busy_wait_ns tu.pace_ns;
      Parallel.Dispatcher.push pipeline op)
    script;
  let run = Parallel.Dispatcher.finish pipeline in
  let logs = Array.map (fun log -> Array.of_list (List.rev log)) logs in
  let contents =
    let acc = ref [] in
    Parallel.Striped.iter
      (fun pcb -> acc := (pcb.Demux.Pcb.flow, pcb.Demux.Pcb.data) :: !acc)
      table;
    List.sort (fun (a, _) (b, _) -> Packet.Flow.compare a b) !acc
  in
  { scenario; seed; workers; offered = ops;
    delivered = Array.fold_left (fun a log -> a + Array.length log) 0 logs;
    dropped_ops = run.Parallel.Dispatcher.tier_dropped_packets;
    rejected_ops = run.Parallel.Dispatcher.rejected_packets; logs; contents;
    population = Parallel.Striped.length table;
    stats = Parallel.Striped.stats table;
    shed_flows = Parallel.Pressure.shed_flows pressure;
    pressure_dropped_ops = Parallel.Pressure.dropped_batch_packets pressure;
    pressure_rejected_ops = Parallel.Pressure.rejected_packets pressure;
    transitions = Parallel.Pressure.transitions pressure;
    max_ring_depth = run.Parallel.Dispatcher.max_ring_depth;
    elapsed_seconds = run.Parallel.Dispatcher.elapsed_seconds }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s (seed %d, %d workers): %d offered = %d applied + %d dropped + \
     %d rejected@,%d residents, %d shed flows, max ring depth %d, %.3f s@]"
    (scenario_name r.scenario) r.seed r.workers r.offered r.delivered
    r.dropped_ops r.rejected_ops r.population r.shed_flows r.max_ring_depth
    r.elapsed_seconds
