type config = {
  oltp_users : int;
  bulk_streams : int;
  bulk_rate : float;
  response_time : float;
  rtt : float;
  warmup : float;
  duration : float;
  seed : int;
}

let default_config ?(oltp_users = 1000) ?(bulk_streams = 4) () =
  { oltp_users; bulk_streams; bulk_rate = 400.0; response_time = 0.2;
    rtt = 0.001; warmup = 10.0; duration = 60.0; seed = 42 }

type result = {
  combined : Report.t;
  oltp_mean : float;
  bulk_mean : float;
}

let run ?obs ?tracer config spec =
  if config.oltp_users <= 0 then invalid_arg "Mixed_workload.run: no OLTP users";
  if config.bulk_streams < 0 then
    invalid_arg "Mixed_workload.run: negative bulk_streams";
  if config.bulk_rate <= 0.0 then invalid_arg "Mixed_workload.run: bulk_rate <= 0";
  let root_rng = Numerics.Rng.create ~seed:config.seed in
  let demux = Demux.Registry.create spec in
  let meter = Meter.create ?obs ?tracer demux in
  (* Per-traffic-class accounting on top of the meter: diff the
     aggregate examined counter around each lookup. *)
  let oltp_stats = ref (Numerics.Stats.create ()) in
  let bulk_stats = ref (Numerics.Stats.create ()) in
  let measuring = ref false in
  let examined () =
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)
      .Demux.Lookup_stats.pcbs_examined
  in
  let classified_lookup class_stats ~kind flow =
    let before = examined () in
    Meter.lookup meter ~kind flow;
    if !measuring then
      Numerics.Stats.add !class_stats (float_of_int (examined () - before))
  in
  (* Population: OLTP users first, bulk streams after. *)
  let oltp_flows = Topology.flows config.oltp_users in
  let bulk_flows =
    Array.init config.bulk_streams (fun i ->
        Topology.flow_of_client (config.oltp_users + i))
  in
  Array.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) oltp_flows;
  Array.iter (fun f -> ignore (demux.Demux.Registry.insert f ())) bulk_flows;
  let engine = Engine.create () in
  (* OLTP side: the four-packet TPC/A cycle. *)
  let think =
    Numerics.Distribution.truncated_exponential ~rate:0.1 ~cutoff:100.0
  in
  let user_rngs =
    Array.init config.oltp_users (fun _ -> Numerics.Rng.split root_rng)
  in
  let rec oltp_cycle user engine =
    let flow = oltp_flows.(user) in
    classified_lookup oltp_stats ~kind:Demux.Types.Data flow;
    Meter.note_send meter flow;
    Engine.schedule engine ~delay:config.response_time (fun engine ->
        Meter.note_send meter flow;
        Engine.schedule engine ~delay:config.rtt (fun engine ->
            classified_lookup oltp_stats ~kind:Demux.Types.Pure_ack flow;
            Engine.schedule engine
              ~delay:(Numerics.Distribution.sample think user_rngs.(user))
              (oltp_cycle user)))
  in
  for user = 0 to config.oltp_users - 1 do
    Engine.schedule engine
      ~delay:(Numerics.Distribution.sample think user_rngs.(user))
      (oltp_cycle user)
  done;
  (* Bulk side: a steady stream of data segments per connection, with
     a transmit-side ack after every second segment. *)
  let gap = 1.0 /. config.bulk_rate in
  let rec bulk_cycle stream count engine =
    let flow = bulk_flows.(stream) in
    classified_lookup bulk_stats ~kind:Demux.Types.Data flow;
    if count mod 2 = 0 then Meter.note_send meter flow;
    Engine.schedule engine ~delay:gap (bulk_cycle stream (count + 1))
  in
  for stream = 0 to config.bulk_streams - 1 do
    Engine.schedule engine
      ~delay:(gap *. float_of_int (stream + 1) /. float_of_int (config.bulk_streams + 1))
      (bulk_cycle stream 0)
  done;
  Meter.set_measuring meter false;
  Engine.run ~until:config.warmup engine;
  Meter.start_measuring meter;
  oltp_stats := Numerics.Stats.create ();
  bulk_stats := Numerics.Stats.create ();
  measuring := true;
  Engine.run ~until:(config.warmup +. config.duration) engine;
  let combined = Report.of_meter ~workload:"mixed" meter in
  { combined; oltp_mean = Numerics.Stats.mean !oltp_stats;
    bulk_mean = Numerics.Stats.mean !bulk_stats }

let pp_results ppf results =
  let w =
    Report.name_width
      (List.map (fun r -> r.combined.Report.algorithm) results)
  in
  Format.fprintf ppf "%-*s %10s %12s %12s %9s@." w "algorithm" "packets"
    "oltp-mean" "bulk-mean" "hit-rate";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-*s %10d %12.2f %12.2f %9.4f@." w
        r.combined.Report.algorithm r.combined.Report.packets r.oltp_mean
        r.bulk_mean r.combined.Report.hit_rate)
    results
