type result = {
  report : Report.t;
  packets_total : int;
  packets_replayed : int;
  packets_skipped : int;
  flows_seen : int;
}

let replay_records ?obs ?tracer ?(verify_checksum = true) records spec =
  let demux = Demux.Registry.create spec in
  let meter = Meter.create ?obs ?tracer demux in
  Meter.start_measuring meter;
  let replayed = ref 0 and skipped = ref 0 in
  List.iter
    (fun record ->
      match
        Packet.Segment.parse ~verify_checksum record.Packet.Pcap.data ~off:0
      with
      | Error _ -> incr skipped
      | Ok segment ->
        let flow = Packet.Segment.flow segment in
        let kind = Demux.Types.kind_of_segment segment in
        if demux.Demux.Registry.lookup ~kind flow = None then begin
          (* First packet of a new flow: the lookup (a charged miss,
             as in a real stack) falls through to connection setup. *)
          ignore (demux.Demux.Registry.insert flow ())
        end;
        incr replayed)
    records;
  (* The meter above is bypassed (we need miss-tolerant lookups), so
     summarise from the demux's own aggregate statistics. *)
  let snapshot = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  let report =
    { Report.algorithm = demux.Demux.Registry.name; workload = "trace";
      packets = snapshot.Demux.Lookup_stats.lookups;
      overall_mean = Demux.Lookup_stats.mean_examined snapshot;
      entry_mean = Float.nan; ack_mean = Float.nan; overall_ci95 = Float.nan;
      hit_rate = Demux.Lookup_stats.hit_rate snapshot;
      max_examined = snapshot.Demux.Lookup_stats.max_examined }
  in
  { report; packets_total = List.length records; packets_replayed = !replayed;
    packets_skipped = !skipped; flows_seen = demux.Demux.Registry.length () }

let replay_file ?obs ?tracer ?verify_checksum path spec =
  match open_in_bin path with
  | exception Sys_error message -> Error message
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match Packet.Pcap.read_all ic with
        | Error _ as e -> e
        | Ok records -> Ok (replay_records ?obs ?tracer ?verify_checksum records spec))
