type t = {
  algorithm : string;
  workload : string;
  packets : int;
  overall_mean : float;
  entry_mean : float;
  ack_mean : float;
  overall_ci95 : float;
  hit_rate : float;
  max_examined : int;
}

let of_meter ~workload meter =
  let demux = Meter.demux meter in
  let snapshot = Demux.Lookup_stats.snapshot demux.Demux.Registry.stats in
  let entry = Meter.entry_examined meter and ack = Meter.ack_examined meter in
  let combined = Numerics.Stats.merge entry ack in
  { algorithm = demux.Demux.Registry.name; workload;
    packets = Numerics.Stats.count combined;
    overall_mean = Numerics.Stats.mean combined;
    entry_mean = Numerics.Stats.mean entry;
    ack_mean = Numerics.Stats.mean ack;
    overall_ci95 = Numerics.Stats.confidence_95 combined;
    hit_rate = Demux.Lookup_stats.hit_rate snapshot;
    max_examined = snapshot.Demux.Lookup_stats.max_examined }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s on %s: %d packets@,\
     PCBs examined/packet: %.2f (+/- %.2f), entry %.2f, ack %.2f@,\
     cache hit rate %.4f, worst lookup %d@]"
    t.algorithm t.workload t.packets t.overall_mean t.overall_ci95
    t.entry_mean t.ack_mean t.hit_rate t.max_examined

let name_width names =
  List.fold_left (fun w name -> max w (String.length name)) 16 names

let pp_table ppf reports =
  let w = name_width (List.map (fun t -> t.algorithm) reports) in
  Format.fprintf ppf "%-*s %10s %10s %10s %10s %9s %6s@." w
    "algorithm" "packets" "mean" "entry" "ack" "hit-rate" "max";
  List.iter
    (fun t ->
      Format.fprintf ppf "%-*s %10d %10.2f %10.2f %10.2f %9.4f %6d@." w
        t.algorithm t.packets t.overall_mean t.entry_mean t.ack_mean
        t.hit_rate t.max_examined)
    reports
