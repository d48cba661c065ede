type config = {
  seed : int;
  flood_flows : int;
  flood_lookups : int;
  syn_attempts : int;
  storm_packets : int;
}

let default_config ?(seed = 42) () =
  { seed; flood_flows = 500; flood_lookups = 20_000; syn_attempts = 5_000;
    storm_packets = 5_000 }

let smoke_config ?(seed = 42) () =
  { seed; flood_flows = 60; flood_lookups = 1_500; syn_attempts = 400;
    storm_packets = 500 }

type result = {
  algorithm : string;
  scenario : string;
  packets : int;
  mean_examined : float;
  max_examined : int;
  table_length : int;
  evictions : int;
  rejections : int;
  drops : int;
  parse_errors : int;
  notes : string;
}

let result_of_stats ~algorithm ~scenario ~packets ~table_length ?(drops = 0)
    ?(parse_errors = 0) ?(notes = "") snapshot =
  { algorithm; scenario; packets;
    mean_examined = Demux.Lookup_stats.mean_examined snapshot;
    max_examined = snapshot.Demux.Lookup_stats.max_examined;
    table_length;
    evictions = snapshot.Demux.Lookup_stats.evictions;
    rejections = snapshot.Demux.Lookup_stats.rejections;
    drops; parse_errors; notes }

(* ------------------------------------------------------------------ *)
(* Collision flood                                                     *)

(* Synthesize [count] distinct flows that all land in chain 0 of the
   given geometry: the attacker knows the hash (they can read the same
   paper we did) and picks 4-tuples accordingly.  With H chains about
   one candidate in H qualifies, so enumeration is cheap. *)
let colliding_flows ~hasher ~chains ~count =
  let rec collect i acc found =
    if found >= count then List.rev acc
    else
      let flow = Topology.flow_of_client i in
      if Hashing.Hashers.bucket_flow hasher ~buckets:chains flow = 0 then
        collect (i + 1) (flow :: acc) (found + 1)
      else collect (i + 1) acc found
  in
  collect 0 [] 0

(* The cuckoo analogue of the chain-geometry attack: chain_geometry
   tells an attacker nothing useful about a cuckoo table (there are no
   chains), but the two hash functions are public, so the attacker
   aims every flow at both candidate buckets of ONE victim bucket
   pair.  The crafted set shares its primary bucket at every
   power-of-two mask up to [buckets] (nested masks), so the collisions
   hold from the table's first size through its growth to the flood
   population, forcing the insert path through full buckets, BFS
   kicks, and stash spills rather than degenerating to uniform
   traffic. *)
let cuckoo_colliding_flows ~buckets ~count =
  if buckets < 2 || buckets land (buckets - 1) <> 0 then
    invalid_arg "Attack_workload.cuckoo_colliding_flows: buckets not a power \
                 of two >= 2";
  let mask = buckets - 1 in
  let bucket_pair flow =
    let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
    ( Demux.Cuckoo_table.default_hash1 w0 w1 land mask,
      Demux.Cuckoo_table.default_hash2 w0 w1 land mask )
  in
  (* The victim pair: primary bucket 0, secondary taken from the first
     candidate that lands a genuine two-bucket pair. *)
  let scan_cap = 32_000_000 in
  let rec pick_secondary i =
    if i >= scan_cap then None
    else
      let b1, b2 = bucket_pair (Topology.flow_of_client i) in
      if b1 = 0 && b2 <> 0 then Some b2 else pick_secondary (i + 1)
  in
  match pick_secondary 0 with
  | None -> ([], 0)
  | Some victim ->
    let rec collect i acc exact =
      if exact >= count || i >= scan_cap then (acc, exact, i)
      else
        let flow = Topology.flow_of_client i in
        let b1, b2 = bucket_pair flow in
        if b1 = 0 && b2 = victim then collect (i + 1) (flow :: acc) (exact + 1)
        else collect (i + 1) acc exact
    in
    let acc, exact, resume = collect 0 [] 0 in
    (* If the pair family runs dry inside the scan cap, pad with
       primary-bucket-only colliders (client indexes past [resume] are
       fresh, so no duplicates): still every flow through bucket 0's
       tag vector and filter. *)
    let rec pad i acc have =
      if have >= count || i >= scan_cap then acc
      else
        let flow = Topology.flow_of_client i in
        let b1, _ = bucket_pair flow in
        if b1 = 0 then pad (i + 1) (flow :: acc) (have + 1)
        else pad (i + 1) acc have
    in
    let flows = if exact >= count then acc else pad resume acc exact in
    (List.rev flows, exact)

let rec targets_cuckoo = function
  | Demux.Registry.Cuckoo -> true
  | Demux.Registry.Guarded { spec; _ } -> targets_cuckoo spec
  | _ -> false

let observe_demux ~scenario obs tracer demux =
  (match obs with
  | Some obs ->
    Demux.Registry.observe
      ~prefix:
        (Printf.sprintf "attack.%s.%s" scenario demux.Demux.Registry.name)
      obs demux
  | None -> ());
  match tracer with
  | Some tracer ->
    Demux.Lookup_stats.set_tracer demux.Demux.Registry.stats tracer
  | None -> ()

let observe_stack ~scenario ~spec obs tracer stack =
  (match obs with
  | Some obs ->
    Tcpcore.Stack.register_obs
      ~prefix:
        (Printf.sprintf "attack.%s.%s" scenario
           (Demux.Registry.spec_name spec))
      stack obs
  | None -> ());
  match tracer with
  | Some tracer -> Tcpcore.Stack.set_tracer stack tracer
  | None -> ()

(* One charged data lookup, hit or miss: a guard may have shed the
   flow. *)
let lookup demux flow =
  match
    demux.Demux.Registry.lookup Demux.Types.Data ~w0:(Packet.Flow.w0 flow)
      ~w1:(Packet.Flow.w1 flow)
  with
  | _ | (exception Not_found) -> ()

(* Bucket-pair variant for cuckoo specs: same scenario shape (insert
   the crafted flows, then hammer lookups over them), but the flows
   aim at one victim bucket pair of the bucket count the table will
   grow to for this population, so inserts ride kick chains into the
   stash instead of spreading uniformly. *)
let run_cuckoo_collision_flood ?obs ?tracer config spec =
  let buckets = Demux.Cuckoo_table.buckets_for config.flood_flows in
  let flow_list, exact =
    cuckoo_colliding_flows ~buckets ~count:config.flood_flows
  in
  let flows = Array.of_list flow_list in
  let demux = Demux.Registry.create spec in
  observe_demux ~scenario:"collision-flood" obs tracer demux;
  Array.iter (fun flow -> ignore (demux.Demux.Registry.insert flow ())) flows;
  let rng = Numerics.Rng.create ~seed:config.seed in
  for _ = 1 to config.flood_lookups do
    let flow = flows.(Numerics.Rng.int rng ~bound:(Array.length flows)) in
    lookup demux flow
  done;
  result_of_stats ~algorithm:demux.Demux.Registry.name
    ~scenario:"collision-flood" ~packets:config.flood_lookups
    ~table_length:(demux.Demux.Registry.length ())
    ~notes:
      (Printf.sprintf "bucket-pair %d/%d exact of %d flows at %d buckets"
         exact (Array.length flows) (Array.length flows) buckets)
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)

let run_collision_flood ?obs ?tracer config spec =
  if targets_cuckoo spec then run_cuckoo_collision_flood ?obs ?tracer config spec
  else
  let chains, hasher = Demux.Registry.chain_geometry spec in
  let flows =
    Array.of_list (colliding_flows ~hasher ~chains ~count:config.flood_flows)
  in
  let demux = Demux.Registry.create spec in
  observe_demux ~scenario:"collision-flood" obs tracer demux;
  Array.iter (fun flow -> ignore (demux.Demux.Registry.insert flow ())) flows;
  let rng = Numerics.Rng.create ~seed:config.seed in
  for _ = 1 to config.flood_lookups do
    let flow = flows.(Numerics.Rng.int rng ~bound:(Array.length flows)) in
    lookup demux flow
  done;
  let quality =
    Hashing.Quality.evaluate_hash hasher ~buckets:chains
      (Array.to_list flows)
  in
  result_of_stats ~algorithm:demux.Demux.Registry.name
    ~scenario:"collision-flood" ~packets:config.flood_lookups
    ~table_length:(demux.Demux.Registry.length ())
    ~notes:
      (Printf.sprintf "max-load %d/%d chi2 %.0f"
         quality.Hashing.Quality.max_load (Array.length flows)
         quality.Hashing.Quality.chi_square)
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)

(* ------------------------------------------------------------------ *)
(* SYN flood                                                           *)

let server_addr = Packet.Ipv4.addr_of_octets 192 168 1 1
let server_port = 8888

let run_syn_flood ?obs ?tracer config spec =
  let stack =
    Tcpcore.Stack.create ~demux:spec ~retransmit_timeout:0.5
      ~local_addr:server_addr ()
  in
  observe_stack ~scenario:"syn-flood" ~spec obs tracer stack;
  Tcpcore.Stack.listen stack ~port:server_port ~on_data:(fun _ _ _ -> ());
  let server_ep = Packet.Flow.endpoint server_addr server_port in
  let rng = Numerics.Rng.create ~seed:config.seed in
  let clock = ref 0.0 in
  for i = 0 to config.syn_attempts - 1 do
    (* Spoofed sources that never complete the handshake. *)
    let segment =
      Packet.Segment.make ~src:(Topology.client i) ~dst:server_ep
        ~flags:Packet.Tcp_header.flag_syn
        ~seq:(Int32.of_int (Numerics.Rng.int rng ~bound:0x7FFFFFFF))
        ()
    in
    ignore (Tcpcore.Stack.handle_bytes stack (Packet.Segment.to_bytes segment));
    ignore (Tcpcore.Stack.poll_output stack);
    clock := !clock +. 0.001;
    if i land 63 = 0 then
      ignore (Tcpcore.Stack.advance_clock stack ~now:!clock)
  done;
  (* Let the SYN-ACK retransmission timers fire through several backoff
     doublings. *)
  List.iter
    (fun dt ->
      ignore (Tcpcore.Stack.advance_clock stack ~now:(!clock +. dt));
      ignore (Tcpcore.Stack.poll_output stack))
    [ 1.0; 2.0; 4.0; 8.0; 16.0 ];
  result_of_stats
    ~algorithm:(Demux.Registry.spec_name spec)
    ~scenario:"syn-flood" ~packets:config.syn_attempts
    ~table_length:(Tcpcore.Stack.connection_count stack)
    ~drops:(Tcpcore.Stack.drops_total stack)
    ~notes:
      (Printf.sprintf "syn-ack rexmits %d"
         (Tcpcore.Stack.retransmissions stack))
    (Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats stack))

(* ------------------------------------------------------------------ *)
(* Malformed-segment storm                                             *)

let random_bytes rng len =
  Bytes.init len (fun _ ->
      Char.chr (Int64.to_int (Int64.logand (Numerics.Rng.bits64 rng) 0xFFL)))

let storm_plan =
  Fault.Plan.v ~corrupt:0.35 ~truncate:0.2 ~duplicate:0.15 ~reorder:0.15
    ~drop:0.1 ~tuple_flip:0.25 ()

let run_malformed_storm ?obs ?tracer config spec =
  let stack = Tcpcore.Stack.create ~demux:spec ~local_addr:server_addr () in
  observe_stack ~scenario:"malformed-storm" ~spec obs tracer stack;
  Tcpcore.Stack.listen stack ~port:server_port ~on_data:(fun t conn payload ->
      Tcpcore.Stack.send t conn payload);
  let server_ep = Packet.Flow.endpoint server_addr server_port in
  let injector = Fault.Injector.create ~seed:config.seed storm_plan in
  let rng = Numerics.Rng.create ~seed:(config.seed + 1) in
  let deliveries = ref 0 in
  let deliver buf =
    incr deliveries;
    ignore (Tcpcore.Stack.handle_bytes stack buf);
    ignore (Tcpcore.Stack.poll_output stack)
  in
  for _ = 1 to config.storm_packets do
    match Numerics.Rng.int rng ~bound:4 with
    | 0 ->
      (* Pure junk: bytes that were never a datagram. *)
      deliver (random_bytes rng (Numerics.Rng.int rng ~bound:81))
    | _ ->
      (* A well-formed segment, put through the fault injector. *)
      let client = Topology.client (Numerics.Rng.int rng ~bound:512) in
      let flags =
        match Numerics.Rng.int rng ~bound:3 with
        | 0 -> Packet.Tcp_header.flag_syn
        | 1 -> Packet.Tcp_header.flag_ack
        | _ -> Packet.Tcp_header.flag_psh_ack
      in
      let segment =
        Packet.Segment.make ~src:client ~dst:server_ep ~flags
          ~seq:(Int32.of_int (Numerics.Rng.int rng ~bound:0x7FFFFFFF))
          ~payload:"storm" ()
      in
      List.iter deliver
        (Fault.Injector.feed injector (Packet.Segment.to_bytes segment))
  done;
  List.iter deliver (Fault.Injector.flush injector);
  let parse_errors =
    List.assoc "parse-error" (Tcpcore.Stack.drop_counts stack)
  in
  result_of_stats
    ~algorithm:(Demux.Registry.spec_name spec)
    ~scenario:"malformed-storm" ~packets:!deliveries
    ~table_length:(Tcpcore.Stack.connection_count stack)
    ~drops:(Tcpcore.Stack.drops_total stack)
    ~parse_errors
    ~notes:
      (Format.asprintf "%a" Fault.Injector.pp_counters
         (Fault.Injector.counters injector))
    (Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats stack))

(* ------------------------------------------------------------------ *)

let scenarios =
  [ ("collision-flood", run_collision_flood); ("syn-flood", run_syn_flood);
    ("malformed-storm", run_malformed_storm) ]

let run_all ?obs ?tracer config specs =
  List.concat
    (List.mapi
       (fun scenario_index (_, run) ->
         List.mapi
           (fun algorithm_index spec ->
             (* A Phase event brackets each (scenario, algorithm) run so
                a trace reader can attribute what follows. *)
             (match tracer with
             | Some tracer ->
               Obs.Trace.record tracer Obs.Trace.Phase scenario_index
                 algorithm_index
             | None -> ());
             run ?obs ?tracer config spec)
           specs)
       scenarios)

let pp_table ppf results =
  Format.fprintf ppf "%-16s %-24s %8s %8s %6s %7s %7s %6s %6s %6s@."
    "scenario" "algorithm" "packets" "mean" "max" "drops" "parse" "evict"
    "reject" "pcbs";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-16s %-24s %8d %8.2f %6d %7d %7d %6d %6d %6d  %s@." r.scenario
        r.algorithm r.packets r.mean_examined r.max_examined r.drops
        r.parse_errors r.evictions r.rejections r.table_length r.notes)
    results
