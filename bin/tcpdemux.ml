(* tcpdemux — command-line front end for the McKenney & Dove (1992)
   reproduction: analytic tables, figure series, simulations and hash
   sweeps. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)

let users_arg =
  let doc = "Number of TPC/A users (connections)." in
  Arg.(value & opt int 2000 & info [ "u"; "users" ] ~docv:"N" ~doc)

let response_time_arg =
  let doc = "Transaction response time R in seconds." in
  Arg.(value & opt float 0.2 & info [ "r"; "response-time" ] ~docv:"R" ~doc)

let rtt_arg =
  let doc = "Network round-trip time D in seconds." in
  Arg.(value & opt float 0.001 & info [ "d"; "rtt" ] ~docv:"D" ~doc)

let seed_arg =
  let doc = "PRNG seed (simulations are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let duration_arg =
  let doc = "Measured simulated seconds." in
  Arg.(value & opt float 120.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let algorithms_arg =
  let doc =
    "Comma-separated algorithms: linear, bsd, mtf, sr-cache, sequent[-H], \
     hashed-mtf[-H], conn-id, resizing-hash."
  in
  Arg.(
    value
    & opt (list string) [ "bsd"; "mtf"; "sr-cache"; "sequent-19" ]
    & info [ "a"; "algorithms" ] ~docv:"ALGOS" ~doc)

let csv_arg =
  let doc = "Also write the series as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* Parse every name, stopping at the first error. *)
let parse_all parse names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match parse name with
      | Ok value -> go (value :: acc) rest
      | Error message -> Error message)
  in
  go [] names

let parse_specs = parse_all Demux.Registry.spec_of_string

let params ~users ~response_time ~rtt =
  Analysis.Tpca_params.v ~users ~response_time ~rtt ()

(* Shared -v/--verbose handling: debug-level logging (e.g. the TCP
   stack's connection events during `trace`). *)
let verbose_arg =
  let doc = "Enable debug logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ------------------------------------------------------------------ *)
(* Observability output (shared by simulate / attack / parallel)       *)

let obs_json_arg =
  let doc =
    "Write a $(i,tcpdemux-obs/1) metric snapshot — every counter, gauge \
     and histogram the run registered — as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "obs-json" ] ~docv:"FILE" ~doc)

let trace_file_arg =
  let doc =
    "Record hot-path events (lookups, cache hits, chain walks, drops, \
     phase markers) into a ring buffer and dump it in binary form to \
     $(docv) (readable with Obs.Trace.read_file)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_capacity_arg =
  let doc = "Trace ring capacity: the last $(docv) events are kept." in
  Arg.(
    value & opt int 65536 & info [ "trace-capacity" ] ~docv:"EVENTS" ~doc)

(* Build the optional registry/tracer the flags ask for, run the body,
   then write the requested files.  [label] tags the JSON snapshot. *)
let with_obs ~label obs_json trace_file trace_capacity body =
  if trace_capacity <= 0 then
    `Error (false, "--trace-capacity must be positive")
  else
    let obs = Option.map (fun _ -> Obs.Registry.create ()) obs_json in
    let tracer =
      Option.map
        (fun _ -> Obs.Trace.create ~capacity:trace_capacity ())
        trace_file
    in
    match body obs tracer with
    | `Ok () -> (
      try
        Option.iter
          (fun path ->
            Obs.Registry.write_json ~label (Option.get obs) path;
            Format.printf "wrote metric snapshot to %s@." path)
          obs_json;
        Option.iter
          (fun path ->
            let tracer = Option.get tracer in
            let oc = open_out_bin path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Obs.Trace.dump tracer oc);
            Format.printf
              "wrote %d trace events to %s (%d lost to ring wrap)@."
              (Obs.Trace.length tracer) path (Obs.Trace.dropped tracer))
          trace_file;
        `Ok ()
      with Sys_error message -> `Error (false, message))
    | outcome -> outcome

(* A Phase marker before each algorithm's run, so one trace file can
   carry several algorithms back to back. *)
let phase tracer index =
  match tracer with
  | Some tracer -> Obs.Trace.record tracer Obs.Trace.Phase index 0
  | None -> ()

(* ------------------------------------------------------------------ *)
(* analyze: the paper's quoted results                                 *)

let run_analyze users response_time rtt =
  let p = params ~users ~response_time ~rtt in
  Format.printf "TPC/A parameters: %a@.@." Analysis.Tpca_params.pp p;
  Format.printf "== BSD (Section 3.1) ==@.";
  Format.printf "expected PCBs searched (Eq 1): %.1f@."
    (Analysis.Bsd_model.cost p);
  Format.printf "cache hit rate: %.4f%%@."
    (100.0 *. Analysis.Bsd_model.hit_rate p);
  Format.printf "packet-train probability: %.3g@.@."
    (Analysis.Bsd_model.train_probability p);
  Format.printf "== Move-to-front (Section 3.2) ==@.";
  let columns =
    Report.Table.
      [ column "R (s)"; column "entry (Eq 5)"; column "ack N(2R)";
        column "overall (Eq 6)" ]
  in
  let rows =
    List.map
      (fun (r, entry, ack, overall) ->
        Report.Table.
          [ float_cell ~decimals:1 r; float_cell ~decimals:0 entry;
            float_cell ~decimals:0 ack; float_cell ~decimals:0 overall ])
      (Analysis.Comparison.mtf_response_time_table ~users
         [ 0.2; 0.5; 1.0; 2.0 ])
  in
  Report.Table.print ~columns rows;
  Format.printf "@.== Send/receive cache (Section 3.3) ==@.";
  let columns =
    Report.Table.
      [ column "D (ms)"; column "txn (N1+N2)"; column "ack (Na)";
        column "overall (Eq 17)" ]
  in
  let rows =
    List.map
      (fun rtt ->
        let p = params ~users ~response_time ~rtt in
        let txn =
          Analysis.Srcache_model.transaction_cost_long_think p
          +. Analysis.Srcache_model.transaction_cost_short_think p
        in
        Report.Table.
          [ float_cell ~decimals:0 (rtt *. 1000.0);
            float_cell ~decimals:1 txn;
            float_cell ~decimals:1 (Analysis.Srcache_model.ack_cost p);
            float_cell ~decimals:0 (Analysis.Srcache_model.overall_cost p) ])
      [ 0.001; 0.010; 0.100 ]
  in
  Report.Table.print ~columns rows;
  Format.printf "@.== Sequent hashed chains (Section 3.4) ==@.";
  let columns =
    Report.Table.
      [ column "H"; column "cost (Eq 22)"; column "naive (Eq 19)";
        column "quiet p (Eq 20)"; column "naive err" ]
  in
  let rows =
    List.map
      (fun chains ->
        Report.Table.
          [ string_of_int chains;
            float_cell ~decimals:1 (Analysis.Sequent_model.cost p ~chains);
            float_cell ~decimals:1 (Analysis.Sequent_model.cost_naive p ~chains);
            float_cell ~decimals:4
              (Analysis.Sequent_model.quiet_probability p ~chains);
            Printf.sprintf "%.1f%%"
              (100.0 *. Analysis.Sequent_model.naive_error p ~chains) ])
      [ 19; 51; 100 ]
  in
  Report.Table.print ~columns rows;
  `Ok ()

let analyze_cmd =
  let doc = "Print every analytic result the paper quotes (Sections 3.1-3.4)." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret (const run_analyze $ users_arg $ response_time_arg $ rtt_arg))

(* ------------------------------------------------------------------ *)
(* figure: regenerate Figures 4, 13 and 14                             *)

let write_csv path series =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Report.Csv.write_series oc series)

let run_figure number csv =
  let series =
    match number with
    | 4 -> Ok [ Analysis.Comparison.figure4 () ]
    | 13 -> Ok (Analysis.Comparison.figure13 ())
    | 14 -> Ok (Analysis.Comparison.figure14 ())
    | n -> Error (Printf.sprintf "no figure %d (have 4, 13, 14)" n)
  in
  match series with
  | Error message -> `Error (false, message)
  | Ok series ->
    Report.Ascii_plot.print ~title:(Printf.sprintf "Figure %d" number) series;
    (match csv with
    | Some path ->
      write_csv path series;
      Format.printf "wrote %s@." path
    | None -> ());
    `Ok ()

let figure_cmd =
  let doc = "Regenerate a figure from the paper (4, 13 or 14)." in
  let number =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"FIGURE" ~doc:"4, 13 or 14")
  in
  Cmd.v (Cmd.info "figure" ~doc) Term.(ret (const run_figure $ number $ csv_arg))

(* ------------------------------------------------------------------ *)
(* simulate: drive the real data structures                            *)

let run_simulate workload algorithms users response_time rtt duration seed
    obs_json trace_file trace_capacity =
  match parse_specs algorithms with
  | Error message -> `Error (false, message)
  | Ok specs ->
    with_obs ~label:("simulate-" ^ workload) obs_json trace_file
      trace_capacity (fun obs tracer ->
        let over_specs run =
          List.mapi
            (fun index spec ->
              phase tracer index;
              run spec)
            specs
        in
        match workload with
        | "tpca" ->
          let p = params ~users ~response_time ~rtt in
          let config = Sim.Tpca_workload.default_config ~duration ~seed p in
          let rows = Sim.Validate.compare ?obs ?tracer ~config p specs in
          Format.printf "TPC/A simulation (%a, %g s measured):@.@."
            Analysis.Tpca_params.pp p duration;
          Format.printf "%a@." Sim.Validate.pp_rows rows;
          `Ok ()
        | "trains" ->
          let config = Sim.Trains_workload.default_config () in
          let reports =
            over_specs (Sim.Trains_workload.run ?obs ?tracer { config with seed })
          in
          Format.printf "%a@." Sim.Report.pp_table reports;
          `Ok ()
        | "polling" ->
          let config = Sim.Polling_workload.default_config ~users () in
          let reports =
            over_specs
              (Sim.Polling_workload.run ?obs ?tracer { config with seed })
          in
          Format.printf "%a@." Sim.Report.pp_table reports;
          `Ok ()
        | "locality" ->
          let config = Sim.Locality_workload.default_config () in
          let reports =
            over_specs
              (Sim.Locality_workload.run ?obs ?tracer { config with seed })
          in
          Format.printf "%a@." Sim.Report.pp_table reports;
          `Ok ()
        | "mixed" ->
          let config = Sim.Mixed_workload.default_config ~oltp_users:users () in
          let results =
            over_specs
              (Sim.Mixed_workload.run ?obs ?tracer
                 { config with Sim.Mixed_workload.seed })
          in
          Format.printf "%a@." Sim.Mixed_workload.pp_results results;
          `Ok ()
        | "churn" ->
          let config = Sim.Churn_workload.default_config () in
          let reports =
            over_specs
              (Sim.Churn_workload.run ?obs ?tracer
                 { config with Sim.Churn_workload.seed })
          in
          Format.printf "steady-state population ~%.0f connections@.@."
            (Sim.Churn_workload.steady_state_population config);
          Format.printf "%a@." Sim.Report.pp_table reports;
          `Ok ()
        | other ->
          `Error
            ( false,
              Printf.sprintf
                "unknown workload %S (try: tpca, trains, polling, locality, \
                 churn, mixed)"
                other ))

let simulate_cmd =
  let doc =
    "Simulate a workload (tpca, trains, polling, locality) over the real \
     lookup structures and report PCBs examined per packet."
  in
  let workload =
    Arg.(
      value & pos 0 string "tpca"
      & info [] ~docv:"WORKLOAD"
          ~doc:"tpca | trains | polling | locality | churn | mixed")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run_simulate $ workload $ algorithms_arg $ users_arg
        $ response_time_arg $ rtt_arg $ duration_arg $ seed_arg
        $ obs_json_arg $ trace_file_arg $ trace_capacity_arg))

(* ------------------------------------------------------------------ *)
(* sweep: Sequent chain-count sweep                                    *)

let run_sweep users response_time chain_list =
  let rows =
    List.map
      (fun (chains, cost, naive) ->
        Report.Table.
          [ string_of_int chains; float_cell cost; float_cell naive ])
      (Analysis.Comparison.sequent_chain_sweep ~users ~response_time
         chain_list)
  in
  Report.Table.print
    ~columns:
      Report.Table.[ column "H"; column "cost (Eq 22)"; column "naive (Eq 19)" ]
    rows;
  `Ok ()

let sweep_cmd =
  let doc = "Sweep the Sequent algorithm's hash-chain count." in
  let chains =
    Arg.(
      value
      & opt (list int) [ 1; 2; 5; 10; 19; 51; 100; 200; 500 ]
      & info [ "chains" ] ~docv:"H,H,..." ~doc:"Chain counts to evaluate.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(ret (const run_sweep $ users_arg $ response_time_arg $ chains))

(* ------------------------------------------------------------------ *)
(* hashes: chain-balance ablation                                      *)

let run_hashes users chains =
  let flows = Array.to_list (Sim.Topology.flows users) in
  let rows =
    List.map
      (fun hasher ->
        let report = Hashing.Quality.evaluate_hash hasher ~buckets:chains flows in
        Report.Table.
          [ Hashing.Hashers.name hasher;
            string_of_int report.Hashing.Quality.max_load;
            float_cell report.Hashing.Quality.coefficient_of_variation;
            float_cell ~decimals:1 report.Hashing.Quality.chi_square;
            float_cell report.Hashing.Quality.expected_search_cost ])
      Hashing.Hashers.all
  in
  Report.Table.print
    ~columns:
      Report.Table.
        [ column ~align:Left "hash"; column "max load"; column "cv";
          column "chi2"; column "E[scan]" ]
    rows;
  Format.printf "(uniform ideal: max load ~%d, E[scan] ~%.2f)@.@."
    ((users + chains - 1) / chains)
    ((float_of_int users /. float_of_int chains +. 1.0) /. 2.0);
  Format.printf "avalanche (flip rate per single-bit input change; ideal 0.5):@.";
  List.iter
    (fun hasher ->
      Format.printf "  %-16s %a@."
        (Hashing.Hashers.name hasher)
        Hashing.Avalanche.pp_report
        (Hashing.Avalanche.measure hasher))
    Hashing.Hashers.all;
  `Ok ()

let hashes_cmd =
  let doc = "Evaluate hash functions' chain balance over the client population." in
  let chains =
    Arg.(value & opt int 19 & info [ "chains" ] ~docv:"H" ~doc:"Bucket count.")
  in
  Cmd.v (Cmd.info "hashes" ~doc) Term.(ret (const run_hashes $ users_arg $ chains))

(* ------------------------------------------------------------------ *)
(* validate: simulation vs analysis, the E14 table                     *)

let run_validate users response_time rtt duration seed algorithms =
  match parse_specs algorithms with
  | Error message -> `Error (false, message)
  | Ok specs ->
    let p = params ~users ~response_time ~rtt in
    let config = Sim.Tpca_workload.default_config ~duration ~seed p in
    Format.printf
      "validating the analytic models against the simulator@.(%a, %g \
       measured seconds)@.@."
      Analysis.Tpca_params.pp p duration;
    Format.printf "%a@." Sim.Validate.pp_rows
      (Sim.Validate.compare ~config p specs);
    print_endline
      "ratio ~ 1.0 means the paper's closed form predicts the real data\n\
       structure under this workload; nan means the paper gives no model\n\
       for that algorithm.";
    `Ok ()

let validate_cmd =
  let doc = "Cross-validate every analytic model against the simulator (E14)." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      ret
        (const run_validate $ users_arg $ response_time_arg $ rtt_arg
        $ duration_arg $ seed_arg $ algorithms_arg))

(* ------------------------------------------------------------------ *)
(* trace: generate an OLTP pcap through the real stack                 *)

let run_trace clients path verbose =
  setup_logs verbose;
  let server_addr = Packet.Ipv4.addr_of_octets 192 168 1 1 in
  let stack = Tcpcore.Stack.create ~local_addr:server_addr () in
  Tcpcore.Stack.listen stack ~port:8888 ~on_data:(fun t conn payload ->
      Tcpcore.Stack.send t conn ("OK " ^ payload));
  let server_ep = Packet.Flow.endpoint server_addr 8888 in
  let client_ep i =
    Packet.Flow.endpoint
      (Packet.Ipv4.addr_of_octets 10 0 (i / 250) (1 + (i mod 250)))
      (2000 + i)
  in
  let oc = open_out_bin path in
  let writer = Packet.Pcap.create_writer oc in
  let clock = ref 0.0 in
  let record segment =
    clock := !clock +. 0.0001;
    Packet.Pcap.write_packet writer ~time:!clock
      (Packet.Segment.to_bytes segment)
  in
  let inject segment =
    record segment;
    Tcpcore.Stack.handle_segment stack segment;
    List.iter record (Tcpcore.Stack.poll_output stack)
  in
  let server_seq = Array.make clients 0l in
  for i = 0 to clients - 1 do
    inject
      (Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
         ~flags:Packet.Tcp_header.flag_syn
         ~seq:(Int32.of_int (i * 7919))
         ());
    (* The stack's SYN-ACK was just recorded; recover its sequence
       number for the handshake ACK and the query. *)
    (match Tcpcore.Stack.connection_of_flow stack
             (Packet.Flow.v ~local:server_ep ~remote:(client_ep i))
     with
    | Some conn -> server_seq.(i) <- conn.Tcpcore.Stack.snd_nxt
    | None -> failwith "trace: connection not created");
    inject
      (Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
         ~flags:Packet.Tcp_header.flag_ack
         ~seq:(Int32.of_int ((i * 7919) + 1))
         ~ack_number:server_seq.(i) ())
  done;
  let rng = Numerics.Rng.create ~seed:11 in
  let order = Array.init clients Fun.id in
  Numerics.Rng.shuffle rng order;
  Array.iter
    (fun i ->
      inject
        (Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
           ~flags:Packet.Tcp_header.flag_psh_ack
           ~seq:(Int32.of_int ((i * 7919) + 1))
           ~ack_number:server_seq.(i)
           ~payload:(Printf.sprintf "TXN client=%d" i)
           ()))
    order;
  close_out oc;
  Format.printf "wrote %d packets for %d clients to %s@."
    (Packet.Pcap.packet_count writer)
    clients path;
  Format.printf "server demux accounting:@.%a@." Demux.Lookup_stats.pp_snapshot
    (Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats stack));
  `Ok ()

let trace_cmd =
  let doc =
    "Generate an OLTP packet trace (.pcap, openable in wireshark) by \
     driving the TCP stack with synthetic clients."
  in
  let clients =
    Arg.(value & opt int 50 & info [ "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let path =
    Arg.(value & pos 0 string "oltp.pcap" & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(ret (const run_trace $ clients $ path $ verbose_arg))

(* ------------------------------------------------------------------ *)
(* sensitivity: crossovers and sizing                                  *)

let run_sensitivity users response_time rtt =
  let p = params ~users ~response_time ~rtt in
  Format.printf "operating point: %a@.@." Analysis.Tpca_params.pp p;
  Format.printf "== chain sizing (Eq 22) ==@.";
  List.iter
    (fun target ->
      Format.printf "chains for <= %5.1f PCBs/packet : H = %d@." target
        (Analysis.Sensitivity.chains_needed p ~target_cost:target))
    [ 100.0; 53.0; 25.0; 9.0; 3.0 ];
  Format.printf "@.== K-entry LRU cache on the linear list (E24) ==@.";
  List.iter
    (fun entries ->
      Format.printf "K = %-4d : %7.1f PCBs/packet (ack hit prob %.3f)@."
        entries
        (Analysis.Lru_model.cost p ~entries)
        (Analysis.Lru_model.ack_hit_probability p ~entries))
    [ 1; 8; 32; 64; 128; 256 ];
  let best_entries, best_cost =
    Analysis.Lru_model.best_entries p ~max_entries:1024
  in
  Format.printf "best cache size: K = %d at %.1f — still %.0fx sequent-19@."
    best_entries best_cost
    (best_cost /. Analysis.Sequent_model.cost p ~chains:19);
  Format.printf "@.== crossovers ==@.";
  Format.printf "SR cache within 5%% of BSD from : N = %d@."
    (Analysis.Sensitivity.sr_rejoins_bsd ~rtt ());
  (match Analysis.Sensitivity.mtf_beats_sr_from ~rtt ~response_time () with
  | Some n -> Format.printf "MTF beats SR cache from       : N = %d@." n
  | None -> Format.printf "MTF never beats SR cache below 100k users@.");
  Format.printf "@.== response-time sensitivity d(cost)/dR ==@.";
  List.iter
    (fun (name, algorithm) ->
      Format.printf "%-12s %10.1f PCBs per second of R@." name
        (Analysis.Sensitivity.cost_gradient_in_response_time p algorithm))
    [ ("bsd", `Bsd); ("mtf", `Mtf); ("sr-cache", `Sr_cache);
      ("sequent-19", `Sequent 19) ];
  `Ok ()

let sensitivity_cmd =
  let doc =
    "Crossovers, chain sizing and parameter sensitivity of the analytic \
     models."
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(ret (const run_sensitivity $ users_arg $ response_time_arg $ rtt_arg))

(* ------------------------------------------------------------------ *)
(* replay: demultiplex a pcap capture                                  *)

let run_replay path algorithms no_checksum =
  match parse_specs algorithms with
  | Error message -> `Error (false, message)
  | Ok specs ->
    let verify_checksum = not no_checksum in
    let outcomes =
      List.map
        (fun spec -> Sim.Trace_replay.replay_file ~verify_checksum path spec)
        specs
    in
    let rec render = function
      | [] -> `Ok ()
      | Error message :: _ -> `Error (false, message)
      | Ok result :: rest ->
        Format.printf
          "%s: %d/%d packets replayed (%d skipped), %d flows@.%a@.@."
          result.Sim.Trace_replay.report.Sim.Report.algorithm
          result.Sim.Trace_replay.packets_replayed
          result.Sim.Trace_replay.packets_total
          result.Sim.Trace_replay.packets_skipped
          result.Sim.Trace_replay.flows_seen Sim.Report.pp
          result.Sim.Trace_replay.report;
        render rest
    in
    render outcomes

let replay_cmd =
  let doc = "Replay a pcap capture through the lookup algorithms." in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"pcap file")
  in
  let no_checksum =
    Arg.(
      value & flag
      & info [ "no-checksum" ]
          ~doc:"Skip checksum verification (for synthetic or truncated captures).")
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(ret (const run_replay $ path $ algorithms_arg $ no_checksum))

(* ------------------------------------------------------------------ *)
(* attack                                                              *)

let run_attack algorithms seed smoke obs_json trace_file trace_capacity =
  match parse_specs algorithms with
  | Error message -> `Error (false, message)
  | Ok specs ->
    with_obs ~label:"attack" obs_json trace_file trace_capacity
      (fun obs tracer ->
        let config =
          if smoke then Sim.Attack_workload.smoke_config ~seed ()
          else Sim.Attack_workload.default_config ~seed ()
        in
        let results = Sim.Attack_workload.run_all ?obs ?tracer config specs in
        Format.printf "Adversarial resilience (seed %d%s)@.@." seed
          (if smoke then ", smoke" else "");
        Format.printf "%a" Sim.Attack_workload.pp_table results;
        `Ok ())

let attack_cmd =
  let doc =
    "Drive adversarial workloads (collision flood, SYN flood, \
     malformed-segment storm) against the lookup algorithms and print a \
     resilience table."
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Small packet counts for quick CI runs.")
  in
  let attack_algorithms =
    let doc =
      "Comma-separated algorithms; guarded-$(i,ALGO) wraps an algorithm in \
       the overload guard."
    in
    Arg.(
      value
      & opt (list string)
          [ "bsd"; "mtf"; "sr-cache"; "sequent-19"; "guarded-sequent-19";
            "cuckoo"; "guarded-cuckoo" ]
      & info [ "a"; "algo"; "algorithms" ] ~docv:"ALGOS" ~doc)
  in
  Cmd.v
    (Cmd.info "attack" ~doc)
    Term.(
      ret
        (const run_attack $ attack_algorithms $ seed_arg $ smoke
        $ obs_json_arg $ trace_file_arg $ trace_capacity_arg))

(* ------------------------------------------------------------------ *)
(* parallel: multicore lookup throughput                               *)

(* --smp: the shared-nothing per-core stacks (Parallel.Smp).  Each
   domain owns a complete TCP stack — connection table, timer wheel,
   demux table — and a dispatcher steers raw datagrams into per-domain
   rings; with --migrate the listener core hands every accepted
   connection to another core mid-trace.  Every run is gated on exact
   handoff conservation (Smp.violations), so the smoke pass doubles as
   a correctness check in CI. *)
let run_smp ~domains ~migrate ~smoke ~seed obs_json =
  let domains = if smoke then [ 1; 2 ] else domains in
  let clients, requests = if smoke then (60, 3) else (1500, 10) in
  let trace =
    Sim.Segment_workload.generate
      (Sim.Segment_workload.config ~clients ~requests_per_client:requests
         ~interleave:Sim.Segment_workload.Round_robin ~seed ())
  in
  let obs = Option.map (fun _ -> Obs.Registry.create ()) obs_json in
  (* Migration needs a content-independent demux spec so the handoff
     path (remove + insert) keeps lookup statistics comparable across
     domain counts. *)
  let demux =
    if migrate then Some (Demux.Registry.Conn_id { capacity = 65536 })
    else None
  in
  Format.printf
    "smp: shared-nothing per-core stacks, %d datagrams (%d flows)%s@."
    (Array.length trace.Sim.Segment_workload.datagrams)
    trace.Sim.Segment_workload.syns
    (if migrate then ", flow migration on" else "");
  let failures = ref [] in
  List.iter
    (fun d ->
      let r =
        Parallel.Smp.run
          (Parallel.Smp.config ?demux ~migrate ~domains:d
             ~local_addr:Sim.Topology.server.Packet.Flow.addr ())
          trace.Sim.Segment_workload.datagrams
      in
      Format.printf "%a@." Parallel.Smp.pp r;
      (match Parallel.Smp.violations r with
      | [] -> ()
      | v -> failures := (d, v) :: !failures);
      Option.iter
        (fun obs ->
          Parallel.Smp.register_obs
            ~prefix:(Printf.sprintf "smp.d%d" d)
            r obs)
        obs)
    domains;
  match !failures with
  | (d, v) :: _ ->
    `Error
      ( false,
        Printf.sprintf "smp: conservation violated at %d domains: %s" d
          (String.concat "; " v) )
  | [] -> (
    try
      (match (obs_json, obs) with
      | Some path, Some obs ->
        Obs.Registry.write_json ~label:"parallel" obs path;
        Format.printf "wrote metric snapshot to %s@." path
      | _ -> ());
      `Ok ()
    with Sys_error message -> `Error (false, message))

let run_parallel targets domains batches connections lookups smp migrate smoke
    seed obs_json trace_file trace_capacity =
  if List.exists (fun d -> d <= 0) domains then
    `Error (false, "--domains must all be positive")
  else if smp then run_smp ~domains ~migrate ~smoke ~seed obs_json
  else
  (* --smoke: a CI-sized run that still exercises every path — two
     domains, per-packet vs a small batch. *)
  let domains, batches, connections, lookups =
    if smoke then ([ 2 ], [ 1; 8 ], 200, 20_000)
    else (domains, batches, connections, lookups)
  in
  match parse_all Parallel.Throughput.target_of_name targets with
  | Error message -> `Error (false, message)
  | Ok targets ->
    if List.exists (fun b -> b <= 0) batches then
      `Error (false, "--batch sizes must all be positive")
    else if connections <= 0 then
      `Error (false, "--connections must be positive")
    else if lookups <= 0 then `Error (false, "--lookups must be positive")
    else if trace_capacity <= 0 then
      `Error (false, "--trace-capacity must be positive")
    else
      let obs = Option.map (fun _ -> Obs.Registry.create ()) obs_json in
      let results =
        Parallel.Throughput.scaling_table ?obs
          ?trace_capacity:(Option.map (fun _ -> trace_capacity) trace_file)
          ~connections ~lookups_per_domain:lookups ~seed ~batches ~domains
          targets
      in
      Format.printf "%a" Parallel.Throughput.pp_results results;
      let clamped =
        List.fold_left
          (fun a (r : Parallel.Throughput.result) ->
            a + r.Parallel.Throughput.clock_went_backwards)
          0 results
      in
      if clamped > 0 then
        Format.printf
          "warning: %d lookup intervals clamped to zero (clock went \
           backwards)@."
          clamped;
      List.iter
        (fun (r : Parallel.Throughput.result) ->
          match r.Parallel.Throughput.latency with
          | Some histogram ->
            Format.printf "%s x%d b%d lookup latency: %a@."
              r.Parallel.Throughput.target r.Parallel.Throughput.domains
              r.Parallel.Throughput.batch Obs.Histogram.pp histogram
          | None -> ())
        results;
      (try
         (match (obs_json, obs) with
         | Some path, Some obs ->
           Obs.Registry.write_json ~label:"parallel" obs path;
           Format.printf "wrote metric snapshot to %s@." path
         | _ -> ());
         (match trace_file with
         | Some path ->
           let oc = open_out_bin path in
           Fun.protect
             ~finally:(fun () -> close_out oc)
             (fun () ->
               List.iter
                 (fun (r : Parallel.Throughput.result) ->
                   List.iter
                     (fun tracer -> Obs.Trace.dump tracer oc)
                     r.Parallel.Throughput.traces)
                 results);
           Format.printf "wrote per-domain trace segments to %s@." path
         | None -> ());
         `Ok ()
       with Sys_error message -> `Error (false, message))

let parallel_cmd =
  let doc =
    "Measure multicore lookup throughput (and, with --obs-json, \
     per-lookup latency histograms merged across domains) for the \
     three lock designs: one global lock, one lock per chain, and \
     lock-free epoch reads."
  in
  let targets =
    Arg.(
      value
      & opt (list string) [ "coarse:sequent-19"; "striped:sequent-19" ]
      & info [ "t"; "targets" ] ~docv:"TARGETS"
          ~doc:
            "Comma-separated targets: coarse:$(i,ALGO) (any algorithm \
             behind one global lock, e.g. coarse:bsd, coarse:sequent-19), \
             striped:sequent[-H] (one lock per chain), epoch (lock-free \
             reads over the epoch table; with --obs-json its epoch.table.* \
             metrics land in the snapshot too).")
  in
  let domains =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "domains" ] ~docv:"N,N,..." ~doc:"Domain counts to run.")
  in
  let connections =
    Arg.(
      value & opt int 2000
      & info [ "connections" ] ~docv:"N" ~doc:"Resident flows.")
  in
  let lookups =
    Arg.(
      value & opt int 200_000
      & info [ "lookups" ] ~docv:"N" ~doc:"Lookups per domain.")
  in
  let batches =
    Arg.(
      value
      & opt (list int) [ 1 ]
      & info [ "batch" ] ~docv:"N,N,..."
          ~doc:
            "Batch sizes to run; 1 is the per-packet baseline, larger \
             values demultiplex through lookup_batch (one mutex \
             acquisition per stripe per batch).")
  in
  let smp =
    Arg.(
      value & flag
      & info [ "smp" ]
          ~doc:
            "Run the shared-nothing per-core stacks instead of the \
             lookup-throughput targets: one complete TCP stack \
             (connection table, timer wheel, demux table) per domain in \
             --domains, fed by a dispatcher steering a deterministic \
             segment workload; prints packets/sec and each domain's \
             ledger, and fails if handoff conservation is violated.  \
             With --obs-json, each run's counters, rate and elapsed \
             time land in the snapshot under smp.dN.* (N the run's \
             domain count).")
  in
  let migrate =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:
            "With --smp: accept every connection on the listener core \
             (domain 0) and migrate it to another core mid-trace — the \
             dispatcher holds the flow's later segments until the \
             connection has moved, with exact handoff accounting.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI-sized run: 2 domains, batches 1 and 8, small counts.  \
             Overrides --domains, --batch, \
             --connections, --lookups.  With --smp: domains 1 and 2 \
             over a small workload.")
  in
  Cmd.v
    (Cmd.info "parallel" ~doc)
    Term.(
      ret
        (const run_parallel $ targets $ domains $ batches $ connections
        $ lookups $ smp $ migrate $ smoke $ seed_arg $ obs_json_arg $ trace_file_arg
        $ trace_capacity_arg))

(* ------------------------------------------------------------------ *)
(* check: differential oracle + fuzz + cross-validation (lib/check)    *)

let run_check algorithms smoke seed ops pool programs_per_profile no_xval
    json_path obs_json trace_file trace_capacity =
  match parse_specs algorithms with
  | Error message -> `Error (false, message)
  | Ok specs ->
    with_obs ~label:"check" obs_json trace_file trace_capacity
      (fun obs _tracer ->
        let subjects =
          List.map (fun spec () -> Check.Subject.of_spec spec) specs
          @ [ (fun () -> Check.Subject.striped ());
              (fun () -> Check.Subject.flat_table ());
              (fun () -> Check.Subject.flat_table_doubling ());
              (fun () -> Check.Subject.guarded_flat_table ());
              (fun () -> Check.Subject.epoch_table ());
              (fun () -> Check.Subject.offheap_table ());
              (fun () -> Check.Subject.cuckoo_table ()) ]
        in
        let programs_per_profile =
          if smoke then 2 else programs_per_profile
        in
        let summary, failures =
          Check.Fuzz.campaign ?obs ~programs_per_profile ~ops ~pool ~subjects
            ~seed ()
        in
        Format.printf
          "diff: %d subjects x %d programs, %d op applications, %d \
           mismatch(es)@."
          (List.length summary.Check.Diff.subjects)
          summary.Check.Diff.programs summary.Check.Diff.ops
          (List.length summary.Check.Diff.mismatches);
        List.iter
          (fun failure ->
            Format.printf "%a@." Check.Fuzz.pp_failure failure)
          failures;
        let xval =
          if no_xval then None
          else begin
            (* Smoke keeps the full 3x3 (N, H) grid but shortens the
               measured window; tolerances are calibrated to hold at
               both durations (EXPERIMENTS.md E30). *)
            let duration = if smoke then 40.0 else 120.0 in
            let outcome = Check.Xval.run ?obs ~duration ~seed () in
            Format.printf "%a" Check.Xval.pp outcome;
            Some outcome
          end
        in
        let report = Check.Report.v ?xval ~seed summary failures in
        (match json_path with
        | Some path ->
          Check.Report.write path report;
          Format.printf "wrote tcpdemux-check/1 report to %s@." path
        | None -> ());
        if Check.Report.passed report then begin
          Format.printf "check: PASS@.";
          `Ok ()
        end
        else `Error (false, "check failed (see mismatches above)"))

let check_cmd =
  let doc =
    "Differentially test every demultiplexer against a reference model \
     on deterministic fuzzed programs, and cross-validate simulated \
     costs against the paper's closed forms."
  in
  let algorithms =
    Arg.(
      value
      & opt (list string)
          [ "linear"; "bsd"; "mtf"; "sr-cache"; "sequent-19";
            "hashed-mtf-19"; "resizing-hash"; "splay"; "conn-id";
            "lru-cache-8"; "guarded-sequent-19"; "cuckoo"; "guarded-cuckoo" ]
      & info [ "a"; "algos"; "algorithms" ] ~docv:"ALGOS"
          ~doc:
            "Comma-separated registry specs to check (a striped table, \
             the flat Robin-Hood index — incremental and doubling \
             resize, plus a guarded variant — the lock-free epoch \
             table and the bare bucketized cuckoo table are always \
             included).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI-sized run: 2 programs per profile and a shorter \
             cross-validation window.  Still covers every profile, \
             every algorithm and the full (N, H) grid.")
  in
  let ops =
    Arg.(
      value & opt int 1024
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per fuzzed program.")
  in
  let pool =
    Arg.(
      value & opt int 64
      & info [ "pool" ] ~docv:"N" ~doc:"Distinct flows per program.")
  in
  let programs =
    Arg.(
      value & opt int 4
      & info [ "programs" ] ~docv:"N"
          ~doc:"Programs per fuzz profile (ignored under --smoke).")
  in
  let no_xval =
    Arg.(
      value & flag
      & info [ "no-xval" ]
          ~doc:"Skip the analytic cross-validation sweep.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the $(i,tcpdemux-check/1) report to $(docv).")
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run_check $ algorithms $ smoke $ seed_arg $ ops $ pool
        $ programs $ no_xval $ json $ obs_json_arg $ trace_file_arg
        $ trace_capacity_arg))

(* ------------------------------------------------------------------ *)
(* chaos: fault scenarios over the parallel path (lib/check/chaos.ml)  *)

let run_chaos scenarios smoke seed workers ops json_path =
  let parse_scenarios = function
    | [] -> Ok Check.Chaos.all
    | names ->
      parse_all
        (fun name ->
          Option.to_result (Check.Chaos.scenario_of_name name)
            ~none:
              (Printf.sprintf "unknown scenario %S (have: %s)" name
                 (String.concat ", "
                    (List.map Check.Chaos.scenario_name Check.Chaos.all))))
        names
  in
  match parse_scenarios scenarios with
  | Error message -> `Error (false, message)
  | Ok scenarios ->
    if workers <= 0 then `Error (false, "--workers must be positive")
    else if ops <= 0 then `Error (false, "--ops must be positive")
    else begin
      let ops = if smoke then min ops 20_000 else ops in
      Format.printf "chaos: %d scenario(s), %d workers, %d ops each, seed \
                     %d%s@.@."
        (List.length scenarios) workers ops seed
        (if smoke then " (smoke)" else "");
      let t = Check.Chaos.run ~workers ~ops ~scenarios ~seed () in
      Format.printf "@[<v>%a@]@." Check.Chaos.pp t;
      (match json_path with
      | Some path ->
        (try
           Check.Chaos.write path t;
           Format.printf "wrote tcpdemux-chaos/1 report to %s@." path
         with Sys_error message -> Format.printf "warning: %s@." message)
      | None -> ());
      if Check.Chaos.passed t then begin
        Format.printf "chaos: PASS@.";
        `Ok ()
      end
      else `Error (false, "chaos audit failed (see mismatches above)")
    end

let chaos_cmd =
  let doc =
    "Run seeded fault scenarios (stalled consumer, slow worker, ring-full \
     storm, bursty arrivals, mid-run table growth) against worker domains \
     sharing one striped table behind tiered rings, and replay-audit every \
     one: contents, stats and shed accounting must match the reference \
     oracle exactly."
  in
  let scenarios =
    Arg.(
      value
      & opt (list string) []
      & info [ "s"; "scenarios" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated scenario names (default: all of \
             stalled-consumer, slow-worker, ring-full-storm, \
             burst-arrival, mid-run-growth).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI-sized run: caps the per-scenario op count at 20000.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domain count.")
  in
  let ops =
    Arg.(
      value & opt int 120_000
      & info [ "ops" ] ~docv:"N" ~doc:"Ops offered per scenario.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the $(i,tcpdemux-chaos/1) report to $(docv).")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run_chaos $ scenarios $ smoke $ seed_arg $ workers $ ops
        $ json))

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "TCP demultiplexing algorithms from McKenney & Dove (SIGCOMM 1992): \
     analysis, simulation and benchmarks."
  in
  Cmd.group
    (Cmd.info "tcpdemux" ~version:"1.0.0" ~doc)
    [ analyze_cmd; figure_cmd; simulate_cmd; validate_cmd; sweep_cmd;
      sensitivity_cmd; hashes_cmd; trace_cmd; replay_cmd; attack_cmd;
      parallel_cmd; check_cmd; chaos_cmd ]

let () = exit (Cmd.eval main_cmd)
