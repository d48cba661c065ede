(* Benchmark harness: regenerates every table and figure of McKenney &
   Dove (1992) — experiment ids E1-E18 from DESIGN.md — and the
   extensions E19-E37.

   The harness is one table of experiments ([experiments] below).
   Each entry measures once, prints paper-value vs our-value rows so
   EXPERIMENTS.md can be filled mechanically, gates its acceptance
   bars, and declares its tcpdemux-bench/1 records.  Every warm lookup
   the bench times goes through [measure_lookups]; E37 puts the
   paper's PCBs-examined metric beside the time it stands in for. *)

let section title =
  Printf.printf "\n==== %s ====\n\n" title

let row fmt = Printf.printf fmt

let bench_seed = 42

(* ------------------------------------------------------------------ *)
(* The experiment record                                               *)

(* One experiment: [run] measures once, at smoke or full size; [print]
   renders its table on full runs; [gate] returns one message per
   failed acceptance bar; [records] declares every tcpdemux-bench/1
   record the run emits, built from the grid constants the run
   iterates, so --check can require each name without running
   anything. *)
type 'r experiment = {
  id : string;  (* "E29": selected by --e29, and the id of its records *)
  run : smoke:bool -> 'r;
  print : 'r -> unit;
  gate : smoke:bool -> 'r -> string list;
  records : smoke:bool -> 'r record list;
}

(* [Metric (metric, units, value)] is one declared record.
   [Histograms (id, snapshot)] records p50 and p99 of every histogram
   in an obs snapshot under [id]; those names exist only after the
   run, so --check cannot require them. *)
and 'r record =
  | Metric of string * string * ('r -> float)
  | Histograms of string * ('r -> Obs.Registry.metric list)

type entry = E : 'r experiment -> entry

let experiment ?(gate = fun ~smoke:_ _ -> []) ?(records = fun ~smoke:_ -> [])
    id run print =
  E { id; run; print; gate; records }

let always records ~smoke:_ = records

(* The declared records of one grid point: [find] picks the point's
   row out of the result, and each (metric, units, field) reads one
   value from that row. *)
let point find fields =
  List.map
    (fun (metric, units, field) ->
      Metric (metric, units, fun r -> field (find r)))
    fields

(* One acceptance bar: the formatted message when [cond] holds. *)
let failing cond fmt =
  Printf.ksprintf (fun message -> if cond then [ message ] else []) fmt

(* ------------------------------------------------------------------ *)
(* Reproduction layer                                                  *)

let default_params = Analysis.Tpca_params.default

let e1 =
  experiment "E1"
    (fun ~smoke:_ -> [ Analysis.Comparison.figure4 () ])
    (fun series ->
      section "E1 / Figure 4: N(T) for 2,000 TPC/A users";
      Report.Ascii_plot.print ~title:"Figure 4" series;
      let p = default_params in
      row "spot values: N(5)=%.0f N(10)=%.0f N(50)=%.0f (curve: 0 -> 1999)\n"
        (Analysis.Mtf_model.expected_preceding p 5.0)
        (Analysis.Mtf_model.expected_preceding p 10.0)
        (Analysis.Mtf_model.expected_preceding p 50.0))

let e2 =
  experiment "E2"
    ~records:(always [ Metric ("analysis.bsd.cost", "pcbs", Fun.id) ])
    (fun ~smoke:_ -> Analysis.Bsd_model.cost default_params)
    (fun cost ->
      section "E2: BSD expected PCBs searched (Section 3.1, Eq 1)";
      row "E2 BSD expected PCBs searched : paper 1001    ours %.1f\n" cost)

let e3 =
  experiment "E3"
    ~records:(always [ Metric ("analysis.bsd.train_probability", "", Fun.id) ])
    (fun ~smoke:_ -> Analysis.Bsd_model.train_probability default_params)
    (fun train ->
      section "E3: BSD packet-train probability (Section 3.1)";
      row "E3 packet-train probability   : paper 1.9e-35 ours %.3g\n" train)

(* E4, E5 and E6 are the entry, ack and overall columns of one model
   table over the response time R. *)
let e4_e6_column id title ~paper column =
  experiment id
    (fun ~smoke:_ ->
      Analysis.Comparison.mtf_response_time_table [ 0.2; 0.5; 1.0; 2.0 ])
    (fun rows ->
      section (Printf.sprintf "%s: move-to-front %s (Section 3.2)" id title);
      row "%-6s %18s\n" "R" "paper/ours";
      List.iter2
        (fun paper ((r, _, _, _) as cells) ->
          row "%-6.1f %10d/%-7.0f\n" r paper (column cells))
        paper rows)

let e4 =
  e4_e6_column "E4" "transaction-entry cost" ~paper:[ 1019; 1045; 1086; 1150 ]
    (fun (_, entry, _, _) -> entry)

let e5 =
  e4_e6_column "E5" "acknowledgement cost" ~paper:[ 78; 190; 362; 659 ]
    (fun (_, _, ack, _) -> ack)

let e6 =
  e4_e6_column "E6" "overall cost" ~paper:[ 549; 618; 724; 904 ]
    (fun (_, _, _, overall) -> overall)

let e7 =
  (* The record is the paper's operating point, D = 1 ms. *)
  experiment "E7"
    ~records:
      (always [ Metric ("analysis.sr-cache.cost", "pcbs", List.assoc 0.001) ])
    (fun ~smoke:_ ->
      List.map
        (fun rtt ->
          (rtt, Analysis.Srcache_model.overall_cost
                  (Analysis.Tpca_params.v ~users:2000 ~rtt ())))
        [ 0.001; 0.010; 0.100 ])
    (fun rows ->
      section "E7: send/receive cache overall cost (Section 3.3, Eq 17)";
      row "%-8s %18s\n" "D" "paper/ours";
      List.iter2
        (fun paper (rtt, ours) ->
          row "%-8s %10d/%-8.0f\n" (Printf.sprintf "%gms" (rtt *. 1000.)) paper
            ours)
        [ 667; 993; 1002 ] rows)

(* E8-E11 each print one row of the Sequent model's numbers. *)
let e8_e11_row ?records id print_row =
  experiment id ?records
    (fun ~smoke:_ ->
      let p = default_params in
      ( Analysis.Sequent_model.hit_rate p ~chains:19,
        Analysis.Sequent_model.quiet_probability p ~chains:19,
        Analysis.Sequent_model.quiet_probability p ~chains:51,
        Analysis.Sequent_model.cost p ~chains:19,
        Analysis.Sequent_model.cost_naive p ~chains:19,
        Analysis.Sequent_model.cost p ~chains:100 ))
    (fun values ->
      section (id ^ ": Sequent hashed chains (Section 3.4)");
      print_row values)

let e8 =
  e8_e11_row "E8" (fun (hit, _, _, _, _, _) ->
      row "E8  hit rate H=19          : paper ~0.95%%  ours %.2f%%\n"
        (100. *. hit))

let e9 =
  e8_e11_row "E9" (fun (_, quiet19, quiet51, _, _, _) ->
      row "E9  quiet prob H=19 / H=51 : paper ~1.5%% / ~21%%  ours %.1f%% / %.1f%%\n"
        (100. *. quiet19) (100. *. quiet51))

let e10 =
  e8_e11_row "E10"
    ~records:
      (always
         [ Metric ("analysis.sequent-19.cost", "pcbs",
                   fun (_, _, _, cost19, _, _) -> cost19) ])
    (fun (_, _, _, cost19, naive19, _) ->
      row "E10 cost (Eq 22 vs Eq 19)  : paper 53.0 vs 53.6  ours %.1f vs %.1f\n"
        cost19 naive19)

let e11 =
  e8_e11_row "E11"
    ~records:
      (always
         [ Metric ("analysis.sequent-100.cost", "pcbs",
                   fun (_, _, _, _, _, cost100) -> cost100) ])
    (fun (_, _, _, _, _, cost100) ->
      row "E11 cost at H=100          : paper <9  ours %.2f\n" cost100)

let e12 =
  experiment "E12"
    (fun ~smoke:_ -> Analysis.Comparison.figure13 ())
    (fun series ->
      section "E12 / Figure 13: algorithm comparison, 0-10,000 connections";
      Report.Ascii_plot.print ~title:"Figure 13" series)

let e13 =
  experiment "E13"
    (fun ~smoke:_ -> Analysis.Comparison.figure14 ())
    (fun series ->
      section "E13 / Figure 14: detail, 0-1,000 connections";
      Report.Ascii_plot.print ~title:"Figure 14" series)

(* Simulation-backed experiments.  Sized to keep the whole bench run in
   tens of seconds; `tcpdemux simulate` runs bigger ones. *)

let validation_params = Analysis.Tpca_params.v ~users:1000 ()

(* One TPC/A pass over the paper's four algorithms with an obs registry
   attached: E14's table and records come from its rows, E27's
   examined-count percentiles from the registry that watched the same
   run.  Smoke shrinks the population and window for CI. *)
let e14_tpca ~smoke =
  let params =
    if smoke then Analysis.Tpca_params.v ~users:200 () else validation_params
  in
  let config =
    Sim.Tpca_workload.default_config
      ~duration:(if smoke then 20.0 else 150.0) ~seed:bench_seed params
  in
  let obs = Obs.Registry.create () in
  let rows =
    Sim.Validate.compare ~obs ~config params Demux.Registry.default_specs
  in
  (rows, Obs.Registry.snapshot obs)

let e14 =
  experiment "E14"
    ~records:
      (always
         (List.concat_map
            (fun spec ->
              let name = Demux.Registry.spec_name spec in
              point
                (fun (rows, _) ->
                  List.find
                    (fun (r : Sim.Validate.row) ->
                      r.Sim.Validate.algorithm = name)
                    rows)
                [ ("sim.tpca." ^ name ^ ".overall_mean", "pcbs",
                   fun r -> r.Sim.Validate.simulated) ])
            Demux.Registry.default_specs
         @ [ Histograms ("E27", snd) ]))
    e14_tpca
    (fun (rows, _) ->
      section "E14: simulation vs analysis (TPC/A, 1,000 users, 150 s)";
      Format.printf "%a@." Sim.Validate.pp_rows rows)

let e15 =
  experiment "E15"
    (fun ~smoke:_ ->
      let config =
        Sim.Polling_workload.default_config ~users:400 ~rounds:8 ()
      in
      Sim.Polling_workload.run config Demux.Registry.Mtf)
    (fun report ->
      section "E15: deterministic polling is MTF's worst case (Section 3.2)";
      row "MTF entry cost with deterministic think time, 400 users: paper N=400  ours %.1f\n"
        report.Sim.Report.entry_mean)

let e16 =
  experiment "E16"
    (fun ~smoke:_ ->
      let config = Sim.Trains_workload.default_config () in
      Sim.Trains_workload.run config Demux.Registry.Bsd)
    (fun report ->
      section "E16: packet trains redeem the BSD cache (Section 1)";
      row "BSD on mean-16 trains: hit rate %.2f (one-entry cache works), cost %.2f\n"
        report.Sim.Report.hit_rate report.Sim.Report.overall_mean)

(* Section 3.5's claim, on seeded simulations: move-to-front inside
   19 chains wins less than the factor of two the paper allows, and 100
   plain chains beat it.  At seed 42 the three read 26.46, 15.41 and
   6.64 PCBs. *)
let e17_gate ~smoke:_ (plain, mtf, more_chains) =
  let plain = plain.Sim.Report.overall_mean
  and mtf = mtf.Sim.Report.overall_mean
  and more_chains = more_chains.Sim.Report.overall_mean in
  failing (plain >= 2.0 *. mtf)
    "E17 REGRESSION: sequent-19 %.2f / hashed-mtf-19 %.2f = %.2f, not \
     below the paper's factor of two"
    plain mtf (plain /. mtf)
  @ failing (more_chains >= mtf)
      "E17 REGRESSION: sequent-100 %.2f PCBs does not beat hashed-mtf-19 \
       %.2f"
      more_chains mtf

let e17 =
  experiment "E17" ~gate:e17_gate
    ~records:
      (always
         [ Metric ("sim.e17.sequent-19.overall_mean", "pcbs",
                   fun (plain, _, _) -> plain.Sim.Report.overall_mean);
           Metric ("sim.e17.hashed-mtf-19.overall_mean", "pcbs",
                   fun (_, mtf, _) -> mtf.Sim.Report.overall_mean);
           Metric ("sim.e17.sequent-100.overall_mean", "pcbs",
                   fun (_, _, more_chains) ->
                     more_chains.Sim.Report.overall_mean) ])
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:150.0 validation_params
      in
      let hasher = Hashing.Hashers.multiplicative in
      ( Sim.Tpca_workload.run config
          (Demux.Registry.Sequent { chains = 19; hasher }),
        Sim.Tpca_workload.run config
          (Demux.Registry.Hashed_mtf { chains = 19; hasher }),
        Sim.Tpca_workload.run config
          (Demux.Registry.Sequent { chains = 100; hasher }) ))
    (fun (plain, mtf, more_chains) ->
      section "E17: hashing + move-to-front vs simply more chains (Section 3.5)";
      row "sequent H=19      : %.2f PCBs/packet\n" plain.Sim.Report.overall_mean;
      row "hashed-mtf H=19   : %.2f  (paper: at best ~2x better)\n"
        mtf.Sim.Report.overall_mean;
      row "sequent H=100     : %.2f  (paper: ~5x better — the better buy)\n"
        more_chains.Sim.Report.overall_mean)

let e18 =
  experiment "E18"
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:60.0 validation_params
      in
      Sim.Tpca_workload.run config (Demux.Registry.Conn_id { capacity = 2048 }))
    (fun report ->
      section "E18: connection-ID direct indexing (Section 3.5 counterfactual)";
      row "conn-id cost: exactly %.2f PCB/packet — what TP4/X.25/XTP buy;\n"
        report.Sim.Report.overall_mean;
      row "hashing gets within a small constant of it without protocol changes.\n")

let e19 =
  experiment "E19"
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:120.0 validation_params
      in
      let delayed = { config with Sim.Tpca_workload.delayed_acks = true } in
      ( Sim.Tpca_workload.run config Demux.Registry.Bsd,
        Sim.Tpca_workload.run delayed Demux.Registry.Bsd,
        Sim.Tpca_workload.run config Demux.Registry.Sr_cache,
        Sim.Tpca_workload.run delayed Demux.Registry.Sr_cache ))
    (fun (bsd, bsd_delayed, sr, sr_delayed) ->
      section "E19: delayed acknowledgements (paper footnote 2)";
      row "bsd      : normal %.1f  delayed-acks %.1f  (paper: 'no effect at the server')\n"
        bsd.Sim.Report.overall_mean bsd_delayed.Sim.Report.overall_mean;
      row "sr-cache : normal %.1f  delayed-acks %.1f  (send cache no longer evicted by query acks)\n"
        sr.Sim.Report.overall_mean sr_delayed.Sim.Report.overall_mean)

let e20 =
  experiment "E20"
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:120.0 validation_params
      in
      let chatty = { config with Sim.Tpca_workload.extra_query_packets = 2 } in
      ( Sim.Tpca_workload.run config Demux.Registry.Bsd,
        Sim.Tpca_workload.run chatty Demux.Registry.Bsd ))
    (fun (base, chatty) ->
      section "E20: the hit-ratio pitfall (Section 3.4, chatty clients)";
      let per_txn r packets_per_txn =
        r.Sim.Report.overall_mean *. packets_per_txn
      in
      row "efficient client : hit rate %.4f, %.1f PCBs/packet, %.0f PCBs/transaction\n"
        base.Sim.Report.hit_rate base.Sim.Report.overall_mean (per_txn base 2.0);
      row "3x-chatty client : hit rate %.4f, %.1f PCBs/packet, %.0f PCBs/transaction\n"
        chatty.Sim.Report.hit_rate chatty.Sim.Report.overall_mean
        (per_txn chatty 4.0);
      row "Hit ratio soars; work per transaction does not drop — 'the miss\n";
      row "penalty dominates the hit ratio' (paper Section 3.4).\n")

let e21 =
  experiment "E21"
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:120.0 validation_params
      in
      ( Sim.Tpca_workload.run config Demux.Registry.Splay,
        Sim.Tpca_workload.run config
          (Demux.Registry.Sequent
             { chains = 19; hasher = Hashing.Hashers.multiplicative }) ))
    (fun (splay, sequent) ->
      section "E21 (extension): splay tree vs hashed chains";
      row "splay      : %.2f PCBs/packet (worst %d) — self-adjusting, no tuning knob\n"
        splay.Sim.Report.overall_mean splay.Sim.Report.max_examined;
      row "sequent-19 : %.2f PCBs/packet (worst %d)\n"
        sequent.Sim.Report.overall_mean sequent.Sim.Report.max_examined;
      row "Splaying exploits the txn->ack locality the paper's caches chase,\n";
      row "with an O(log N) cold cost; 1992 hardware preferred hashing's\n";
      row "simpler memory behaviour, and so do modern stacks.\n")

let throughput_targets names =
  List.map
    (fun name -> Result.get_ok (Parallel.Throughput.target_of_name name))
    names

let e22 =
  experiment "E22"
    (fun ~smoke:_ ->
      Parallel.Throughput.scaling_table ~lookups_per_domain:20_000
        ~domains:[ 1; 2; 4 ]
        (throughput_targets
           [ "coarse:bsd"; "coarse:sequent-19"; "striped:sequent-19" ]))
    (fun results ->
      section "E22 (extension): parallel TCP, the paper's context [Dov90]";
      Format.printf "%a" Parallel.Throughput.pp_results results;
      row
        "A single lock serialises every inbound packet (coarse throughput\n\
         degrades as domains are added); per-chain locks let packets for\n\
         different connections proceed in parallel — the other reason\n\
         Sequent's parallel TCP hashed its PCBs.\n")

let e23 =
  experiment "E23"
    (fun ~smoke:_ ->
      let config = Sim.Mixed_workload.default_config ~oltp_users:1000 () in
      List.map
        (Sim.Mixed_workload.run config)
        Demux.Registry.
          [ Bsd; Mtf; Sr_cache;
            Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative } ])
    (fun results ->
      section "E23: mixed OLTP + bulk traffic (the abstract's full claim)";
      Format.printf "%a" Sim.Mixed_workload.pp_results results;
      row
        "Sequent is an order of magnitude better on the OLTP class while\n\
         still catching the bulk trains in its per-chain caches; note the\n\
         send/receive cache's OLTP cost is WORSE here than under pure\n\
         OLTP — the bulk stream keeps evicting its two cache slots.\n")

let e24 =
  experiment "E24"
    (fun ~smoke:_ ->
      let config =
        Sim.Tpca_workload.default_config ~duration:120.0 validation_params
      in
      List.map
        (fun entries ->
          ( entries,
            Analysis.Lru_model.cost validation_params ~entries,
            (Sim.Tpca_workload.run config
               (Demux.Registry.Lru_cache { entries }))
              .Sim.Report.overall_mean ))
        [ 1; 8; 64; 256 ])
    (fun rows ->
      section "E24 (extension): would a bigger cache have saved BSD?";
      row "%-10s %12s %12s\n" "K entries" "model" "simulated";
      List.iter
        (fun (entries, model, simulated) ->
          row "%-10d %12.1f %12.1f\n" entries model simulated)
        rows;
      row
        "A K-entry LRU cache starts catching response acks once K exceeds\n\
         the response-window packet count (~%.0f here) — but the floor is\n\
         still an order of magnitude above sequent-19's ~26.  Bigger\n\
         caches cannot rescue the linear scan; the miss penalty dominates.\n"
        (2.0 *. 0.1 *. 0.201 *. 999.0))

(* Think-time distribution ablation: same mean (10 s), different
   shapes.  MTF's TPC/A advantage came from exponential randomness;
   Sequent does not care. *)
let e25 =
  experiment "E25"
    (fun ~smoke:_ ->
      let base =
        Sim.Tpca_workload.default_config ~duration:120.0 validation_params
      in
      let shapes =
        [ ("truncated-exp", base.Sim.Tpca_workload.think);
          ("uniform(5,15)", Numerics.Distribution.uniform ~min:5.0 ~max:15.0);
          ("deterministic", Numerics.Distribution.deterministic 10.0) ]
      in
      List.map
        (fun (label, think) ->
          let config =
            { base with
              Sim.Tpca_workload.think;
              stagger =
                (* Deterministic think needs staggered starts to avoid a
                   degenerate thundering herd. *)
                (match label with
                | "deterministic" -> Sim.Tpca_workload.Even
                | _ -> base.Sim.Tpca_workload.stagger) }
          in
          ( label,
            (Sim.Tpca_workload.run config Demux.Registry.Mtf).Sim.Report.overall_mean,
            (Sim.Tpca_workload.run config
               (Demux.Registry.Sequent
                  { chains = 19; hasher = Hashing.Hashers.multiplicative }))
              .Sim.Report.overall_mean ))
        shapes)
    (fun rows ->
      section "E25 (extension): think-time shape ablation (Section 3.2's caveat)";
      row "%-16s %10s %12s\n" "think time" "mtf" "sequent-19";
      List.iter
        (fun (label, mtf, sequent) ->
          row "%-16s %10.1f %12.2f\n" label mtf sequent)
        rows;
      row
        "MTF's win over BSD (~%.0f) exists only while think times are\n\
         random; make them deterministic and it collapses to ~N.  The\n\
         hashed scheme is insensitive to the shape — robustness the paper\n\
         credits when dismissing move-to-front.\n"
        (Analysis.Bsd_model.cost validation_params))

(* Best-of-[trials] [(ns, minor words)] per lookup for each side, in
   order; a side [run] performs [run lookups] warm lookups.  Each trial
   times every side in turn, so the sides meet the same host noise.
   Each side keeps its minimum on both metrics: the floor is the
   signal, everything above it is scheduler noise (ns) or
   measurement-harness boxing (words).  Every warm lookup the bench
   times, and every warm-lookup allocation figure, comes from here. *)
let measure_lookups ~trials ~lookups sides =
  let best_ns = Array.make (List.length sides) infinity
  and best_words = Array.make (List.length sides) infinity in
  let per = float_of_int lookups in
  for _ = 1 to trials do
    List.iteri
      (fun j run ->
        let words_before = Gc.minor_words () in
        let t0 = Obs.Clock.now_ns () in
        run lookups;
        let t1 = Obs.Clock.now_ns () in
        let words_after = Gc.minor_words () in
        best_ns.(j) <- Float.min best_ns.(j) (float_of_int (t1 - t0) /. per);
        best_words.(j) <-
          Float.min best_words.(j) ((words_after -. words_before) /. per))
      sides
  done;
  List.mapi (fun j _ -> (best_ns.(j), best_words.(j))) sides

(* Distinct per-index keys for the table experiments (E31, E34, E35),
   synthesized directly as packed words: w0 carries the index, w1 is a
   mix. *)
let w1_of i = (i lxor 0x2545F491) * 0x9E3779B9

let throughput_rate results ~target ~domains ~batch =
  (List.find
     (fun (r : Parallel.Throughput.result) ->
       r.Parallel.Throughput.target = target
       && r.Parallel.Throughput.domains = domains
       && r.Parallel.Throughput.batch = batch)
     results)
    .Parallel.Throughput.lookups_per_second

(* One lookups/s record per (domains, batch) point of [target], read
   from the throughput results [results] picks out of the run. *)
let throughput_records results ~target ~domains ~batches =
  List.concat_map
    (fun d ->
      List.map
        (fun b ->
          Metric
            ( Printf.sprintf "parallel.%s.d%d.b%d.lookups_per_s" target d b,
              "lookups/s",
              fun r ->
                throughput_rate (results r) ~target ~domains:d ~batch:b ))
        batches)
    domains

(* Smoke keeps only the two points --check gates on: batch 1 vs 64 at
   4 domains. *)
let e28_domains ~smoke = if smoke then [ 4 ] else [ 1; 2; 4; 8 ]
let e28_batches ~smoke = if smoke then [ 1; 64 ] else [ 1; 8; 64 ]

let e28 =
  experiment "E28"
    ~records:(fun ~smoke ->
      throughput_records Fun.id ~target:"striped:sequent-19"
        ~domains:(e28_domains ~smoke) ~batches:(e28_batches ~smoke))
    (fun ~smoke ->
      Parallel.Throughput.scaling_table
        ~lookups_per_domain:(if smoke then 20_000 else 100_000)
        ~seed:bench_seed ~domains:(e28_domains ~smoke)
        ~batches:(e28_batches ~smoke)
        (throughput_targets [ "striped:sequent-19" ]))
    (fun results ->
      section
        "E28 (extension): batched demultiplexing amortises the stripe locks";
      Format.printf "%a" Parallel.Throughput.pp_results results;
      row
        "Per-packet lookup pays one mutex acquisition per packet; grouping\n\
         a burst by stripe and taking each stripe's lock once per batch\n\
         spreads that cost over the batch, so batched throughput pulls\n\
         ahead as domains (lock traffic) grow.  Timing is the monotonic\n\
         ns clock; per-lookup latencies are batch-amortised.\n")

(* E29: flat open-addressing PCB table vs chained Sequent, wall-clock
   and minor-heap allocation per warm lookup (DESIGN.md section 10).
   Both paths are allocation-free by construction; the regression bar
   is flat <= chained on {e both} metrics at every population. *)

let e29_populations = [ 100; 1_000; 10_000 ]

type e29_row = {
  n : int;
  chained_ns : float;
  chained_words : float;
  flat_ns : float;
  flat_words : float;
}

let e29_measure ~trials ~lookups n =
  let population = Sim.Topology.flows n in
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order = Array.init lookups (fun _ -> Numerics.Rng.int rng ~bound:n) in
  let chained = Demux.Sequent.create ~chains:19 () in
  Array.iter (fun f -> ignore (Demux.Sequent.insert chained f ())) population;
  let flat = Demux.Flat_table.create ~initial_capacity:n () in
  Array.iteri
    (fun id f ->
      Demux.Flat_table.replace flat ~w0:(Packet.Flow.w0 f)
        ~w1:(Packet.Flow.w1 f)
        (Demux.Pcb.make ~id ~flow:f ()))
    population;
  let run_chained count =
    for k = 0 to count - 1 do
      let f = population.(order.(k)) in
      ignore
        (Demux.Sequent.lookup chained Demux.Types.Data ~w0:(Packet.Flow.w0 f)
           ~w1:(Packet.Flow.w1 f))
    done
  in
  let run_flat count =
    for k = 0 to count - 1 do
      let f = population.(order.(k)) in
      ignore
        (Demux.Flat_table.find flat ~w0:(Packet.Flow.w0 f)
           ~w1:(Packet.Flow.w1 f))
    done
  in
  (* Warm both tables (fault in code paths and caches) before timing. *)
  run_chained (min lookups 1_000);
  run_flat (min lookups 1_000);
  match measure_lookups ~trials ~lookups [ run_chained; run_flat ] with
  | [ (chained_ns, chained_words); (flat_ns, flat_words) ] ->
    { n; chained_ns; chained_words; flat_ns; flat_words }
  | _ -> assert false

(* The tentpole's acceptance bar: the flat table must not lose to the
   chained baseline on time or allocation.  Allocation gets a hair of
   slack for the measurement harness's own float boxing (fractions of
   a word per lookup at these counts). *)
let e29_gate ~smoke:_ rows =
  List.concat_map
    (fun r ->
      failing (r.flat_ns > r.chained_ns)
        "E29 REGRESSION: flat %.1f ns/lookup > chained %.1f at N=%d"
        r.flat_ns r.chained_ns r.n
      @ failing (r.flat_words > r.chained_words +. 0.01)
          "E29 REGRESSION: flat %.4f minor words/lookup > chained %.4f at N=%d"
          r.flat_words r.chained_words r.n)
    rows

let e29 =
  experiment "E29"
    ~gate:e29_gate
    ~records:
      (always
         (List.concat_map
            (fun n ->
              point
                (List.find (fun r -> r.n = n))
                [ (Printf.sprintf "demux.chained.sequent-19.n%d.ns_per_lookup" n,
                   "ns", fun r -> r.chained_ns);
                  (Printf.sprintf
                     "demux.chained.sequent-19.n%d.minor_words_per_lookup" n,
                   "words", fun r -> r.chained_words);
                  (Printf.sprintf "demux.flat.n%d.ns_per_lookup" n, "ns",
                   fun r -> r.flat_ns);
                  (Printf.sprintf "demux.flat.n%d.minor_words_per_lookup" n,
                   "words", fun r -> r.flat_words) ])
            e29_populations))
    (fun ~smoke ->
      let trials = if smoke then 3 else 5 in
      let lookups = if smoke then 50_000 else 200_000 in
      List.map (e29_measure ~trials ~lookups) e29_populations)
    (fun rows ->
      section "E29 (extension): flat PCB table vs chained Sequent, warm lookups";
      row "%-8s %14s %14s %16s %16s\n" "N" "chained ns" "flat ns"
        "chained words" "flat words";
      List.iter
        (fun r ->
          row "%-8d %14.1f %14.1f %16.4f %16.4f\n" r.n r.chained_ns r.flat_ns
            r.chained_words r.flat_words)
        rows;
      row
        "Same multiplicative hash, same packed 96-bit key, compared as two\n\
         ints on both sides: each chain keeps its flows' packed words in one\n\
         array and compares the remote word first, so a chained examination\n\
         that misses is one load from contiguous memory (every flow here\n\
         shares its local word) and no node is touched until one matches.\n\
         The walk takes eight entries per step.  The gap is a linear scan\n\
         against one inline probe: the chained walk reads about N/38 entries\n\
         per lookup, the flat table a tag byte and, almost always, one\n\
         key-word pair.  Both allocate nothing per lookup (the words columns\n\
         are measurement-harness noise).  The gap widens with N, which is\n\
         the Cuckoo++/DPDK argument for flat connection tracking.\n")

(* E31: per-insert latency tail across a churn ramp, incremental vs
   doubling resize (DESIGN.md section 12).  Keys are synthesized
   directly as packed words — no flow allocation, so the timed window
   sees only the table.  The ramp crosses several growth triggers;
   incremental resize must keep the tail flat while doubling pays its
   stop-the-world copy, which shows up as a max-latency cliff orders
   of magnitude over p50.

   A third run — the same ramp on a table pre-sized so it never grows
   — is the control.  Single-shot insert timings on a busy host have
   a tail of their own (scheduler ticks, cache and TLB misses on a
   multi-megabyte table) that sits far above 8x the ~300 ns median
   and hits every policy alike, so the flat-tail bar is applied to
   the {e excess} of incremental's p999 over the control's p999: the
   latency the resize machinery itself adds at the tail. *)

type e31_row = {
  policy : string;
  p50_ns : int;
  p999_ns : int;
  max_ns : int;
  resizes : int;
}

let e31_policies = [ "incremental"; "doubling"; "presized" ]

let e31_measure ~warmup ~total ?initial_capacity ~name resize =
  let table : int Demux.Flat_table.t =
    Demux.Flat_table.create ?initial_capacity ~resize ()
  in
  let insert i = Demux.Flat_table.replace table ~w0:i ~w1:(w1_of i) i in
  let remove i = Demux.Flat_table.remove table ~w0:i ~w1:(w1_of i) in
  (* Churn: every 16th insert retires a key 8 behind it (untimed), so
     the ramp exercises backward-shift deletion and migration under a
     mixed mutation stream, not a pure append.  Gc.minor between
     timed inserts keeps collector pauses out of the latency samples:
     the tail being measured is the table's, not the heap's. *)
  for i = 0 to warmup - 1 do
    insert i;
    if i land 15 = 15 then remove (i - 8);
    if i land 4095 = 0 then Gc.minor ()
  done;
  let timed = total - warmup in
  let latencies = Array.make timed 0 in
  for k = 0 to timed - 1 do
    let i = warmup + k in
    let t0 = Obs.Clock.now_ns () in
    insert i;
    let t1 = Obs.Clock.now_ns () in
    latencies.(k) <- t1 - t0;
    if i land 15 = 15 then remove (i - 8);
    if i land 4095 = 0 then Gc.minor ()
  done;
  Array.sort (fun (a : int) b -> compare a b) latencies;
  { policy = name;
    p50_ns = latencies.(timed / 2);
    p999_ns = latencies.(timed * 999 / 1000);
    max_ns = latencies.(timed - 1);
    resizes = Demux.Flat_table.resizes table }

(* Host noise on a shared core arrives in bursts (scheduler ticks,
   vCPU steal) that can inflate a whole measurement epoch; noise only
   ever adds latency, so the best of three repetitions is the closest
   estimate of the quiet-host tail each policy actually has. *)
let e31_best ~warmup ~total ?initial_capacity ~name resize =
  let best = ref (e31_measure ~warmup ~total ?initial_capacity ~name resize) in
  for _ = 2 to 3 do
    let r = e31_measure ~warmup ~total ?initial_capacity ~name resize in
    if r.p999_ns < !best.p999_ns then best := r
  done;
  !best

let e31_run ~smoke =
  let warmup, total =
    if smoke then (10_000, 120_000) else (100_000, 1_000_000)
  in
  (* [2 * total] rounds up to a power of two past the 7/8 growth
     trigger for the whole ramp, so the control run never resizes. *)
  [ e31_best ~warmup ~total ~name:"incremental" Demux.Flat_table.Incremental;
    e31_best ~warmup ~total ~name:"doubling" Demux.Flat_table.Doubling;
    e31_best ~warmup ~total ~initial_capacity:(2 * total) ~name:"presized"
      Demux.Flat_table.Incremental ]

(* The tentpole's acceptance bar: the ramp really crosses growth
   triggers for both growing policies, the control never grows,
   incremental resize keeps the tail flat, and doubling still
   exhibits its copy cliff — if the cliff vanished, doubling changed
   and the comparison is no longer measuring what it claims.

   "Flat" is judged against the doubling run, not the pre-sized one:
   the pre-sized table coasts at under half load, so its tail misses
   the probe cost every growing policy pays while hovering near the
   7/8 trigger.  Doubling shares incremental's exact load trajectory
   and does zero migration work between triggers, and its copy cost
   is confined to a handful of max-latency samples far above the
   p999 rank — so at p999, doubling IS the no-resize-cost baseline,
   and incremental's excess over it is pure migration tax.  That
   excess must stay within 8x p50 — up to measurement noise, whose
   scale the pre-sized control exposes: on a host where a churn ramp
   with no resizing at all already shows a single-shot p999 of many
   multiples of p50, the excess is allowed up to twice the control's
   p999 instead.  (On a quiet machine the 8x-p50 arm dominates and
   the bar is the strict one.) *)
let e31_gate ~smoke:_ rows =
  let find name = List.find (fun r -> r.policy = name) rows in
  let incremental = find "incremental" in
  let doubling = find "doubling" in
  let presized = find "presized" in
  let excess = incremental.p999_ns - doubling.p999_ns in
  let bar = max (8 * incremental.p50_ns) (2 * presized.p999_ns) in
  failing (presized.resizes <> 0)
    "E31 BROKEN: pre-sized control resized %d time(s) — it no longer \
     isolates the noise floor"
    presized.resizes
  @ List.concat_map
      (fun r ->
        failing (r.resizes < 2)
          "E31 BROKEN: %s ramp crossed only %d growth trigger(s)" r.policy
          r.resizes)
      [ incremental; doubling ]
  @ failing (excess > bar)
      "E31 REGRESSION: incremental p999 %d ns exceeds doubling's p999 \
       %d ns by %d ns > max(8x p50 %d ns, 2x pre-sized p999 %d ns)"
      incremental.p999_ns doubling.p999_ns excess incremental.p50_ns
      presized.p999_ns
  @ failing (doubling.max_ns < 50 * doubling.p50_ns)
      "E31 BROKEN: doubling max %d ns < 50x p50 %d ns — the \
       stop-the-world cliff is missing"
      doubling.max_ns doubling.p50_ns

let e31 =
  experiment "E31"
    ~gate:e31_gate
    ~records:
      (always
         (List.concat_map
            (fun policy ->
              let metric suffix =
                Printf.sprintf "demux.resize.%s.%s" policy suffix
              in
              point
                (List.find (fun r -> r.policy = policy))
                [ (metric "p50_ns", "ns", fun r -> float_of_int r.p50_ns);
                  (metric "p999_ns", "ns", fun r -> float_of_int r.p999_ns);
                  (metric "max_ns", "ns", fun r -> float_of_int r.max_ns) ])
            e31_policies))
    e31_run
    (fun rows ->
      section
        "E31 (extension): insert-latency tail under growth, incremental vs \
         doubling";
      row "%-14s %10s %10s %12s %9s\n" "policy" "p50 ns" "p999 ns" "max ns"
        "resizes";
      List.iter
        (fun r ->
          row "%-14s %10d %10d %12d %9d\n" r.policy r.p50_ns r.p999_ns
            r.max_ns r.resizes)
        rows;
      row
        "Same Robin-Hood table, same churn ramp (inserts with interleaved\n\
         removes, population 100k -> ~1M); the pre-sized row never grows\n\
         and so measures the host's own single-shot timing tail.  Doubling\n\
         stops the world at every growth trigger, so its worst insert\n\
         costs a full-table copy; incremental resize migrates a bounded\n\
         handful of entries per mutation, so its p999 tracks the control's\n\
         to within a few multiples of p50 — the latency a connection-setup\n\
         packet sees no longer depends on whether it arrived at a resize\n\
         boundary.\n")

(* E33: striped locks vs lock-free epoch reads across the domain
   ladder (DESIGN.md section 13).  The same read-heavy harness drives
   both tables; the acceptance bar is that the epoch table's read
   throughput still leads at 8 domains, where striping's
   one-mutex-per-lookup cost is at its worst.  The two read-path
   guarantees behind the claim are measured, not asserted in prose: a
   warm read phase performs zero mutex acquisitions and allocates zero
   minor words per lookup. *)

let e33_domains = [ 1; 2; 4; 8 ]
let e33_targets = [ "striped:sequent-19"; "epoch:table" ]

(* Mutex acquisitions and minor words per lookup over a warm read
   phase of the epoch table. *)
let e33_read_path ~smoke =
  let population = if smoke then 10_000 else 50_000 in
  let lookups = if smoke then 100_000 else 400_000 in
  let flows = Sim.Topology.flows population in
  let module E = Epoch.Packed.Heap in
  let t = E.create () in
  E.load t
    (Array.mapi
       (fun i f ->
         (Packet.Flow.w0 f, Packet.Flow.w1 f, i))
       flows);
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order =
    Array.init lookups (fun _ -> Numerics.Rng.int rng ~bound:population)
  in
  (* [mem], not [find_flow]: the int table's [find_flow] boxes its
     result, and this loop gates zero allocation per lookup. *)
  let run count =
    for k = 0 to count - 1 do
      let f = flows.(order.(k)) in
      ignore
        (E.mem t ~w0:(Packet.Flow.w0 f) ~w1:(Packet.Flow.w1 f))
    done
  in
  (* Warm: the one-time reader registration happens here, before the
     counters are read. *)
  run 1_000;
  let locks_before = E.lock_acquisitions t in
  let words = snd (List.hd (measure_lookups ~trials:1 ~lookups [ run ])) in
  (E.lock_acquisitions t - locks_before, words)

let e33_gate ~smoke:_ (results, (mutex_delta, words_per_lookup)) =
  let rate target = throughput_rate results ~target ~domains:8 ~batch:1 in
  let striped = rate "striped:sequent-19" and epoch = rate "epoch:table" in
  failing (not (epoch > striped))
    "E33 REGRESSION: epoch %.0f lookups/s <= striped %.0f at 8 domains" epoch
    striped
  @ failing (mutex_delta <> 0)
      "E33 REGRESSION: warm epoch read phase took %d mutex acquisitions"
      mutex_delta
  (* The same harness-boxing slack as E29's allocation bar. *)
  @ failing (words_per_lookup > 0.01)
      "E33 REGRESSION: warm epoch lookup allocates %.4f minor words"
      words_per_lookup

let e33 =
  experiment "E33"
    ~gate:e33_gate
    ~records:
      (always
         (List.concat_map
            (fun target ->
              throughput_records fst ~target ~domains:e33_domains
                ~batches:[ 1 ])
            e33_targets
         @ [ Metric ("epoch.read_path.mutex_acquisitions", "locks",
                     fun (_, (mutex_delta, _)) -> float_of_int mutex_delta);
             Metric ("epoch.read_path.minor_words_per_lookup", "words",
                     fun (_, (_, words)) -> words) ]))
    (fun ~smoke ->
      let lookups_per_domain = if smoke then 20_000 else 100_000 in
      ( Parallel.Throughput.scaling_table ~lookups_per_domain
          ~seed:bench_seed ~domains:e33_domains
          (throughput_targets e33_targets),
        e33_read_path ~smoke ))
    (fun (results, (mutex_delta, words)) ->
      section "E33 (extension): lock-free epoch reads vs striped locks";
      Format.printf "%a" Parallel.Throughput.pp_results results;
      row "warm read phase: %d mutex acquisitions, %.4f minor words/lookup\n"
        mutex_delta words;
      row
        "Striping spreads the lock, it does not remove it: every lookup\n\
         still pays one acquisition, so the striped curve flattens as\n\
         domains grow.  An epoch reader pins (one atomic store), probes an\n\
         immutable published region and unpins — no mutex, no allocation —\n\
         so read throughput keeps scaling; writers pay instead with\n\
         copy-publish-retire work and grace-period reclamation\n\
         (DESIGN.md section 13).\n")

(* E34: churn at 10M resident flows, heap vs off-heap slot storage
   (DESIGN.md section 14).  E31 measured the resize machinery with GC
   pauses deliberately flushed between samples; E34 measures the
   opposite regime — the one a real receive path lives in.

   The ramp to 10M flows is deliberately UNTIMED: growth steps
   allocate multi-hundred-megabyte regions, and on the Bigarray side
   each such allocation also charges the GC's custom-memory
   accounting, scheduling extra major work.  Both are one-time
   construction costs; timing them would measure the ramp's allocation
   spikes, not the storage backends.  What E34 times is the steady
   state after the ramp: a churn plateau where every op inserts a
   fresh flow, removes the oldest resident one, and allocates one
   ~1 KB buffer (a stand-in for the packet being demultiplexed).
   With the shrunken minor heap below, those buffers force a minor
   collection every ~130 ops — an order of magnitude above the p999
   rank — so the op-latency tail measures what collections cost the
   packet path.

   A subtlety the pacing design forces on the gates: how much of the
   table's marking cost reaches the per-op tail depends on the
   runtime's slice scheduling, not on anything this code promises.
   At the full 10M configuration the collections riding on timed ops
   visibly carry the table (pauses tens of times worse on the heap
   backend), but at other scales — and under a tightened
   space_overhead, which makes the off-heap run's tiny major heap
   cycle continuously — the pacing can amortize or even invert the
   per-op comparison.  So the tail gate conservatively requires only
   parity (1.5x).  Where residency has signal no pacing can amortize
   is the cost of COMPLETING a cycle: a forced [Gc.full_major] — what
   compaction, a checkpoint, or any explicit collection pays — must
   mark the whole table on the heap backend and none of it off-heap.
   E34 measures that stall directly (best of three) and gates it
   hard.

   Alongside latency: bytes/flow (slot storage over resident flows,
   drained, against the packed lower bound — the smallest power-of-two
   region that admits the population at 7/8 load), the minor-pause
   distribution (a forced [Gc.minor] sampled every 1024 ops), and the
   warm-hit zero-allocation guarantee re-checked on the off-heap
   index. *)

type e34_row = {
  backend : string;
  e34_p50_ns : int;
  e34_p999_ns : int;
  e34_max_ns : int;
  bytes_per_flow : float;
  bytes_ratio : float;  (* resident bytes / packed lower bound *)
  pause_p50_ns : int;
  pause_p99_ns : int;
  full_major_ns : int;  (* cycle-completion stall: forced full major *)
  warm_words_per_lookup : float;
  e34_resizes : int;
}

let e34_backends = [ "heap"; "offheap" ]

(* Smallest power-of-two slot count (>= the table's 8-slot minimum)
   that holds [n] flows under the 7/8 growth trigger: the denominator
   of the bytes/flow ratio.  Power-of-two capacity is part of the
   design (mask probing), so the honest lower bound is the best
   power-of-two table, not a fictional perfectly-sized one. *)
let e34_lower_bound_bytes n =
  let rec fit cap = if n * 8 <= cap * 7 then cap else fit (cap * 2) in
  fit 8 * Demux.Storage.Heap.bytes_per_slot

let e34_measure (module M : Demux.Packed_table.S) ~total ~plateau =
  let table = M.create () in
  let insert i = M.replace table ~w0:i ~w1:(w1_of i) i in
  let remove i = M.remove table ~w0:i ~w1:(w1_of i) in
  (* Untimed ramp: build the resident population (15/16 of [total])
     through the same 1-in-16 churn shape E31 uses.  Timing starts
     only at the plateau, so region-allocation spikes never pollute
     the latency histogram. *)
  for i = 0 to total - 1 do
    insert i;
    if i land 15 = 15 then remove (i - 8)
  done;
  (* Finish the in-flight drain before timing: mutations on a resident
     key still run the migration step, so this terminates in
     O(pending) steps.  Key 0 is never removed (the ramp removes only
     keys = 7 mod 16, the plateau only keys >= total/16). *)
  while M.pending_migration table > 0 do
    M.replace table ~w0:0 ~w1:(w1_of 0) 0
  done;
  (* Settle the ramp's scheduled major work (including the Bigarray
     custom-memory charge) so the plateau starts from a quiesced
     collector on both backends. *)
  Gc.full_major ();
  let resident0 = M.length table in
  (* A 64-slot rolling window keeps ~64 KB of noise data live across
     minor collections, so promotion keeps scheduling major cycles. *)
  let noise = Array.make 64 Bytes.empty in
  let next = ref total in
  (* One plateau op = insert a fresh flow, evict the oldest resident
     one (the population stays ~constant, so no resizes fire), and
     allocate one ~1 KB packet stand-in — all inside the timed
     window.  About 1 op in 16 draws an eviction key the ramp already
     removed; the miss costs a probe, identically on both backends. *)
  let measure_pass () =
    let latency = Obs.Histogram.create () in
    let pauses = Obs.Histogram.create () in
    for k = 0 to plateau - 1 do
      let i = !next in
      incr next;
      let t0 = Obs.Clock.now_ns () in
      Array.unsafe_set noise (k land 63) (Bytes.create 1000);
      insert i;
      remove (i - resident0);
      let t1 = Obs.Clock.now_ns () in
      Obs.Histogram.record latency (t1 - t0);
      if k land 1023 = 1023 then begin
        let p0 = Obs.Clock.now_ns () in
        Gc.minor ();
        let p1 = Obs.Clock.now_ns () in
        Obs.Histogram.record pauses (p1 - p0)
      end
    done;
    (latency, pauses)
  in
  (* Best-of-two passes by p999, same rationale as E31's
     best-of-three: host noise only ever adds latency. *)
  let l1, ps1 = measure_pass () in
  let l2, ps2 = measure_pass () in
  let latency, pauses =
    if Obs.Histogram.p999 l2 < Obs.Histogram.p999 l1 then (l2, ps2)
    else (l1, ps1)
  in
  let resident = M.length table in
  let bytes = M.bytes table in
  let warm_words =
    (* Probe a window of recently inserted plateau keys — all resident
       by construction (evictions trail the insert frontier by
       [resident0] >> 4096).  Warm once so the measured loop sees only
       steady-state finds. *)
    let base = !next - 4096 in
    let run count =
      for k = 0 to count - 1 do
        let i = base + (k land 4095) in
        ignore (M.find table ~w0:i ~w1:(w1_of i))
      done
    in
    run 1_000;
    snd (List.hd (measure_lookups ~trials:1 ~lookups:200_000 [ run ]))
  in
  (* The cycle-completion stall: what any caller of [Gc.full_major]
     (compaction, a checkpoint, heap diagnostics) pays while the table
     is resident.  Best of three — host noise only adds latency. *)
  let full_major_ns =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Obs.Clock.now_ns () in
      Gc.full_major ();
      let t1 = Obs.Clock.now_ns () in
      if t1 - t0 < !best then best := t1 - t0
    done;
    !best
  in
  { backend = M.backend;
    e34_p50_ns = Obs.Histogram.p50 latency;
    e34_p999_ns = Obs.Histogram.p999 latency;
    e34_max_ns = Obs.Histogram.max_value latency;
    bytes_per_flow = float_of_int bytes /. float_of_int resident;
    bytes_ratio =
      float_of_int bytes /. float_of_int (e34_lower_bound_bytes resident);
    pause_p50_ns = Obs.Histogram.p50 pauses;
    pause_p99_ns = Obs.Histogram.p99 pauses;
    full_major_ns;
    warm_words_per_lookup = warm_words;
    e34_resizes = M.resizes table }

(* The minor heap is shrunk for the duration so the alloc-noise
   stream yields a minor collection every ~130 ops — an order of
   magnitude above the p999 rank — then restored.  Pacing is left at
   the defaults: tightening space_overhead makes the OFF-HEAP run's
   tiny major heap cycle continuously (frequent cycle-end pauses)
   while barely changing the heap run's amortized slices, which
   inverts the comparison for reasons that have nothing to do with
   storage. *)
let e34_run (module M : Demux.Packed_table.S) ~total ~plateau =
  let control = Gc.get () in
  Gc.set { control with Gc.minor_heap_size = 16384 };
  Fun.protect
    ~finally:(fun () ->
      Gc.set control;
      Gc.compact ())
    (fun () -> e34_measure (module M : Demux.Packed_table.S) ~total ~plateau)

(* The headline gates.  At smoke scale the table is a few MB, every
   GC effect is a coin flip between adjacent histogram octaves, and
   the only stable signal is the non-GC insert path, so smoke gates
   p50: off-heap accessors (Bigarray loads instead of array loads)
   must not be categorically slower than heap ones.  At full scale
   two gates apply.  The op-latency p999 is a PARITY bar with a
   1.5x noise allowance: the measured gap is far larger in
   off-heap's favor, but how much marking reaches the op tail is
   the runtime's slice-scheduling business (see the E34 header
   comment), so the gate only pins what the code promises — no
   regression.  The residency signal itself is gated where no
   pacing can amortize it: completing a
   full major cycle must mark ~0.5 GB of slot arrays on the heap
   backend and none of it off-heap, so the off-heap stall is
   required to come in at a quarter of the heap one (measured
   margin is ~100x; 4x keeps the gate honest under host noise). *)
let e34_gate ~smoke rows =
  let find backend = List.find (fun r -> r.backend = backend) rows in
  let heap = find "heap" in
  let offheap = find "offheap" in
  List.concat_map
    (fun r ->
      failing (r.e34_resizes < 2)
        "E34 BROKEN: %s ramp crossed only %d growth trigger(s)" r.backend
        r.e34_resizes
      @ failing (r.bytes_ratio > 1.25)
          "E34 REGRESSION: %s resident storage is %.3fx the packed \
           lower bound (bar 1.25x) — a drain leak or layout bloat"
          r.backend r.bytes_ratio)
    [ heap; offheap ]
  @ failing (offheap.warm_words_per_lookup > 0.01)
      "E34 REGRESSION: warm off-heap hit allocates %.4f minor words"
      offheap.warm_words_per_lookup
  @
  if smoke then
    failing (offheap.e34_p50_ns > 2 * heap.e34_p50_ns)
      "E34 REGRESSION: offheap p50 %d ns > 2x heap p50 %d ns — the \
       off-heap accessor path got categorically slower"
      offheap.e34_p50_ns heap.e34_p50_ns
  else
    failing (2 * offheap.e34_p999_ns > 3 * heap.e34_p999_ns)
      "E34 REGRESSION: offheap p999 %d ns > 1.5x heap p999 %d ns"
      offheap.e34_p999_ns heap.e34_p999_ns
    @ failing (4 * offheap.full_major_ns > heap.full_major_ns)
        "E34 REGRESSION: offheap full-major stall %d ns is not under \
         a quarter of the heap backend's %d ns — the collector is \
         still marking the slot storage"
        offheap.full_major_ns heap.full_major_ns

let e34 =
  experiment "E34"
    ~gate:e34_gate
    ~records:
      (always
         (List.concat_map
            (fun backend ->
              let metric suffix =
                Printf.sprintf "demux.storage.%s.%s" backend suffix
              in
              let ns field r = float_of_int (field r) in
              point
                (List.find (fun r -> r.backend = backend))
                [ (metric "p50_ns", "ns", ns (fun r -> r.e34_p50_ns));
                  (metric "p999_ns", "ns", ns (fun r -> r.e34_p999_ns));
                  (metric "max_ns", "ns", ns (fun r -> r.e34_max_ns));
                  (metric "bytes_per_flow", "bytes", fun r -> r.bytes_per_flow);
                  (metric "bytes_per_flow_ratio", "", fun r -> r.bytes_ratio);
                  (metric "minor_pause_p50_ns", "ns",
                   ns (fun r -> r.pause_p50_ns));
                  (metric "minor_pause_p99_ns", "ns",
                   ns (fun r -> r.pause_p99_ns));
                  (metric "full_major_ns", "ns", ns (fun r -> r.full_major_ns));
                  (metric "warm_minor_words_per_lookup", "words",
                   fun r -> r.warm_words_per_lookup) ])
            e34_backends))
    (fun ~smoke ->
      (* The full ramp's resident population crosses 10M flows
         (total minus the 1-in-16 churn removes); smoke keeps the
         same shape at CI scale, sized so the plateau's net insert
         drift stays under the growth trigger (no resize inside
         timed windows). *)
      let total = if smoke then 110_000 else 10_700_000 in
      let plateau = if smoke then 40_000 else 2_000_000 in
      let heap = e34_run (module Demux.Packed_table.Heap) ~total ~plateau in
      let offheap =
        e34_run (module Demux.Packed_table.Offheap) ~total ~plateau
      in
      [ heap; offheap ])
    (fun rows ->
      section
        "E34 (extension): off-heap vs heap slot storage at 10M flows, \
         GC-exposed tail";
      row "%-10s %9s %9s %11s %8s %7s %11s %11s %10s %7s\n" "backend"
        "p50 ns" "p999 ns" "max ns" "B/flow" "ratio" "pause p50"
        "pause p99" "cycle ms" "words";
      List.iter
        (fun r ->
          row "%-10s %9d %9d %11d %8.1f %7.3f %11d %11d %10.1f %7.4f\n"
            r.backend r.e34_p50_ns r.e34_p999_ns r.e34_max_ns
            r.bytes_per_flow r.bytes_ratio r.pause_p50_ns r.pause_p99_ns
            (float_of_int r.full_major_ns /. 1e6)
            r.warm_words_per_lookup)
        rows;
      row
        "Same Robin-Hood machinery, same untimed churn ramp to >10M\n\
         resident flows, then a timed steady-state plateau\n\
         (insert + evict + 1 KB packet stand-in per op); the only\n\
         difference is where the slot arrays live.  On the heap they are\n\
         ~0.5 GB of live int arrays the collector must traverse every\n\
         major cycle, and the collections that land inside timed ops\n\
         carry that work; in Bigarray storage the GC sees five small\n\
         custom blocks per region, so the same collections cost little.\n\
         The cycle-completion stall (the cycle-ms column: a forced full\n\
         major, what compaction or any checkpoint pays) is O(table) on\n\
         the heap and O(noise) off-heap.  Bytes/flow is identical by\n\
         construction (33 bytes/slot, power-of-two capacity) — off-heap\n\
         costs nothing in space and takes the table out of the\n\
         collector's workload (the \"millions of users\" scaling claim,\n\
         ROADMAP item 2).\n")

(* ------------------------------------------------------------------ *)
(* E35: flat Robin-Hood vs bucketized cuckoo under hostile lookups.

   The flat table's miss cost is load-dependent: a negative lookup
   walks the probe run until it meets an empty or richer slot, so an
   attacker who fills the table (SYN flood) or aims every query at
   one home slot (collision flood) taxes every miss.  The cuckoo
   table's per-bucket negative-lookup filter is the counter-claim:
   when no resident of the queried key's class was ever displaced out
   of its primary bucket, a miss resolves after scanning that single
   bucket's tag vector — one cache line — and the worst case is
   bounded by construction at two buckets plus the stash, independent
   of load and of the attacker's key choices.

   Four lookup profiles at N in {10k, 100k, 1M} residents:

   - uniform         — hits, uniformly random residents;
   - zipf            — hits, Zipf(1) popularity (hot keys dominate);
   - collision-flood — misses crafted via the inverted multiplicative
                       hash so every query homes to slot/bucket 0 of
                       either table (the strongest keyed attack
                       against the shared primary hash — the cuckoo
                       side still answers from one filtered bucket,
                       because the second hash is independent);
   - syn-flood       — misses, uniformly random absent keys (the
                       paper-scale table-bloat attack, miss-heavy).

   Each cell reports best-of-trials wall clock and an untimed probe
   census over the query set.  Probe units are each table's natural
   cost unit — slots inspected for flat (including the terminating
   slot), buckets scanned plus stash entries examined for cuckoo —
   i.e. cache lines touched by the key compare loop.  Gates: at 1M
   under syn-flood the cuckoo misses must beat flat on both ns and
   probes; every cuckoo cell's max probes must respect the 2 + stash
   structural bound; and a warm cuckoo hit must not allocate, on
   either storage backend. *)

type e35_row = {
  e35_algo : string;
  e35_profile : string;
  e35_n : int;
  e35_ns : float;
  e35_probes : float;  (* mean probes per lookup over the query set *)
  e35_max_probes : int;
}

let e35_populations = [ 10_000; 100_000; 1_000_000 ]
let e35_profiles = [ "uniform"; "zipf"; "collision-flood"; "syn-flood" ]

(* Query sets cycle a power-of-two pool so the timed loop indexes with
   a mask (no bounds math on the hot path). *)
let e35_qlen = 65536

(* Modular inverse of the golden-ratio multiplier mod 2^32, by Newton
   iteration (x <- x * (2 - a*x) doubles the correct low bits each
   round; odd a is its own inverse mod 8, so six rounds overshoot
   32 bits).  This is the attacker's tool: with the inverse in hand,
   any desired hash output can be turned into a fold32 preimage. *)
let e35_golden_inv =
  let a = 0x9E3779B1 in
  let rec refine x rounds =
    if rounds = 0 then x
    else refine ((x * (2 - (a * x))) land 0xFFFFFFFF) (rounds - 1)
  in
  let inv = refine a 6 in
  assert ((a * inv) land 0xFFFFFFFF = 1);
  inv

(* The j-th crafted absent key: its multiplicative hash is j lsl 21,
   so the low 21 bits are zero and the key homes to slot/bucket 0
   under any power-of-two mask up to 2^21 — which covers the flat
   table's 2^21 slots and the cuckoo table's 2^18 buckets at N = 1M,
   and every smaller population by mask nesting.  Work backwards:
   pick the 32-bit product P = j lsl 23 (j < 512 keeps P in range),
   recover the fold32 preimage f = P * golden^-1, then split f across
   (w0, w1) — w0 carries a >= 2^35 marker so the key can never equal
   a resident (residents use w0 = i < 2^20), and w1's low 16 bits are
   zeroed so the fold's OR term comes from w0 alone. *)
let e35_crafted_key j =
  let j = j land 511 in
  let product = j lsl 23 in
  let fold = (e35_golden_inv * product) land 0xFFFFFFFF in
  let w0 = ((0x80000 + j) lsl 16) lor 0x1234 in
  let high = (w0 lsr 16) lxor ((w0 land 0xFFFF) lsl 16) in
  let w1 = (fold lxor high) lsl 16 in
  (w0, w1)

(* Zipf(1) sampling by inverse CDF over the harmonic weights — the
   same popularity shape the locality workload uses, built once per
   population (the prefix-sum array is transient). *)
let e35_zipf_indexes ~n ~count rng =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  Array.init count (fun _ ->
      let u = Numerics.Rng.float rng *. !total in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then search (mid + 1) hi else search lo mid
      in
      search 0 (n - 1))

let e35_queries ~profile ~n ~seed =
  let qw0 = Array.make e35_qlen 0 and qw1 = Array.make e35_qlen 0 in
  let rng = Numerics.Rng.create ~seed in
  (match profile with
  | "uniform" ->
    for k = 0 to e35_qlen - 1 do
      let i = Numerics.Rng.int rng ~bound:n in
      qw0.(k) <- i;
      qw1.(k) <- w1_of i
    done
  | "zipf" ->
    let indexes = e35_zipf_indexes ~n ~count:e35_qlen rng in
    for k = 0 to e35_qlen - 1 do
      qw0.(k) <- indexes.(k);
      qw1.(k) <- w1_of indexes.(k)
    done
  | "collision-flood" ->
    for k = 0 to e35_qlen - 1 do
      let w0, w1 = e35_crafted_key k in
      qw0.(k) <- w0;
      qw1.(k) <- w1
    done
  | "syn-flood" ->
    (* Random absent keys: the w0 marker bit keeps them disjoint from
       residents without constraining either hash. *)
    for k = 0 to e35_qlen - 1 do
      qw0.(k) <- (1 lsl 40) lor Numerics.Rng.int rng ~bound:(1 lsl 30);
      qw1.(k) <- Numerics.Rng.int rng ~bound:max_int
    done
  | _ -> invalid_arg ("e35_queries: unknown profile " ^ profile));
  (qw0, qw1)

(* One (profile, population) pair of cells.  Each side is [(algo,
   mem, probe)]: an untimed probe census of each table over the
   distinct query pool, a warm pass of each, then [measure_lookups]
   over [lookups] mask-cycled membership tests per side.  Every side
   pays the same closure call, so the comparison is probe work only.
   Returns [(ns, mean probes, max probes)] per side, in order. *)
let e35_measure_cells sides ~qw0 ~qw1 ~lookups ~trials =
  let census (_, _, probe) =
    let sum = ref 0 and max_probes = ref 0 in
    for k = 0 to e35_qlen - 1 do
      let p = probe ~w0:qw0.(k) ~w1:qw1.(k) in
      sum := !sum + p;
      if p > !max_probes then max_probes := p
    done;
    (float_of_int !sum /. float_of_int e35_qlen, !max_probes)
  in
  let run (_, mem, _) count =
    for k = 0 to count - 1 do
      let i = k land (e35_qlen - 1) in
      ignore
        (mem ~w0:(Array.unsafe_get qw0 i) ~w1:(Array.unsafe_get qw1 i))
    done
  in
  let probes = List.map census sides in
  let runs = List.map run sides in
  List.iter (fun run -> run e35_qlen) runs;
  List.map2
    (fun (ns, _) (mean, max_probes) -> (ns, mean, max_probes))
    (measure_lookups ~trials ~lookups runs)
    probes

let e35_cells ~smoke =
  let lookups = if smoke then 100_000 else 2_000_000 in
  let trials = if smoke then 2 else 3 in
  (* Populations stay full-size even under smoke: the miss-cost claim
     is about load, and a small table would test nothing.  Smoke only
     shortens the timed windows. *)
  List.concat_map
    (fun n ->
      let module F = Demux.Packed_table.Heap in
      let module C = Demux.Cuckoo_table.Heap in
      let flat = F.create () in
      for i = 0 to n - 1 do
        F.replace flat ~w0:i ~w1:(w1_of i) i
      done;
      (* Finish the incremental migration so flat lookups probe one
         region — the steady state the resize policy converges to. *)
      while F.pending_migration flat > 0 do
        F.replace flat ~w0:0 ~w1:(w1_of 0) 0
      done;
      let cuckoo = C.create () in
      for i = 0 to n - 1 do
        C.replace cuckoo ~w0:i ~w1:(w1_of i) i
      done;
      List.concat_map
        (fun profile ->
          (* The syn-flood column measures the table mid-attack: the
             flood's embryonic connections have bloated both tables to
             just under their growth triggers (7/8 full for flat,
             15/16 for cuckoo) — the state the attack sustains, and
             the one where flat's miss runs are longest.  The flood
             keys live in a marker range disjoint from residents and
             from every query.  Profiles run in declaration order, so
             the hit columns are measured before the bloat.  No
             trigger is crossed (targets stop short), so capacity —
             and the crafted-collision mask argument — is unchanged. *)
          if profile = "syn-flood" then begin
            let flood_w0 j = (1 lsl 41) lor j in
            let flat_target = (F.capacity flat * 7 / 8) - 8 in
            let j = ref 0 in
            while F.length flat < flat_target do
              F.replace flat ~w0:(flood_w0 !j) ~w1:(w1_of (!j + 7)) !j;
              incr j
            done;
            let cuckoo_target =
              (C.capacity cuckoo * 15 / 16)
              - Demux.Cuckoo_table.stash_capacity - 8
            in
            let j = ref 0 in
            while C.length cuckoo < cuckoo_target do
              C.replace cuckoo ~w0:(flood_w0 !j) ~w1:(w1_of (!j + 7)) !j;
              incr j
            done
          end;
          let qw0, qw1 = e35_queries ~profile ~n ~seed:(bench_seed + n) in
          let sides =
            [ ( "flat",
                (fun ~w0 ~w1 -> F.mem flat ~w0 ~w1),
                fun ~w0 ~w1 -> F.probe_count flat ~w0 ~w1 );
              ( "cuckoo",
                (fun ~w0 ~w1 -> C.mem cuckoo ~w0 ~w1),
                fun ~w0 ~w1 -> C.probe_count cuckoo ~w0 ~w1 ) ]
          in
          List.map2
            (fun (algo, _, _) (ns, probes, max_probes) ->
              { e35_algo = algo; e35_profile = profile; e35_n = n;
                e35_ns = ns; e35_probes = probes;
                e35_max_probes = max_probes })
            sides
            (e35_measure_cells sides ~qw0 ~qw1 ~lookups ~trials))
        e35_profiles)
    e35_populations

let e35_algos = [ "flat"; "cuckoo" ]

(* Warm-hit allocation for the cuckoo read path, per storage backend:
   the same zero-allocation bar every other lookup structure in the
   tree is held to (DESIGN.md section 10). *)
let e35_warm_words (module M : Demux.Cuckoo_table.S) =
  let table = M.create () in
  for i = 0 to 4095 do
    M.replace table ~w0:i ~w1:(w1_of i) i
  done;
  let run count =
    for k = 0 to count - 1 do
      let i = k land 4095 in
      ignore (M.find table ~w0:i ~w1:(w1_of i))
    done
  in
  run 1_000;
  snd (List.hd (measure_lookups ~trials:1 ~lookups:200_000 [ run ]))

let e35_cell rows ~algo ~profile ~n =
  List.find
    (fun r -> r.e35_algo = algo && r.e35_profile = profile && r.e35_n = n)
    rows

let e35_gate ~smoke:_ (rows, (heap_words, offheap_words)) =
  (* The structural bound first: two buckets plus the stash, in every
     cell — if any adversarial profile pushed a cuckoo lookup past
     it, the filter/stash machinery is broken, not slow. *)
  let bound = 2 + Demux.Cuckoo_table.stash_capacity in
  (* The headline miss-heavy gate: at 1M residents under syn-flood,
     the filtered cuckoo miss must beat the flat Robin-Hood miss on
     both probe count and wall clock, strictly. *)
  let flat = e35_cell rows ~algo:"flat" ~profile:"syn-flood" ~n:1_000_000 in
  let cuckoo = e35_cell rows ~algo:"cuckoo" ~profile:"syn-flood" ~n:1_000_000 in
  List.concat_map
    (fun r ->
      failing (r.e35_algo = "cuckoo" && r.e35_max_probes > bound)
        "E35 BROKEN: cuckoo %s/n%d max probes %d exceeds the \
         structural bound %d"
        r.e35_profile r.e35_n r.e35_max_probes bound)
    rows
  @ failing (cuckoo.e35_probes >= flat.e35_probes)
      "E35 REGRESSION: cuckoo syn-flood misses probe %.2f units vs \
       flat %.2f at 1M — the negative-lookup filter is not \
       short-circuiting"
      cuckoo.e35_probes flat.e35_probes
  @ failing (cuckoo.e35_ns >= flat.e35_ns)
      "E35 REGRESSION: cuckoo syn-flood miss %.1f ns vs flat %.1f ns \
       at 1M — the probe advantage is not reaching wall clock"
      cuckoo.e35_ns flat.e35_ns
  @ List.concat_map
      (fun (backend, words) ->
        failing (words > 0.01)
          "E35 REGRESSION: warm cuckoo hit (%s) allocates %.4f minor \
           words per lookup"
          backend words)
      [ ("heap", heap_words); ("offheap", offheap_words) ]

let e35 =
  experiment "E35"
    ~gate:e35_gate
    ~records:
      (always
         (List.concat_map
            (fun n ->
              List.concat_map
                (fun profile ->
                  List.concat_map
                    (fun algo ->
                      let metric suffix =
                        Printf.sprintf "demux.e35.%s.%s.n%d.%s" algo profile n
                          suffix
                      in
                      point
                        (fun (rows, _) -> e35_cell rows ~algo ~profile ~n)
                        [ (metric "ns_per_lookup", "ns", fun r -> r.e35_ns);
                          (metric "probes_per_lookup", "probes",
                           fun r -> r.e35_probes);
                          (metric "max_probes", "probes",
                           fun r -> float_of_int r.e35_max_probes) ])
                    e35_algos)
                e35_profiles)
            e35_populations
         @ [ Metric ("demux.e35.cuckoo.heap.warm_minor_words_per_lookup",
                     "words", fun (_, (heap, _)) -> heap);
             Metric ("demux.e35.cuckoo.offheap.warm_minor_words_per_lookup",
                     "words", fun (_, (_, offheap)) -> offheap) ]))
    (fun ~smoke ->
      let cells = e35_cells ~smoke in
      ( cells,
        ( e35_warm_words (module Demux.Cuckoo_table.Heap),
          e35_warm_words (module Demux.Cuckoo_table.Offheap) ) ))
    (fun (rows, (heap_words, offheap_words)) ->
      section
        "E35 (extension): flat Robin-Hood vs bucketized cuckoo under \
         hostile lookup profiles";
      row "%-8s %-16s %9s %10s %10s %6s\n" "algo" "profile" "n" "ns/lookup"
        "probes" "max";
      List.iter
        (fun r ->
          row "%-8s %-16s %9d %10.1f %10.2f %6d\n" r.e35_algo r.e35_profile
            r.e35_n r.e35_ns r.e35_probes r.e35_max_probes)
        rows;
      row "warm cuckoo hit: %.4f minor words/lookup (heap), %.4f (offheap)\n"
        heap_words offheap_words;
      row
        "Hits are a wash — one filtered bucket vs a short Robin-Hood run\n\
         — but misses diverge: the flat walk lengthens with load and with\n\
         crafted home-slot collisions, while the cuckoo filter answers\n\
         most misses from one bucket's tag vector and is capped at two\n\
         buckets plus the stash by construction, whatever the attacker\n\
         knows about the primary hash.\n")

(* E36: the shared-nothing per-core stacks (DESIGN.md section 16).
   Every prior parallel experiment shared the flow table and scaled
   the lookup; here each domain owns a complete TCP stack — connection
   table, timer wheel, demux table — and a dispatcher steers raw
   datagrams by flow, so the full path (parse -> demux -> state
   machine) runs without a single shared mutable word.  Two passes:
   the domain ladder for delivered packets/sec, and a migration run —
   every accepted connection handed off the listener core — gated on
   exact conservation.  Neither times a stage: rxbench's traced
   smp-oltp run is the per-stage account (EXPERIMENTS.md E36).
   Throughput rows are recorded at every rung regardless of the host;
   the strict 8-domain > 1-domain bar is only enforced where 8
   hardware threads exist, because on fewer cores the ladder measures
   time-slicing, not scaling. *)

let e36_domains = [ 1; 2; 4; 8 ]
let e36_server_addr = Sim.Topology.server.Packet.Flow.addr

type e36_result = {
  ladder : (int * Parallel.Smp.result) list;
  migrated : Parallel.Smp.result;
}

let e36_run ~smoke =
  let clients, requests = if smoke then (80, 4) else (800, 12) in
  let datagrams =
    (Sim.Segment_workload.generate
       (Sim.Segment_workload.config ~clients ~requests_per_client:requests
          ~interleave:Sim.Segment_workload.Round_robin ~seed:bench_seed ()))
      .Sim.Segment_workload.datagrams
  in
  let run config = Parallel.Smp.run config datagrams in
  (* The scaling ladder: chain-affine steering, no migration. *)
  let ladder =
    List.map
      (fun domains ->
        (domains,
         run (Parallel.Smp.config ~domains ~local_addr:e36_server_addr ())))
      e36_domains
  in
  (* The migration pass: listener core accepts, every connection
     migrates, the dispatcher holds each flow while it moves;
     conservation is the result. *)
  let migrated =
    run
      (Parallel.Smp.config
         ~demux:(Demux.Registry.Conn_id { capacity = 65536 })
         ~migrate:true ~domains:4 ~local_addr:e36_server_addr ())
  in
  { ladder; migrated }

let e36_gate ~smoke:_ r =
  let conservation label (result : Parallel.Smp.result) =
    match Parallel.Smp.violations result with
    | [] -> []
    | violations ->
      [ String.concat "\n  "
          (Printf.sprintf "E36 BROKEN: %s violates conservation:" label
          :: violations) ]
  in
  let rate domains = (List.assoc domains r.ladder).Parallel.Smp.packets_per_s in
  let threads = Domain.recommended_domain_count () in
  List.concat_map
    (fun (d, result) ->
      conservation (Printf.sprintf "ladder at %d domains" d) result)
    r.ladder
  @ conservation "migration run" r.migrated
  @ failing (r.migrated.Parallel.Smp.handoffs = 0)
      "E36 BROKEN: migration run performed no handoffs"
  (* The scaling bar, where the hardware can express it. *)
  @ failing (threads >= 8 && not (rate 8 > rate 1))
      "E36 REGRESSION: 8 shared-nothing stacks deliver %.0f pkts/s <= \
       %.0f at 1 domain on %d hardware threads"
      (rate 8) (rate 1) threads

let e36 =
  experiment "E36"
    ~gate:e36_gate
    ~records:
      (always
         (List.concat_map
            (fun d ->
              point
                (fun r -> List.assoc d r.ladder)
                [ (Printf.sprintf "smp.d%d.packets_per_s" d, "pkts/s",
                   fun (result : Parallel.Smp.result) ->
                     result.Parallel.Smp.packets_per_s) ])
            e36_domains
         @ point
             (fun r -> r.migrated)
             [ ("smp.migrate.handoffs", "flows",
                fun m -> float_of_int m.Parallel.Smp.handoffs);
               ("smp.migrate.held", "datagrams",
                fun m -> float_of_int m.Parallel.Smp.held);
               ("smp.migrate.flushes", "flows",
                fun m -> float_of_int m.Parallel.Smp.flushes);
               ("smp.migrate.violations", "count",
                fun m -> float_of_int (List.length (Parallel.Smp.violations m)))
             ]))
    e36_run
    (fun r ->
      section
        "E36 (extension): shared-nothing per-core TCP stacks with flow \
         steering";
      let threads = Domain.recommended_domain_count () in
      row "%-10s %14s %12s %10s\n" "domains" "pkts/s" "delivered" "handoffs";
      (* A rung runs d workers plus the dispatcher. *)
      List.iter
        (fun (d, (result : Parallel.Smp.result)) ->
          row "%-10d %14.0f %12d %10d%s\n" d result.Parallel.Smp.packets_per_s
            result.Parallel.Smp.total result.Parallel.Smp.handoffs
            (if d + 1 > threads then "   (time-sliced)" else ""))
        r.ladder;
      if threads < 8 then
        row "scaling bar skipped (%d hardware threads < 8); rates \
             recorded, not enforced\n"
          threads;
      row
        "migration: %d handoffs, %d datagrams held, %d flushes, \
         conservation exact\n"
        r.migrated.Parallel.Smp.handoffs r.migrated.Parallel.Smp.held
        r.migrated.Parallel.Smp.flushes;
      row
        "Each domain owns its connection table, timer wheel and demux\n\
         table outright — the dispatcher steers whole flows, so no lookup,\n\
         timer or state transition ever crosses a core boundary, and the\n\
         migration pass shows the one moment ownership moves is a\n\
         message-passing handoff with exact segment accounting, not a\n\
         shared structure.\n")

(* E37: PCBs examined in nanoseconds.  The paper's figure of merit
   stands in for time; E37 records the two side by side for the
   registry's algorithms on one workload: 2,000 established flows (the
   paper's TPC/A population) looked up in one seeded uniform order.
   Each row counts PCBs examined over an untimed census of the
   freshly built table, which is also its warm pass, then every row's
   lookups are timed by [measure_lookups], their trials interleaved.
   Two more Sequent-19 rows price the lookup's observability: the
   examined-count histogram, and an enabled tracer. *)

let e37_population = 2_000

(* [(row, spec, attach)]: [attach] hooks observability onto the row's
   lookup stats before the census. *)
let e37_rows =
  let hasher = Hashing.Hashers.multiplicative in
  let sequent_19 = Demux.Registry.Sequent { chains = 19; hasher } in
  List.map
    (fun spec -> (Demux.Registry.spec_name spec, spec, ignore))
    Demux.Registry.
      [ Linear; Bsd; Mtf; Sr_cache; sequent_19;
        Sequent { chains = 100; hasher }; Hashed_mtf { chains = 19; hasher };
        Conn_id { capacity = 2048 }; Resizing_hash; Splay ]
  @ [ ( "sequent-19+histogram", sequent_19,
        fun stats ->
          Demux.Lookup_stats.set_histogram stats
            (Some (Obs.Histogram.create ())) );
      ( "sequent-19+trace", sequent_19,
        fun stats ->
          Demux.Lookup_stats.set_tracer stats
            (Obs.Trace.create ~capacity:4096 ()) ) ]

type e37_row = {
  e37_name : string;
  e37_pcbs : float;  (* PCBs examined per census lookup *)
  e37_ns : float;
  e37_words : float;
}

let e37_run ~smoke =
  let census = if smoke then 5_000 else 50_000 in
  let lookups = if smoke then 10_000 else 50_000 in
  let trials = if smoke then 2 else 3 in
  let flows = Sim.Topology.flows e37_population in
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order =
    Array.init (max census lookups) (fun _ ->
        Numerics.Rng.int rng ~bound:e37_population)
  in
  let tables =
    List.map
      (fun (name, spec, attach) ->
        let demux = Demux.Registry.create spec in
        Array.iter
          (fun flow -> ignore (demux.Demux.Registry.insert flow ()))
          flows;
        let stats = demux.Demux.Registry.stats in
        attach stats;
        let run count =
          for k = 0 to count - 1 do
            let f = flows.(order.(k)) in
            ignore
              (demux.Demux.Registry.lookup Demux.Types.Data
                 ~w0:(Packet.Flow.w0 f) ~w1:(Packet.Flow.w1 f))
          done
        in
        Demux.Lookup_stats.reset stats;
        run census;
        ( name,
          Demux.Lookup_stats.mean_examined (Demux.Lookup_stats.snapshot stats),
          run ))
      e37_rows
  in
  let timed =
    measure_lookups ~trials ~lookups (List.map (fun (_, _, run) -> run) tables)
  in
  List.map2
    (fun (name, pcbs, _) (ns, words) ->
      { e37_name = name; e37_pcbs = pcbs; e37_ns = ns; e37_words = words })
    tables timed

let e37 =
  experiment "E37"
    ~records:
      (always
         (List.concat_map
            (fun (name, _, _) ->
              let metric = Printf.sprintf "demux.e37.%s.%s" name in
              point
                (List.find (fun r -> r.e37_name = name))
                [ (metric "pcbs_examined_per_lookup", "pcbs",
                   fun r -> r.e37_pcbs);
                  (metric "ns_per_lookup", "ns", fun r -> r.e37_ns);
                  (metric "minor_words_per_lookup", "words",
                   fun r -> r.e37_words) ])
            e37_rows))
    e37_run
    (fun rows ->
      section "E37 (extension): PCBs examined in nanoseconds, N = 2,000";
      row "%-22s %12s %10s %10s\n" "algorithm" "PCBs/lookup" "ns/lookup"
        "words";
      List.iter
        (fun r ->
          row "%-22s %12.2f %10.1f %10.2f\n" r.e37_name r.e37_pcbs r.e37_ns
            r.e37_words)
        rows;
      row
        "Paper, no locality: BSD %.0f PCBs (Eq 1), Sequent-19 %.1f\n\
         (Eq 19).  An order-of-magnitude PCB gap is a several-fold time\n\
         gap, not a proportional one: every lookup also pays a fixed cost\n\
         that the count does not see.\n"
        (Analysis.Bsd_model.cost default_params)
        (Analysis.Sequent_model.cost_naive default_params ~chains:19))

let hash_ablation =
  experiment "ablation"
    (fun ~smoke:_ ->
      let flows = Array.to_list (Sim.Topology.flows 2000) in
      List.map
        (fun hasher ->
          (hasher, Hashing.Quality.evaluate_hash hasher ~buckets:19 flows))
        Hashing.Hashers.all)
    (fun rows ->
      section "Ablation: hash-function chain balance (DESIGN.md section 6)";
      row "%-16s %9s %7s %9s %9s\n" "hash" "max-load" "cv" "chi2" "E[scan]";
      List.iter
        (fun (hasher, q) ->
          row "%-16s %9d %7.3f %9.1f %9.2f\n" (Hashing.Hashers.name hasher)
            q.Hashing.Quality.max_load
            q.Hashing.Quality.coefficient_of_variation
            q.Hashing.Quality.chi_square q.Hashing.Quality.expected_search_cost)
        rows)
(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)

(* Full runs walk every entry in this order; smoke runs walk the
   entries that declare records.  E26, E30 and E32 are `tcpdemux`
   subcommands, and E27's records ride on E14's run. *)
let experiments =
  [ e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14;
    e15; e16; e17; e18; e19; e20; e21; e22; e23; e24; e25; e28; e29;
    e31; e33; e34; e35; e36; e37; hash_ablation ]

let declares_records ~smoke (E e) =
  match e.records ~smoke with [] -> false | _ :: _ -> true

(* ------------------------------------------------------------------ *)
(* Running the table                                                   *)

let json_record ~id ~metric ~units value =
  Obs.Json.Obj
    [ ("id", Obs.Json.String id); ("metric", Obs.Json.String metric);
      ("value", Obs.Json.Float value); ("units", Obs.Json.String units);
      ("seed", Obs.Json.Int bench_seed) ]

let histogram_records ~id snapshot =
  List.concat_map
    (fun metric ->
      match metric.Obs.Registry.data with
      | Obs.Registry.Histogram (summary, _) ->
        let record suffix value =
          json_record ~id ~metric:(metric.Obs.Registry.name ^ suffix)
            ~units:metric.Obs.Registry.units (float_of_int value)
        in
        [ record ".p50" summary.Obs.Histogram.p50;
          record ".p99" summary.Obs.Histogram.p99 ]
      | Obs.Registry.Counter _ | Obs.Registry.Gauge _ -> [])
    snapshot

(* Measure one experiment once, print it when [print], read every
   record it declares, then apply its gate; return its records and
   its failed bars.  A declared record the run did not produce fails
   the run like a gate does. *)
let run_experiment ~smoke ~print (E e) =
  let result = e.run ~smoke in
  if print then e.print result;
  let records, missing =
    List.partition_map
      (function
        | Metric (metric, units, value) -> (
          match value result with
          | v -> Either.Left [ json_record ~id:e.id ~metric ~units v ]
          | exception Not_found ->
            Either.Right
              (Printf.sprintf "%s BROKEN: the run produced no %s record" e.id
                 metric))
        | Histograms (id, snapshot) ->
          Either.Left (histogram_records ~id (snapshot result)))
      (e.records ~smoke)
  in
  (List.concat records, if missing = [] then e.gate ~smoke result else missing)

(* The records go out with the run's failed bars, so a failing run
   still reaches --check and the archive, which refuse it. *)
let write_records path records failures =
  Obs.Json.write_file path
    (Obs.Json.Obj
       [ ("schema", Obs.Json.String "tcpdemux-bench/1");
         ("records", Obs.Json.List records);
         ("failures",
          Obs.Json.List (List.map (fun f -> Obs.Json.String f) failures)) ]);
  Printf.printf "wrote %d benchmark records (%d failed bars) to %s\n"
    (List.length records) (List.length failures) path

(* Schema sanity for --check: fail loudly (exit 1) on a run that
   failed a bar, on anything a regression dashboard could not ingest,
   or on a missing record the table declares. *)
let check_records path =
  let fail message =
    Printf.eprintf "%s: %s\n" path message;
    exit 1
  in
  let field name json reader = Option.bind (Obs.Json.member name json) reader in
  match Obs.Json.of_file path with
  | Error message -> fail message
  | Ok json ->
    (match field "schema" json Obs.Json.to_string_opt with
    | Some "tcpdemux-bench/1" -> ()
    | Some other ->
      fail (Printf.sprintf "schema %S, want tcpdemux-bench/1" other)
    | None -> fail "missing schema field");
    (match field "failures" json Obs.Json.to_list_opt with
    | Some [] -> ()
    | Some failures ->
      fail
        (String.concat "\n"
           ("the run failed these bars:"
           :: List.filter_map Obs.Json.to_string_opt failures))
    | None -> fail "failures is not a list");
    (match field "records" json Obs.Json.to_list_opt with
    | None -> fail "records is not a list"
    | Some [] -> fail "records is empty"
    | Some items ->
      let present =
        List.mapi
          (fun index item ->
            let where name =
              Printf.sprintf "record %d: bad or missing %s" index name
            in
            let str name =
              match field name item Obs.Json.to_string_opt with
              | Some s -> s
              | None -> fail (where name)
            in
            let id = str "id" and metric = str "metric" in
            if id = "" then fail (where "id");
            if metric = "" then fail (where "metric");
            ignore (str "units");
            (match field "value" item Obs.Json.to_float_opt with
            | Some value when Float.is_finite value -> ()
            | Some _ | None -> fail (where "value"));
            (match field "seed" item Obs.Json.to_int_opt with
            | Some _ -> ()
            | None -> fail (where "seed"));
            ((id, metric), item))
          items
      in
      (* Coverage: every record the table declares at smoke size (the
         floor every records file holds) must be present, or a
         dashboard's regression series silently goes dark. *)
      let declared =
        List.concat_map
          (fun (E e) ->
            List.filter_map
              (function
                | Metric (metric, _, _) -> Some (e.id, metric)
                | Histograms _ -> None)
              (e.records ~smoke:true))
          experiments
      in
      let missing =
        List.filter (fun key -> not (List.mem_assoc key present)) declared
      in
      if missing <> [] then
        fail
          (String.concat "\n"
             (List.map
                (fun (id, metric) ->
                  Printf.sprintf "missing %s record %s" id metric)
                missing));
      (match List.assoc_opt ("E36", "smp.migrate.violations") present with
      | Some item when field "value" item Obs.Json.to_float_opt <> Some 0. ->
        fail "E36 migration conservation violated (smp.migrate.violations > 0)"
      | Some _ | None -> ());
      Printf.printf
        "%s: %d records (all %d declared present, no failed bar, \
         migration conservation ok), schema ok\n"
        path (List.length items) (List.length declared))

(* The differential-check and chaos gates: --check refuses to bless a
   benchmark run unless a passing tcpdemux-check/1 report (check.json)
   and a passing tcpdemux-chaos/1 report (chaos.json) sit next to it —
   perf numbers from tables the oracle has not cleared, or from a
   pipeline that did not survive the fault scenarios with a clean
   replay audit, are not results. *)
let check_report ~schema ~command validate path =
  match validate path with
  | Ok () -> Printf.printf "%s: %s ok\n" path schema
  | Error message ->
    Printf.eprintf "%s: %s\n(run `tcpdemux %s --smoke --json %s` first)\n" path
      message command path;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench [--smoke] [--json FILE] [--eNN ...]\n\
    \       bench --check FILE\n\
     \  --smoke      small populations and windows (CI); without --eNN,\n\
     \               runs only the experiments that declare records\n\
     \  --json FILE  write tcpdemux-bench/1 records, and the bars the run\n\
     \               failed, to FILE\n\
     \  --eNN        run only experiment ENN (repeatable; e.g. --e29),\n\
     \               full size unless --smoke\n\
     \  --check FILE validate a records file (schema, every declared\n\
     \               record, no failed bar) plus the passing check.json\n\
     \               and chaos.json reports in FILE's directory, and exit";
  exit 2

let () =
  let smoke = ref false and json = ref None and check = ref None in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--check" :: path :: rest -> check := Some path; parse rest
    | flag :: rest when String.starts_with ~prefix:"--e" flag ->
      let id = "E" ^ String.sub flag 3 (String.length flag - 3) in
      (match List.find_opt (fun (E e) -> e.id = id) experiments with
      | Some entry -> selected := entry :: !selected; parse rest
      | None -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke in
  match !check with
  | Some path ->
    check_records path;
    let beside name = Filename.concat (Filename.dirname path) name in
    check_report ~schema:"tcpdemux-check/1" ~command:"check"
      Check.Report.validate_file (beside "check.json");
    check_report ~schema:"tcpdemux-chaos/1" ~command:"chaos"
      Check.Chaos.validate_file (beside "chaos.json")
  | None ->
    print_endline
      "tcpdemux benchmark harness — McKenney & Dove (1992) reproduction";
    let entries =
      match List.rev !selected with
      | [] when smoke -> List.filter (declares_records ~smoke) experiments
      | [] -> experiments
      | chosen -> chosen
    in
    let records, failures =
      List.split (List.map (run_experiment ~smoke ~print:(not smoke)) entries)
    in
    let failures = List.concat failures in
    Option.iter
      (fun path -> write_records path (List.concat records) failures)
      !json;
    (* The only place the bench reports a failed bar: every one, on
       stderr, after every selected experiment has run. *)
    if failures <> [] then begin
      List.iter prerr_endline failures;
      exit 1
    end;
    print_endline "\ndone."
