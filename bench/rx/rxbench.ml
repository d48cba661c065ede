(* rxbench: the receive-path benchmark.

     rxbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--spans DIR] [--json FILE] [--benchmark FILE]
     rxbench --smoke [--benchmark FILE] [--spans DIR]
     rxbench --compare A.json B.json [--benchmark FILE]

   A run replays a seeded datagram trace through the shipped receive
   path for [--seconds] of passes and prints one line per metric
   (workload, name, value, unit, samples), then one JSON summary line.
   [--trace 0] measures the end-to-end metrics with the path whole;
   [--trace 1] is the separate traced run that takes the path apart for
   the per-layer metrics and writes span files.  Every pass runs the
   workload's correctness oracle; any failure makes the run exit 1.
   See README.md for the workloads and what each metric should move. *)

type measured = { value : float; samples : int }

type acc = {
  mutable metrics : (string * measured) list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable passes : (string * int) list;
}

let add acc name value samples =
  acc.metrics <- (name, { value; samples }) :: acc.metrics

let problem acc fmt =
  Printf.ksprintf (fun s -> acc.problems <- s :: acc.problems) fmt

let med l = Stats.median (Array.of_list l)
let now_s () = float_of_int (Obs.Clock.now_ns ()) /. 1e9

(* [step k] for k = 1, 2, ... until [seconds] have passed and at least
   [min] steps ran; a smoke run stops at [min]. *)
let repeat ~smoke ~seconds ~min step =
  let t0 = now_s () in
  let k = ref 0 in
  while !k < min || ((not smoke) && now_s () -. t0 < seconds) do
    incr k;
    step !k
  done;
  !k

(* Every pass must leave the same counters as the first. *)
let checker acc ~datagrams ~failed =
  let reference = ref None in
  fun label counters problems ->
    acc.attempted <- acc.attempted + datagrams;
    acc.failed <- acc.failed + failed counters;
    List.iter (problem acc "%s: %s" label) problems;
    match !reference with
    | None -> reference := Some counters
    | Some r -> if r <> counters then problem acc "%s: counters differ" label

let direct_checker acc tr =
  checker acc ~datagrams:(Array.length tr.Workload.datagrams)
    ~failed:(fun (c : Direct.counters) -> c.errors + c.drops)

let smp_checker acc tr =
  checker acc ~datagrams:(Array.length tr.Workload.datagrams)
    ~failed:(fun (c : Smp_pass.counters) -> c.failed)

let warmups ~smoke = if smoke then 0 else 3

(* The gated numbers come from lower envelopes across passes: each
   [Direct.tick]-datagram window's and each datagram's minimum over the
   passes of the run (see [Stats.keep_min]).  [rx_pps] is the trace's
   windowed datagrams over the summed window minima; the latency
   percentiles are taken over the per-datagram minima, [max_int] marking
   a datagram with no sample. *)
let envelope_pps ~datagrams windows =
  float_of_int datagrams
  /. (Array.fold_left (fun acc w -> acc +. float_of_int w) 0.0 windows /. 1e9)

let envelope_percentiles latency =
  Stats.percentiles_ns
    (Array.of_list (List.filter (( <> ) max_int) (Array.to_list latency)))
    [| 0.5; 0.99 |]

let direct_e2e acc tr ~seconds ~smoke =
  let n = Array.length tr.Workload.datagrams in
  let check = direct_checker acc tr in
  let windows = Array.make (Direct.window_count n) 0 in
  let untimed label =
    let p = Direct.untimed_pass ~windows tr in
    check label p.Direct.counters p.Direct.problems;
    p
  in
  for _ = 1 to warmups ~smoke do
    ignore (untimed "warm-up pass")
  done;
  let batch = if smoke then 100 else 1000 in
  let latency = Array.make n 0 in
  let window_min = Array.make (Array.length windows) max_int
  and latency_min = Array.make n max_int and words = ref [] and setup = ref [] in
  let passes =
    repeat ~smoke ~seconds ~min:(if smoke then 2 else 4) (fun k ->
        if k land 1 = 1 then begin
          (* One set-up batch per pass spreads them over the run. *)
          setup := Direct.setup_seconds ~batch :: !setup;
          let p = untimed "untimed pass" in
          Stats.keep_min window_min windows;
          words := (p.gc.minor_words /. float_of_int n) :: !words
        end
        else begin
          let counters, problems = Direct.timed_pass tr latency in
          check "timed pass" counters problems;
          Stats.keep_min latency_min latency
        end)
  in
  let untimed = (passes + 1) / 2 and timed = passes / 2 in
  acc.passes <- [ ("warm-up", warmups ~smoke); ("untimed", untimed);
                  ("timed", timed) ];
  let q = envelope_percentiles latency_min in
  add acc "rx_pps"
    (envelope_pps ~datagrams:(Array.length windows * Direct.tick) window_min)
    untimed;
  add acc "rx_p50_ns" q.(0) (n * timed);
  add acc "rx_p99_ns" q.(1) (n * timed);
  add acc "minor_words_per_pkt" (med !words) untimed;
  add acc "setup_s" (med !setup) (untimed * batch)

(* As [direct_e2e], with windows and service times stamped by the
   worker at data deliveries (see [Smp_pass]).  Set-up is the part of
   each untimed [Smp.run] outside its own datagram interval. *)
let smp_e2e acc tr ~seconds ~smoke =
  let check = smp_checker acc tr in
  let positions = Smp_pass.data_positions tr.Workload.datagrams in
  let every = Direct.tick in
  let untimed label =
    let p, stamps, _ = Smp_pass.stamped_pass tr positions ~every in
    check label p.Smp_pass.counters p.Smp_pass.problems;
    (p, Smp_pass.window_times stamps)
  in
  for _ = 1 to warmups ~smoke do
    ignore (untimed "warm-up pass")
  done;
  let windows = Smp_pass.window_count positions ~every in
  let window_min = Array.make windows max_int
  and latency_min = Array.make (Array.length positions) max_int
  and words = ref [] and setup = ref [] in
  let passes =
    repeat ~smoke ~seconds ~min:(if smoke then 2 else 4) (fun k ->
        if k land 1 = 1 then begin
          let p, times = untimed "untimed pass" in
          Stats.keep_min window_min times;
          setup := (p.wall_s -. p.result.Parallel.Smp.elapsed_s) :: !setup
        end
        else begin
          let p, stamps, w = Smp_pass.stamped_pass tr positions ~every:1 in
          check "timed pass" p.counters p.problems;
          Stats.keep_min latency_min (Smp_pass.service_times positions stamps);
          words := w :: !words
        end)
  in
  let untimed = (passes + 1) / 2 and timed = passes / 2 in
  acc.passes <- [ ("warm-up", warmups ~smoke); ("untimed", untimed);
                  ("timed", timed) ];
  let q = envelope_percentiles latency_min in
  let samples = Array.length positions * timed in
  add acc "rx_pps"
    (envelope_pps
       ~datagrams:(Smp_pass.window_datagrams positions ~every ~windows)
       window_min)
    untimed;
  add acc "rx_p50_ns" q.(0) samples;
  add acc "rx_p99_ns" q.(1) samples;
  add acc "minor_words_per_pkt" (med !words) timed;
  add acc "setup_s" (med !setup) untimed

(* The traced run.  Each cycle is an untimed pass (the reference cost
   per datagram, and GC counts), a timed pass (p999), a decomposed pass
   timing the mirror, one timing the stack, an Smp pass and a peek
   sweep; one extra decomposed pass, before the cycles, counts words
   per layer instead of time. *)
let traced acc tr ~seconds ~smoke ~spans_file ~spans_header =
  let ds = tr.Workload.datagrams in
  let n = Array.length ds in
  let fn = float_of_int n in
  let check = direct_checker acc tr and check_smp = smp_checker acc tr in
  for _ = 1 to warmups ~smoke do
    let p = Direct.untimed_pass tr in
    check "warm-up pass" p.counters p.problems
  done;
  let decomposed label log ~read ~read_cost ~stack ~mirror =
    let p = Traced.pass ~read ~read_cost ~stack ~mirror log tr in
    check label p.Traced.counters p.Traced.problems;
    p
  in
  let wp =
    decomposed "allocation pass"
      (Traced.create_log n ~spans:(Traced.stack_spans + Traced.mirror_spans))
      ~read:Traced.words
      ~read_cost:(Traced.calibrate Traced.words) ~stack:true ~mirror:true
  in
  let stack_log = Traced.create_log n ~spans:Traced.stack_spans
  and mirror_log = Traced.create_log n ~spans:Traced.mirror_spans in
  let latency = Array.make n 0 in
  let clock = ref [] and untimed_ns = ref [] and minor_gcs = ref []
  and major_gcs = ref [] and promoted = ref [] and p999 = ref []
  and peek = ref [] and smp_pps = ref [] and violations = ref 0
  and tps = ref [] and mps = ref [] in
  let cycles =
    repeat ~smoke ~seconds ~min:(if smoke then 1 else 3) (fun _ ->
        let read_cost = Traced.calibrate Obs.Clock.now_ns in
        clock := read_cost :: !clock;
        let u = Direct.untimed_pass tr in
        check "untimed pass" u.counters u.problems;
        untimed_ns := (u.seconds *. 1e9 /. fn) :: !untimed_ns;
        minor_gcs := (float_of_int u.gc.minor_gcs *. 1e6 /. fn) :: !minor_gcs;
        major_gcs := (float_of_int u.gc.major_gcs *. 1e6 /. fn) :: !major_gcs;
        promoted := (u.gc.promoted /. fn) :: !promoted;
        let counters, problems = Direct.timed_pass tr latency in
        check "timed pass" counters problems;
        p999 := (Stats.percentiles_ns latency [| 0.999 |]).(0) :: !p999;
        mps :=
          decomposed "mirror pass" mirror_log ~read:Obs.Clock.now_ns ~read_cost
            ~stack:false
            ~mirror:true
          :: !mps;
        tps :=
          decomposed "traced pass" stack_log ~read:Obs.Clock.now_ns ~read_cost
            ~stack:true
            ~mirror:false
          :: !tps;
        let s = Smp_pass.run tr in
        check_smp "smp pass" s.counters s.problems;
        violations :=
          !violations + List.length (Parallel.Smp.violations s.result);
        smp_pps := s.result.Parallel.Smp.packets_per_s :: !smp_pps;
        peek := Traced.peek_ns ds :: !peek)
  in
  let spawn =
    List.init (if smoke then 3 else 9) (fun _ -> Smp_pass.spawn_seconds tr)
  in
  let over f = med (List.map f !tps) and over_mirror f = med (List.map f !mps) in
  let per_span nm p = Traced.per_span p nm in
  let spans_n = n * cycles in
  let stats = wp.counters.demux in
  let untimed = med !untimed_ns in
  add acc "obs.clock_read_ns" (med !clock) cycles;
  add acc "segment.parse_ns" (over (per_span Traced.parse)) spans_n;
  add acc "segment.parse_words" (per_span Traced.parse wp) n;
  add acc "segment.peek_flow_ns" (med !peek) spans_n;
  add acc "demux.lookup_ns" (over_mirror (per_span Traced.lookup)) spans_n;
  add acc "demux.lookup_words" (per_span Traced.lookup wp) n;
  add acc "demux.insert_ns" (over_mirror (per_span Traced.insert))
    (wp.count.(Traced.insert) * cycles);
  add acc "demux.pcbs_examined_per_lookup"
    (Demux.Lookup_stats.mean_examined stats) stats.lookups;
  add acc "demux.max_examined" (float_of_int stats.max_examined) stats.lookups;
  add acc "demux.cache_hit_ratio" (Demux.Lookup_stats.hit_rate stats)
    stats.lookups;
  add acc "demux.found_ratio"
    (float_of_int stats.found /. float_of_int stats.lookups) stats.lookups;
  add acc "demux.parity"
    (if List.for_all (fun p -> p.Traced.parity) (wp :: !mps) then 1.0 else 0.0)
    (cycles + 1);
  add acc "conn_table.listener_fallbacks_per_pkt"
    (float_of_int wp.fallbacks /. fn) n;
  add acc "stack.handle_segment_ns" (over (per_span Traced.handle)) spans_n;
  add acc "stack.state_ns"
    (over (fun p -> Traced.per_datagram p Traced.handle)
    -. over_mirror (fun p -> Traced.per_datagram p Traced.lookup))
    spans_n;
  add acc "stack.state_words" (Traced.state wp) n;
  add acc "stack.poll_output_ns" (over (per_span Traced.poll)) spans_n;
  add acc "stack.replies_per_pkt"
    (float_of_int wp.counters.replies /. fn) n;
  add acc "stack.retransmissions" (float_of_int wp.counters.retransmissions) 1;
  let timer_calls = wp.count.(Traced.advance) in
  add acc "timer.advance_ns" (over (per_span Traced.advance))
    (timer_calls * cycles);
  add acc "timer.actions_per_call"
    (float_of_int wp.counters.timer_actions /. float_of_int timer_calls)
    timer_calls;
  add acc "smp.overhead_ns" ((1e9 /. med !smp_pps) -. untimed) cycles;
  add acc "smp.internal_pps" (med !smp_pps) cycles;
  add acc "smp.spawn_s" (med spawn) (List.length spawn);
  add acc "smp.violations" (float_of_int !violations) cycles;
  add acc "gc.minor_collections_per_Mpkt" (med !minor_gcs) cycles;
  add acc "gc.major_collections_per_Mpkt" (med !major_gcs) cycles;
  add acc "gc.promoted_words_per_pkt" (med !promoted) cycles;
  add acc "rx_p999_ns" (med !p999) spans_n;
  add acc "trace.overhead_ratio"
    ((over (fun p -> p.Traced.rx_total /. fn) /. untimed) -. 1.0)
    spans_n;
  add acc "ladder.residual_ratio"
    (Float.abs (over Traced.layers -. untimed) /. untimed)
    spans_n;
  acc.passes <-
    [ ("warm-up", warmups ~smoke); ("cycles", cycles);
      ("allocation", 1) ];
  Traced.write_spans ~path:spans_file
    ~header:(spans_header () @ [ ("datagrams", Obs.Json.Int n) ])
    ~limit:4096
    [ ("spans", stack_log); ("mirror_spans", mirror_log) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Which host produced the numbers, and how: carried by every output. *)
let host_record ~seed ~clock_read_ns acc =
  [ ("ocaml", Obs.Json.String Sys.ocaml_version);
    ("hardware_threads", Obs.Json.Int (Domain.recommended_domain_count ()));
    ("seed", Obs.Json.Int seed);
    ("obs.clock_read_ns", Obs.Json.Float clock_read_ns);
    ("passes",
     Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) acc.passes)) ]

let unit_of name =
  match Catalog.find name with Some c -> c.unit_ | None -> ""

let metrics_json acc ~with_samples =
  Obs.Json.Obj
    (List.rev_map
       (fun (name, m) ->
         ( name,
           Obs.Json.Obj
             ([ ("value", Obs.Json.Float m.value);
                ("unit", Obs.Json.String (unit_of name)) ]
             @ if with_samples then [ ("samples", Obs.Json.Int m.samples) ]
               else []) ))
       acc.metrics)

let print_run ~workload ~trace ~host acc =
  Printf.printf "# %s trace=%d %s\n" workload trace
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ Obs.Json.to_string v) host));
  List.iter
    (fun (name, m) ->
      Printf.printf "%-9s %-38s %16.6g %-12s %10d\n" workload name m.value
        (unit_of name) m.samples)
    (List.rev acc.metrics);
  List.iter (Printf.printf "# FAILED: %s\n") (List.rev acc.problems)

let append_record path json =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* One workload, one mode; prints its lines and summary.  Returns
   whether every oracle held, and the metric names printed. *)
let run_workload (w : Workload.t) ~seed ~seconds ~trace ~smoke ~spans ~json =
  let acc =
    { metrics = []; attempted = 0; failed = 0; problems = []; passes = [] }
  in
  let tr = w.build ~seed ~smoke in
  let clock_read_ns = Traced.calibrate Obs.Clock.now_ns in
  let spans_file =
    Filename.concat spans (Printf.sprintf "%s-seed%d.json" w.name seed)
  in
  let spans_header () =
    mkdir_p spans;
    ("workload", Obs.Json.String w.name) :: host_record ~seed ~clock_read_ns acc
  in
  if trace then traced acc tr ~seconds ~smoke ~spans_file ~spans_header
  else if w.smp then smp_e2e acc tr ~seconds ~smoke
  else direct_e2e acc tr ~seconds ~smoke;
  let trace_i = if trace then 1 else 0 in
  let host = host_record ~seed ~clock_read_ns acc in
  print_run ~workload:w.name ~trace:trace_i ~host acc;
  let correct = acc.problems = [] in
  Option.iter
    (fun path ->
      append_record path
        (Obs.Json.Obj
           [ ("workload", Obs.Json.String w.name); ("seed", Obs.Json.Int seed);
             ("trace", Obs.Json.Int trace_i);
             ("seconds", Obs.Json.Float seconds); ("host", Obs.Json.Obj host);
             ("correct", Obs.Json.Bool correct);
             ("metrics", metrics_json acc ~with_samples:true) ]))
    json;
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int acc.attempted);
            ("failed", Obs.Json.Int acc.failed);
            ("metrics", metrics_json acc ~with_samples:false) ]));
  (correct, List.rev_map fst acc.metrics)

(* Smoke: every workload in both modes at a tenth of the size.  The
   oracles must pass, and each mode must print exactly the metrics, in
   the units, that its section of BENCHMARK.json declares. *)
let smoke ~benchmark ~spans =
  let sections = Compare.read_json benchmark in
  let ok = ref true in
  let complain fmt =
    Printf.ksprintf (fun s -> ok := false; prerr_endline ("rxbench: " ^ s)) fmt
  in
  List.iter
    (fun (trace, section) ->
      let declared = Compare.declared sections section in
      List.iter
        (fun (w : Workload.t) ->
          let correct, printed =
            run_workload w ~seed:42 ~seconds:0.0 ~trace ~smoke:true ~spans
              ~json:None
          in
          if not correct then complain "%s: an oracle failed" w.name;
          List.iter
            (fun name ->
              if not (List.exists (fun (d : Compare.declared) -> d.name = name) declared)
              then complain "%s prints %s, which %s does not list in %s" w.name
                  name benchmark section)
            printed;
          List.iter
            (fun (d : Compare.declared) ->
              if not (List.mem d.name printed) then
                complain "%s does not print %s" w.name d.name;
              match Catalog.find d.name with
              | Some c when c.unit_ = d.unit_ -> ()
              | _ -> complain "%s: unit differs from %s" d.name benchmark)
            declared)
        Workload.all)
    [ (false, "end_to_end"); (true, "per_layer") ];
  if not !ok then exit 1

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0
  and trace = ref 0 and spans = ref "_rxbench" and json = ref None
  and benchmark = ref "BENCHMARK.json" and smoke_mode = ref false
  and compare = ref None in
  let compare_a = ref "" in
  let specs =
    [ ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME  oltp, bulk, synflood or smp-oltp (default: all)");
      ("--seed", Arg.Set_int seed, "N  trace seed (default 42)");
      ("--seconds", Arg.Set_float seconds,
       "S  measure for S seconds (default 10)");
      ("--trace", Arg.Set_int trace,
       "0|1  1 = traced run: per-layer metrics and span files");
      ("--spans", Arg.Set_string spans,
       "DIR  where a traced run writes spans (default _rxbench)");
      ("--json", Arg.String (fun s -> json := Some s),
       "FILE  append one record per run, for --compare");
      ("--benchmark", Arg.Set_string benchmark,
       "FILE  metric names and bounds (default BENCHMARK.json)");
      ("--smoke", Arg.Set smoke_mode,
       "  every workload, both modes, small sizes; check oracles and names");
      ("--compare",
       Arg.Tuple
         [ Arg.Set_string compare_a;
           Arg.String (fun b -> compare := Some (!compare_a, b)) ],
       "A B  judge two --json record files against the bounds") ]
  in
  Arg.parse specs
    (fun a -> Compare.fail "unexpected argument %s" a)
    "rxbench: receive-path benchmark";
  if !trace <> 0 && !trace <> 1 then Compare.fail "--trace takes 0 or 1";
  if !seconds < 0.0 then Compare.fail "--seconds must be >= 0";
  match (!compare, !smoke_mode) with
  | Some (a, b), _ -> Compare.run ~benchmark:!benchmark a b
  | None, true -> smoke ~benchmark:!benchmark ~spans:!spans
  | None, false ->
    let workloads =
      match !workload with
      | None -> Workload.all
      | Some name -> (
        match Workload.find name with
        | Some w -> [ w ]
        | None ->
          Compare.fail "unknown workload %s (one of: %s)" name
            (String.concat ", "
               (List.map (fun (w : Workload.t) -> w.name) Workload.all)))
    in
    let results =
      List.map
        (fun w ->
          run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~smoke:false ~spans:!spans ~json:!json)
        workloads
    in
    if not (List.for_all fst results) then exit 1
