(* Tests for the observability subsystem: clocks, histograms, the
   JSON emitter/parser, the trace ring, the metric registry — and the
   property the whole design hangs on: attaching observability to
   Lookup_stats changes nothing about the accounting. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_fixed_and_fun () =
  Alcotest.(check (float 0.0)) "fixed" 42.5
    (Obs.Clock.now (Obs.Clock.fixed 42.5));
  let ticks = ref 0.0 in
  let clock = Obs.Clock.of_fun (fun () -> !ticks) in
  Alcotest.(check (float 0.0)) "fun initial" 0.0 (Obs.Clock.now clock);
  ticks := 7.0;
  Alcotest.(check (float 0.0)) "fun follows source" 7.0 (Obs.Clock.now clock)

let test_clock_virtual () =
  let v = Obs.Clock.create_virtual ~start:10.0 () in
  let clock = Obs.Clock.read v in
  Alcotest.(check (float 0.0)) "start" 10.0 (Obs.Clock.now clock);
  Obs.Clock.advance v 2.5;
  Alcotest.(check (float 0.0)) "advance" 12.5 (Obs.Clock.now clock);
  Obs.Clock.set v 20.0;
  Alcotest.(check (float 0.0)) "set" 20.0 (Obs.Clock.now clock);
  Alcotest.check_raises "no going back"
    (Invalid_argument "Clock.set: time in the past") (fun () ->
      Obs.Clock.set v 5.0);
  Alcotest.check_raises "no negative advance"
    (Invalid_argument "Clock.advance: negative or NaN delta") (fun () ->
      Obs.Clock.advance v (-1.0))

let test_clock_wall_moves_forward () =
  let clock = Obs.Clock.wall () in
  let a = Obs.Clock.now clock in
  let b = Obs.Clock.now clock in
  Alcotest.(check bool) "monotone enough" true (b >= a)

let test_clock_monotonic () =
  (* The monotonic source can never run backwards — unlike wall time,
     consecutive reads are ordered by contract, not by luck. *)
  let clock = Obs.Clock.monotonic () in
  let previous = ref (Obs.Clock.now clock) in
  for _ = 1 to 1_000 do
    let t = Obs.Clock.now clock in
    if t < !previous then Alcotest.fail "monotonic clock went backwards";
    previous := t
  done;
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "ns reads ordered" true (b >= a);
  Alcotest.(check bool) "ns reads positive" true (a > 0)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  Alcotest.(check bool) "empty" true (Obs.Histogram.is_empty h);
  Alcotest.(check int) "count" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "p99" 0 (Obs.Histogram.p99 h);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Obs.Histogram.mean h))

let test_histogram_small_values_exact () =
  (* Below 2^sub_bits every value has its own bucket: percentiles are
     exact, not just bounded. *)
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) [ 5; 1; 3; 2; 4 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 15 (Obs.Histogram.sum h);
  Alcotest.(check int) "min" 1 (Obs.Histogram.min_value h);
  Alcotest.(check int) "max" 5 (Obs.Histogram.max_value h);
  Alcotest.(check int) "p50" 3 (Obs.Histogram.percentile h 50.0);
  Alcotest.(check int) "p100 = max" 5 (Obs.Histogram.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Obs.Histogram.mean h)

let test_histogram_negative_clamps () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h (-7);
  Alcotest.(check int) "clamped to 0" 0 (Obs.Histogram.max_value h);
  Alcotest.(check int) "counted" 1 (Obs.Histogram.count h)

let test_histogram_clear () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h 1000;
  Obs.Histogram.clear h;
  Alcotest.(check bool) "empty again" true (Obs.Histogram.is_empty h);
  Alcotest.(check int) "max reset" 0 (Obs.Histogram.max_value h)

let test_histogram_max_int_top_bucket () =
  (* A clamped-to-max interval (the monotonic clock's worst case) must
     land in the top octave's last sub-bucket — counted, reported as
     max, and dominating every percentile — not wrap the bucket
     arithmetic or vanish into an overflow bin. *)
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h max_int;
  Alcotest.(check int) "counted" 1 (Obs.Histogram.count h);
  Alcotest.(check int) "max" max_int (Obs.Histogram.max_value h);
  Alcotest.(check int) "min" max_int (Obs.Histogram.min_value h);
  Alcotest.(check int) "p100" max_int (Obs.Histogram.percentile h 100.0);
  Obs.Histogram.record h 1;
  Obs.Histogram.record h 2;
  Alcotest.(check int) "p999 is the extreme" max_int (Obs.Histogram.p999 h);
  (match List.rev (Obs.Histogram.buckets h) with
  | (lo, hi, count) :: _ ->
    Alcotest.(check int) "top bucket holds it" 1 count;
    Alcotest.(check bool) "bounds bracket max_int" true
      (lo <= max_int && hi = max_int)
  | [] -> Alcotest.fail "no buckets");
  (* Round-tripping through [buckets]/[add] keeps the extreme. *)
  let copy = Obs.Histogram.create () in
  List.iter
    (fun (_, hi, count) -> Obs.Histogram.add copy hi ~count)
    (Obs.Histogram.buckets h);
  Alcotest.(check int) "restored max" max_int (Obs.Histogram.max_value copy)

let test_histogram_sum_saturates () =
  (* Two max_int samples: an int sum would wrap negative; the
     documented behaviour is saturation, keeping sum and mean lower
     bounds instead of nonsense. *)
  let h = Obs.Histogram.create () in
  Obs.Histogram.record h max_int;
  Obs.Histogram.record h max_int;
  Alcotest.(check int) "sum saturates" max_int (Obs.Histogram.sum h);
  Alcotest.(check bool) "mean stays non-negative" true
    (Obs.Histogram.mean h >= 0.0);
  Obs.Histogram.add h max_int ~count:3;
  Alcotest.(check int) "add saturates too" max_int (Obs.Histogram.sum h);
  let into = Obs.Histogram.create () in
  Obs.Histogram.record into max_int;
  Obs.Histogram.merge_into ~into h;
  Alcotest.(check int) "merge saturates too" max_int
    (Obs.Histogram.sum into)

let test_histogram_sub_bits_validation () =
  Alcotest.check_raises "sub_bits too big"
    (Invalid_argument "Histogram.create: sub_bits outside 1-10") (fun () ->
      ignore (Obs.Histogram.create ~sub_bits:11 ()));
  Alcotest.check_raises "merge mismatch"
    (Invalid_argument "Histogram.merge_into: sub_bits mismatch") (fun () ->
      Obs.Histogram.merge_into
        ~into:(Obs.Histogram.create ~sub_bits:3 ())
        (Obs.Histogram.create ~sub_bits:5 ()))

(* The documented error bound: for any recorded v, the reported
   percentile never under-reports and overshoots by at most one
   sub-bucket width (relative error 2^-sub_bits). *)
let prop_percentile_error_bound =
  QCheck.Test.make ~count:500 ~name:"percentile within HDR error bound"
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
    (fun values ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
          let true_value = List.nth sorted (rank - 1) in
          let reported = Obs.Histogram.percentile h p in
          reported >= true_value
          && reported <= true_value + (true_value / 32) + 1)
        [ 10.0; 50.0; 90.0; 99.0; 99.9 ])

(* Merging any partition of a stream = histogram of the whole
   stream, bucket-for-bucket. *)
let prop_merge_is_partition_invariant =
  QCheck.Test.make ~count:300 ~name:"merge of a partition = whole stream"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 150) (int_bound 100_000))
        (int_bound 3))
    (fun (values, pieces) ->
      let pieces = pieces + 1 in
      let parts = Array.init pieces (fun _ -> Obs.Histogram.create ()) in
      let whole = Obs.Histogram.create () in
      List.iteri
        (fun i v ->
          Obs.Histogram.record parts.(i mod pieces) v;
          Obs.Histogram.record whole v)
        values;
      let merged = Obs.Histogram.merge_all (Array.to_list parts) in
      Obs.Histogram.buckets merged = Obs.Histogram.buckets whole
      && Obs.Histogram.count merged = Obs.Histogram.count whole
      && Obs.Histogram.sum merged = Obs.Histogram.sum whole
      && Obs.Histogram.max_value merged = Obs.Histogram.max_value whole
      && Obs.Histogram.p99 merged = Obs.Histogram.p99 whole)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let test_json_basic_round_trip () =
  let value =
    Obs.Json.Obj
      [ ("name", Obs.Json.String "demux.examined");
        ("count", Obs.Json.Int 42);
        ("mean", Obs.Json.Float 1.5);
        ("empty", Obs.Json.Null);
        ("flag", Obs.Json.Bool true);
        ("xs", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]) ]
  in
  match Obs.Json.of_string (Obs.Json.to_string value) with
  | Ok parsed -> Alcotest.(check bool) "round trip" true (parsed = value)
  | Error message -> Alcotest.fail message

let test_json_escapes () =
  let s = "quote\" slash\\ newline\n tab\t unicode\xe2\x82\xac" in
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.String s)) with
  | Ok (Obs.Json.String back) -> Alcotest.(check string) "escaped" s back
  | Ok _ -> Alcotest.fail "not a string"
  | Error message -> Alcotest.fail message

let test_json_non_finite_floats_are_null () =
  Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parser_rejects_garbage () =
  List.iter
    (fun input ->
      match Obs.Json.of_string input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "'single'"; "{\"a\" 1}"; "tru" ]

let test_json_accessors () =
  let json =
    match Obs.Json.of_string {|{"a": {"b": [10, 2.5, "x", null]}}|} with
    | Ok j -> j
    | Error m -> Alcotest.fail m
  in
  let b = Option.bind (Obs.Json.member "a" json) (Obs.Json.member "b") in
  match Option.bind b Obs.Json.to_list_opt with
  | Some [ i; f; s; n ] ->
    Alcotest.(check (option int)) "int" (Some 10) (Obs.Json.to_int_opt i);
    Alcotest.(check (option (float 1e-9))) "float" (Some 2.5)
      (Obs.Json.to_float_opt f);
    Alcotest.(check (option string)) "string" (Some "x")
      (Obs.Json.to_string_opt s);
    Alcotest.(check bool) "null float is nan" true
      (match Obs.Json.to_float_opt n with
      | Some v -> Float.is_nan v
      | None -> false)
  | _ -> Alcotest.fail "structure"

(* Any tree the emitter can print, the parser reads back
   identically. *)
let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self size ->
      let scalar =
        oneof
          [ return Obs.Json.Null;
            map (fun b -> Obs.Json.Bool b) bool;
            map (fun i -> Obs.Json.Int i) int;
            map (fun f -> Obs.Json.Float f) (float_bound_inclusive 1e9);
            map (fun s -> Obs.Json.String s) (string_size (0 -- 12)) ]
      in
      if size <= 0 then scalar
      else
        frequency
          [ (3, scalar);
            ( 1,
              map
                (fun xs -> Obs.Json.List xs)
                (list_size (0 -- 4) (self (size / 2))) );
            ( 1,
              map
                (fun kvs -> Obs.Json.Obj kvs)
                (list_size (0 -- 4)
                   (pair (string_size (0 -- 8)) (self (size / 2)))) ) ])

let prop_json_round_trip =
  QCheck.Test.make ~count:300 ~name:"emit/parse round trip"
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun value ->
      match Obs.Json.of_string (Obs.Json.to_string value) with
      | Ok parsed -> parsed = value
      | Error message -> QCheck.Test.fail_reportf "parse failed: %s" message)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let test_trace_disabled_is_noop () =
  let t = Obs.Trace.disabled in
  Obs.Trace.record t Obs.Trace.Cache_hit 1 2;
  Alcotest.(check bool) "not enabled" false (Obs.Trace.enabled t);
  Alcotest.(check int) "length 0" 0 (Obs.Trace.length t);
  Alcotest.(check int) "capacity 0" 0 (Obs.Trace.capacity t);
  Alcotest.(check bool) "no events" true (Obs.Trace.to_list t = [])

let test_trace_ring_wrap () =
  let clock = Obs.Clock.create_virtual () in
  let t = Obs.Trace.create ~clock:(Obs.Clock.read clock) ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Clock.advance clock 1.0;
    Obs.Trace.record t Obs.Trace.Chain_walk i 0
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Trace.length t);
  Alcotest.(check int) "recorded all" 10 (Obs.Trace.recorded t);
  Alcotest.(check int) "dropped the rest" 6 (Obs.Trace.dropped t);
  let kept = List.map (fun r -> r.Obs.Trace.a) (Obs.Trace.to_list t) in
  Alcotest.(check (list int)) "last four, oldest first" [ 7; 8; 9; 10 ] kept;
  let times = List.map (fun r -> r.Obs.Trace.time) (Obs.Trace.to_list t) in
  Alcotest.(check (list (float 0.0))) "virtual timestamps"
    [ 7.0; 8.0; 9.0; 10.0 ] times

(* An enabled tracer stamps each event through [Clock.store]: with a
   built-in clock no event allocates, where a boxed [Clock.now] would
   cost 2 words each.  The stamps must still be the clock's readings. *)
let test_trace_enabled_allocates_nothing () =
  let virtual_ = Obs.Clock.create_virtual ~start:5.0 () in
  List.iter
    (fun (name, clock) ->
      let t = Obs.Trace.create ~clock ~capacity:1024 () in
      Obs.Trace.record t Obs.Trace.Lookup_begin 0 0;
      let before = Gc.minor_words () in
      for i = 1 to 10_000 do
        Obs.Trace.record t Obs.Trace.Lookup_end i 1
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) (name ^ ": words over 10,000 events") 0.0
        words;
      let first = Obs.Clock.now clock in
      Obs.Trace.record t Obs.Trace.Cache_hit 0 0;
      let last = List.nth (Obs.Trace.to_list t) (Obs.Trace.length t - 1) in
      Alcotest.(check bool) (name ^ ": stamp is a clock reading") true
        (last.Obs.Trace.time >= first
        && last.Obs.Trace.time <= Obs.Clock.now clock))
    [ ("wall", Obs.Clock.wall ()); ("monotonic", Obs.Clock.monotonic ());
      ("virtual", Obs.Clock.read virtual_); ("fixed", Obs.Clock.fixed 2.5) ]

let test_trace_kind_codes_round_trip () =
  List.iter
    (fun kind ->
      match Obs.Trace.kind_of_code (Obs.Trace.kind_code kind) with
      | Some back ->
        Alcotest.(check string) "code round trip" (Obs.Trace.kind_name kind)
          (Obs.Trace.kind_name back)
      | None -> Alcotest.failf "kind %s lost" (Obs.Trace.kind_name kind))
    Obs.Trace.
      [ Lookup_begin; Lookup_end; Cache_hit; Chain_walk; Insert; Remove;
        Eviction; Rejection; Drop; Phase; Latency; Batch ];
  Alcotest.(check bool) "unknown code" true (Obs.Trace.kind_of_code 99 = None)

let test_trace_binary_round_trip () =
  let clock = Obs.Clock.create_virtual () in
  let a = Obs.Trace.create ~clock:(Obs.Clock.read clock) ~id:3 ~capacity:16 () in
  let b = Obs.Trace.create ~clock:(Obs.Clock.read clock) ~id:7 ~capacity:16 () in
  Obs.Clock.advance clock 1.5;
  Obs.Trace.record a Obs.Trace.Lookup_begin 0 0;
  Obs.Trace.record a Obs.Trace.Lookup_end 12 1;
  Obs.Clock.advance clock 0.5;
  Obs.Trace.record b Obs.Trace.Drop 2 60;
  let path = Filename.temp_file "obs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Obs.Trace.dump a oc;
      Obs.Trace.dump b oc;
      close_out oc;
      match Obs.Trace.read_file path with
      | Error message -> Alcotest.fail message
      | Ok segments -> (
        Alcotest.(check (list int)) "segment ids" [ 3; 7 ]
          (List.map fst segments);
        match segments with
        | [ (_, [ begin_; end_ ]); (_, [ drop ]) ] ->
          Alcotest.(check string) "kind" "lookup-begin"
            (Obs.Trace.kind_name begin_.Obs.Trace.kind);
          Alcotest.(check (float 0.0)) "time" 1.5 begin_.Obs.Trace.time;
          Alcotest.(check int) "payload a" 12 end_.Obs.Trace.a;
          Alcotest.(check int) "payload b" 1 end_.Obs.Trace.b;
          Alcotest.(check string) "drop kind" "drop"
            (Obs.Trace.kind_name drop.Obs.Trace.kind);
          Alcotest.(check int) "drop size" 60 drop.Obs.Trace.b
        | _ -> Alcotest.fail "wrong segment shapes"))

let test_trace_read_rejects_bad_magic () =
  let path = Filename.temp_file "obs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE";
      close_out oc;
      match Obs.Trace.read_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted bad magic")

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_snapshot () =
  let obs = Obs.Registry.create () in
  let hits = ref 0 in
  Obs.Registry.register_counter obs ~help:"cache hits" ~name:"demo.hits"
    (fun () -> !hits);
  Obs.Registry.register_gauge obs ~units:"pcbs" ~name:"demo.pcbs" (fun () ->
      3.5);
  let owned = Obs.Registry.counter obs "demo.owned" in
  incr owned;
  incr owned;
  let h = Obs.Registry.histogram obs ~units:"us" "demo.latency" in
  Obs.Histogram.record h 100;
  Obs.Histogram.record h 200;
  hits := 7;
  Alcotest.(check int) "size" 4 (Obs.Registry.size obs);
  let snapshot = Obs.Registry.snapshot obs in
  (match Obs.Registry.find snapshot "demo.hits" with
  | Some { Obs.Registry.data = Obs.Registry.Counter 7; _ } -> ()
  | _ -> Alcotest.fail "polled counter read at snapshot time");
  (match Obs.Registry.find snapshot "demo.owned" with
  | Some { Obs.Registry.data = Obs.Registry.Counter 2; _ } -> ()
  | _ -> Alcotest.fail "owned counter");
  (match Obs.Registry.find snapshot "demo.pcbs" with
  | Some { Obs.Registry.data = Obs.Registry.Gauge g; units = "pcbs"; _ } ->
    Alcotest.(check (float 0.0)) "gauge" 3.5 g
  | _ -> Alcotest.fail "gauge");
  match Obs.Registry.find snapshot "demo.latency" with
  | Some
      { Obs.Registry.data = Obs.Registry.Histogram (summary, buckets); _ } ->
    Alcotest.(check int) "histogram count" 2 summary.Obs.Histogram.count;
    Alcotest.(check bool) "buckets present" true (buckets <> [])
  | _ -> Alcotest.fail "histogram"

let test_registry_reregistration_replaces () =
  let obs = Obs.Registry.create () in
  Obs.Registry.register_counter obs ~name:"x" (fun () -> 1);
  Obs.Registry.register_counter obs ~name:"x" (fun () -> 2);
  Alcotest.(check int) "one metric" 1 (Obs.Registry.size obs);
  match Obs.Registry.find (Obs.Registry.snapshot obs) "x" with
  | Some { Obs.Registry.data = Obs.Registry.Counter 2; _ } -> ()
  | _ -> Alcotest.fail "latest registration wins"

let test_registry_json_round_trip () =
  let obs = Obs.Registry.create () in
  Obs.Registry.register_counter obs ~help:"lookups" ~name:"d.lookups"
    (fun () -> 1234);
  Obs.Registry.register_gauge obs ~units:"pcbs" ~name:"d.pcbs" (fun () -> 50.0);
  let h = Obs.Registry.histogram obs ~units:"pcbs" "d.examined" in
  List.iter (Obs.Histogram.record h) [ 1; 1; 2; 19; 200; 3 ];
  let json = Obs.Registry.to_json ~label:"unit-test" obs in
  match Obs.Registry.of_json json with
  | Error message -> Alcotest.fail message
  | Ok metrics ->
    Alcotest.(check int) "metric count" 3 (List.length metrics);
    (match Obs.Registry.find metrics "d.lookups" with
    | Some { Obs.Registry.data = Obs.Registry.Counter 1234; _ } -> ()
    | _ -> Alcotest.fail "counter round trip");
    (match Obs.Registry.find metrics "d.examined" with
    | Some { Obs.Registry.data = Obs.Registry.Histogram (summary, buckets); _ }
      ->
      Alcotest.(check int) "count" 6 summary.Obs.Histogram.count;
      Alcotest.(check int) "p50" (Obs.Histogram.p50 h) summary.Obs.Histogram.p50;
      Alcotest.(check int) "p99" (Obs.Histogram.p99 h) summary.Obs.Histogram.p99;
      Alcotest.(check int) "max" 200 summary.Obs.Histogram.max;
      Alcotest.(check bool) "buckets preserved" true
        (buckets = Obs.Histogram.buckets h)
    | _ -> Alcotest.fail "histogram round trip");
    match Obs.Registry.find metrics "d.pcbs" with
    | Some { Obs.Registry.data = Obs.Registry.Gauge 50.0; units = "pcbs"; _ } ->
      ()
    | _ -> Alcotest.fail "gauge round trip"

let test_registry_write_json_file () =
  let obs = Obs.Registry.create () in
  ignore (Obs.Registry.counter obs "n");
  let path = Filename.temp_file "obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Registry.write_json ~label:"file-test" obs path;
      match Obs.Json.of_file path with
      | Error message -> Alcotest.fail message
      | Ok json ->
        Alcotest.(check (option string)) "schema" (Some "tcpdemux-obs/1")
          (Option.bind (Obs.Json.member "schema" json) Obs.Json.to_string_opt))

(* ------------------------------------------------------------------ *)
(* Lookup_stats integration: observability must not change accounting  *)

let snapshot_fields (s : Demux.Lookup_stats.snapshot) =
  [ s.Demux.Lookup_stats.lookups; s.Demux.Lookup_stats.pcbs_examined;
    s.Demux.Lookup_stats.cache_hits; s.Demux.Lookup_stats.found;
    s.Demux.Lookup_stats.not_found; s.Demux.Lookup_stats.inserts;
    s.Demux.Lookup_stats.removes; s.Demux.Lookup_stats.evictions;
    s.Demux.Lookup_stats.rejections; s.Demux.Lookup_stats.max_examined ]

let drive_spec ?obs ?tracer spec =
  let demux = Demux.Registry.create spec in
  (match obs with
  | Some obs -> Demux.Registry.observe obs demux
  | None -> ());
  (match tracer with
  | Some tracer ->
    Demux.Lookup_stats.set_tracer demux.Demux.Registry.stats tracer
  | None -> ());
  let flow i = Sim.Topology.flow_of_client i in
  for i = 0 to 49 do
    ignore (demux.Demux.Registry.insert (flow i) ())
  done;
  for round = 0 to 5 do
    for i = 0 to 59 do
      let f = flow ((i * 7) + round mod 60) in
      match
        demux.Demux.Registry.lookup Demux.Types.Data ~w0:(Packet.Flow.w0 f)
          ~w1:(Packet.Flow.w1 f)
      with
      | _ | (exception Not_found) -> ()
    done
  done;
  for i = 0 to 9 do
    ignore (demux.Demux.Registry.remove (flow i))
  done;
  Demux.Lookup_stats.snapshot demux.Demux.Registry.stats

let test_observed_equals_bare () =
  (* The acceptance property: the same operation sequence produces the
     identical snapshot with observability attached, detached, or
     never mentioned. *)
  List.iter
    (fun spec ->
      let bare = drive_spec spec in
      let obs = Obs.Registry.create () in
      let tracer = Obs.Trace.create ~capacity:1024 () in
      let observed = drive_spec ~obs ~tracer spec in
      let disabled = drive_spec ~tracer:Obs.Trace.disabled spec in
      Alcotest.(check (list int))
        (Demux.Registry.spec_name spec ^ ": observed = bare")
        (snapshot_fields bare) (snapshot_fields observed);
      Alcotest.(check (list int))
        (Demux.Registry.spec_name spec ^ ": disabled tracer = bare")
        (snapshot_fields bare) (snapshot_fields disabled))
    Demux.Registry.
      [ Bsd; Mtf; Sr_cache;
        Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative };
        Guarded
          { spec =
              Sequent
                { chains = 19; hasher = Hashing.Hashers.multiplicative };
            max_chain = 4; max_total = 40 } ]

let test_observe_populates_registry () =
  let obs = Obs.Registry.create () in
  let snapshot = drive_spec ~obs (Demux.Registry.Sequent
      { chains = 19; hasher = Hashing.Hashers.multiplicative }) in
  let metrics = Obs.Registry.snapshot obs in
  (match Obs.Registry.find metrics "demux.sequent-19.lookups" with
  | Some { Obs.Registry.data = Obs.Registry.Counter lookups; _ } ->
    Alcotest.(check int) "counter matches snapshot"
      snapshot.Demux.Lookup_stats.lookups lookups
  | _ -> Alcotest.fail "lookups counter registered");
  match Obs.Registry.find metrics "demux.sequent-19.examined" with
  | Some { Obs.Registry.data = Obs.Registry.Histogram (summary, _); _ } ->
    Alcotest.(check int) "one histogram sample per lookup"
      snapshot.Demux.Lookup_stats.lookups summary.Obs.Histogram.count;
    Alcotest.(check int) "histogram max = snapshot max"
      snapshot.Demux.Lookup_stats.max_examined summary.Obs.Histogram.max
  | _ -> Alcotest.fail "examined histogram registered"

let test_tracer_carries_lookup_events () =
  let tracer = Obs.Trace.create ~capacity:4096 () in
  ignore
    (drive_spec ~tracer
       (Demux.Registry.Sequent
          { chains = 19; hasher = Hashing.Hashers.multiplicative }));
  let events = Obs.Trace.to_list tracer in
  let count kind =
    List.length (List.filter (fun r -> r.Obs.Trace.kind = kind) events)
  in
  Alcotest.(check int) "begin/end pair up" (count Obs.Trace.Lookup_begin)
    (count Obs.Trace.Lookup_end);
  Alcotest.(check bool) "lookups traced" true (count Obs.Trace.Lookup_begin > 0);
  Alcotest.(check int) "inserts traced" 50 (count Obs.Trace.Insert);
  Alcotest.(check int) "removes traced" 10 (count Obs.Trace.Remove)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_percentile_error_bound; prop_merge_is_partition_invariant;
      prop_json_round_trip ]

let () =
  Alcotest.run "obs"
    [ ( "clock",
        [ Alcotest.test_case "fixed and of_fun" `Quick test_clock_fixed_and_fun;
          Alcotest.test_case "virtual" `Quick test_clock_virtual;
          Alcotest.test_case "wall" `Quick test_clock_wall_moves_forward;
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "histogram",
        [ Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "small values exact" `Quick
            test_histogram_small_values_exact;
          Alcotest.test_case "negative clamps" `Quick
            test_histogram_negative_clamps;
          Alcotest.test_case "clear" `Quick test_histogram_clear;
          Alcotest.test_case "max_int lands in top bucket" `Quick
            test_histogram_max_int_top_bucket;
          Alcotest.test_case "sum saturates at max_int" `Quick
            test_histogram_sum_saturates;
          Alcotest.test_case "validation" `Quick
            test_histogram_sub_bits_validation ] );
      ( "json",
        [ Alcotest.test_case "round trip" `Quick test_json_basic_round_trip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_non_finite_floats_are_null;
          Alcotest.test_case "rejects garbage" `Quick
            test_json_parser_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors ] );
      ( "trace",
        [ Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_is_noop;
          Alcotest.test_case "ring wrap" `Quick test_trace_ring_wrap;
          Alcotest.test_case "enabled allocates nothing" `Quick
            test_trace_enabled_allocates_nothing;
          Alcotest.test_case "kind codes" `Quick
            test_trace_kind_codes_round_trip;
          Alcotest.test_case "binary round trip" `Quick
            test_trace_binary_round_trip;
          Alcotest.test_case "bad magic" `Quick
            test_trace_read_rejects_bad_magic ] );
      ( "registry",
        [ Alcotest.test_case "snapshot" `Quick test_registry_snapshot;
          Alcotest.test_case "re-registration" `Quick
            test_registry_reregistration_replaces;
          Alcotest.test_case "json round trip" `Quick
            test_registry_json_round_trip;
          Alcotest.test_case "write file" `Quick test_registry_write_json_file ] );
      ( "lookup-stats",
        [ Alcotest.test_case "observed = bare" `Quick test_observed_equals_bare;
          Alcotest.test_case "observe populates registry" `Quick
            test_observe_populates_registry;
          Alcotest.test_case "tracer carries events" `Quick
            test_tracer_carries_lookup_events ] );
      ("properties", qcheck_cases) ]
