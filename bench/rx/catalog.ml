(* Every metric rxbench prints: its unit, and whether its value repeats
   exactly for a given seed, so that two commits must agree on it bit
   for bit.  BENCHMARK.json declares the same names and units, with
   directions and bounds; the smoke test checks that the two agree. *)

type metric = { name : string; unit_ : string; exact : bool }

let m ?(exact = false) name unit_ = { name; unit_; exact }

(* Measured with tracing off. *)
let end_to_end =
  [ m "rx_pps" "datagrams/s";
    m "rx_p50_ns" "ns";
    m "rx_p99_ns" "ns";
    m ~exact:true "minor_words_per_pkt" "words";
    m "setup_s" "s" ]

(* Measured by the traced run. *)
let per_layer =
  [ m "obs.clock_read_ns" "ns";
    m "segment.parse_ns" "ns";
    m ~exact:true "segment.parse_words" "words";
    m "segment.peek_flow_ns" "ns";
    m "demux.lookup_ns" "ns";
    m ~exact:true "demux.lookup_words" "words";
    m "demux.insert_ns" "ns";
    m ~exact:true "demux.pcbs_examined_per_lookup" "count";
    m ~exact:true "demux.max_examined" "count";
    m ~exact:true "demux.cache_hit_ratio" "ratio";
    m ~exact:true "demux.found_ratio" "ratio";
    m ~exact:true "demux.parity" "flag";
    m ~exact:true "conn_table.listener_fallbacks_per_pkt" "count";
    m "stack.handle_segment_ns" "ns";
    m "stack.state_ns" "ns";
    m ~exact:true "stack.state_words" "words";
    m "stack.poll_output_ns" "ns";
    m ~exact:true "stack.replies_per_pkt" "count";
    m ~exact:true "stack.retransmissions" "count";
    m "timer.advance_ns" "ns";
    m ~exact:true "timer.actions_per_call" "count";
    m "smp.overhead_ns" "ns";
    m "smp.internal_pps" "datagrams/s";
    m "smp.spawn_s" "s";
    m ~exact:true "smp.violations" "count";
    m "gc.minor_collections_per_Mpkt" "count";
    m "gc.major_collections_per_Mpkt" "count";
    m "gc.promoted_words_per_pkt" "words";
    m "rx_p999_ns" "ns";
    m "trace.overhead_ratio" "ratio";
    m "ladder.residual_ratio" "ratio" ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
