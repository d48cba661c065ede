type t = {
  mutable lookups : int;
  mutable pcbs_examined : int;
  mutable cache_hits : int;
  mutable found : int;
  mutable not_found : int;
  mutable inserts : int;
  mutable removes : int;
  mutable evictions : int;
  mutable rejections : int;
  mutable batches : int;
  mutable max_examined : int;
  mutable current : int;      (* examinations charged to the open lookup *)
  mutable in_lookup : bool;
  (* Observability hooks, both opt-in: a [None] histogram and the
     shared disabled tracer cost one branch each per lookup, so
     counting discipline is identical with and without them (asserted
     in test_obs.ml, timed in bench's "obs" group). *)
  mutable histogram : Obs.Histogram.t option;
  (* Per-series split of the same distribution: hits and misses have
     very different probe shapes (a miss walks the full cluster / both
     cuckoo buckets), so E35's miss-heavy column reads the miss series
     directly instead of inferring it from mixed percentiles. *)
  mutable hit_histogram : Obs.Histogram.t option;
  mutable miss_histogram : Obs.Histogram.t option;
  mutable tracer : Obs.Trace.t;
}

let create () =
  { lookups = 0; pcbs_examined = 0; cache_hits = 0; found = 0; not_found = 0;
    inserts = 0; removes = 0; evictions = 0; rejections = 0; batches = 0;
    max_examined = 0; current = 0; in_lookup = false; histogram = None;
    hit_histogram = None; miss_histogram = None;
    tracer = Obs.Trace.disabled }

let set_histogram t histogram = t.histogram <- histogram
let histogram t = t.histogram

let set_series_histograms t ~hit ~miss =
  t.hit_histogram <- hit;
  t.miss_histogram <- miss

let set_tracer t tracer = t.tracer <- tracer
let tracer t = t.tracer

let begin_lookup t =
  assert (not t.in_lookup);
  t.in_lookup <- true;
  t.current <- 0;
  Obs.Trace.record t.tracer Obs.Trace.Lookup_begin 0 0

let examine t =
  assert t.in_lookup;
  t.current <- t.current + 1

let charge t n =
  assert t.in_lookup;
  t.current <- t.current + n

let end_lookup t ~hit_cache ~found =
  assert t.in_lookup;
  t.in_lookup <- false;
  t.lookups <- t.lookups + 1;
  t.pcbs_examined <- t.pcbs_examined + t.current;
  if t.current > t.max_examined then t.max_examined <- t.current;
  if hit_cache then t.cache_hits <- t.cache_hits + 1;
  if found then t.found <- t.found + 1 else t.not_found <- t.not_found + 1;
  (match t.histogram with
  | Some h -> Obs.Histogram.record h t.current
  | None -> ());
  (match (if found then t.hit_histogram else t.miss_histogram) with
  | Some h -> Obs.Histogram.record h t.current
  | None -> ());
  Obs.Trace.record t.tracer Obs.Trace.Lookup_end t.current
    ((if found then 1 else 0) lor if hit_cache then 2 else 0);
  if hit_cache then Obs.Trace.record t.tracer Obs.Trace.Cache_hit t.current 0
  else if t.current > 1 then
    Obs.Trace.record t.tracer Obs.Trace.Chain_walk t.current 0

let pcbs_examined t = t.pcbs_examined

let note_insert t =
  t.inserts <- t.inserts + 1;
  Obs.Trace.record t.tracer Obs.Trace.Insert 0 0

let note_remove t =
  t.removes <- t.removes + 1;
  Obs.Trace.record t.tracer Obs.Trace.Remove 0 0

let note_eviction t =
  t.evictions <- t.evictions + 1;
  Obs.Trace.record t.tracer Obs.Trace.Eviction 0 0

let note_rejection t =
  t.rejections <- t.rejections + 1;
  Obs.Trace.record t.tracer Obs.Trace.Rejection 0 0

let note_batch t ~size =
  if size < 0 then invalid_arg "Lookup_stats.note_batch: size < 0";
  t.batches <- t.batches + 1;
  Obs.Trace.record t.tracer Obs.Trace.Batch size 0

type snapshot = {
  lookups : int;
  pcbs_examined : int;
  cache_hits : int;
  found : int;
  not_found : int;
  inserts : int;
  removes : int;
  evictions : int;
  rejections : int;
  batches : int;
  max_examined : int;
}

let snapshot (t : t) =
  { lookups = t.lookups; pcbs_examined = t.pcbs_examined;
    cache_hits = t.cache_hits; found = t.found; not_found = t.not_found;
    inserts = t.inserts; removes = t.removes; evictions = t.evictions;
    rejections = t.rejections; batches = t.batches;
    max_examined = t.max_examined }

let empty_snapshot =
  { lookups = 0; pcbs_examined = 0; cache_hits = 0; found = 0; not_found = 0;
    inserts = 0; removes = 0; evictions = 0; rejections = 0; batches = 0;
    max_examined = 0 }

let merge_snapshots snapshots =
  List.fold_left
    (fun acc s ->
      { lookups = acc.lookups + s.lookups;
        pcbs_examined = acc.pcbs_examined + s.pcbs_examined;
        cache_hits = acc.cache_hits + s.cache_hits;
        found = acc.found + s.found;
        not_found = acc.not_found + s.not_found;
        inserts = acc.inserts + s.inserts;
        removes = acc.removes + s.removes;
        evictions = acc.evictions + s.evictions;
        rejections = acc.rejections + s.rejections;
        batches = acc.batches + s.batches;
        max_examined = max acc.max_examined s.max_examined })
    empty_snapshot snapshots

let mean_examined s =
  if s.lookups = 0 then Float.nan
  else float_of_int s.pcbs_examined /. float_of_int s.lookups

let hit_rate s =
  if s.lookups = 0 then Float.nan
  else float_of_int s.cache_hits /. float_of_int s.lookups

let reset (t : t) =
  t.lookups <- 0;
  t.pcbs_examined <- 0;
  t.cache_hits <- 0;
  t.found <- 0;
  t.not_found <- 0;
  t.inserts <- 0;
  t.removes <- 0;
  t.evictions <- 0;
  t.rejections <- 0;
  t.batches <- 0;
  t.max_examined <- 0;
  t.current <- 0;
  t.in_lookup <- false;
  (* The histogram follows the counters (a post-warm-up reset must
     clear both); the tracer is a rolling log and keeps its events. *)
  (match t.histogram with
  | Some h -> Obs.Histogram.clear h
  | None -> ());
  (match t.hit_histogram with
  | Some h -> Obs.Histogram.clear h
  | None -> ());
  match t.miss_histogram with
  | Some h -> Obs.Histogram.clear h
  | None -> ()

let pp_snapshot ppf s =
  Format.fprintf ppf
    "@[<v>lookups=%d examined=%d (mean %.2f, max %d)@,\
     cache hits=%d (rate %.4f) found=%d not-found=%d@,\
     inserts=%d removes=%d evictions=%d rejections=%d batches=%d@]"
    s.lookups s.pcbs_examined (mean_examined s) s.max_examined s.cache_hits
    (hit_rate s) s.found s.not_found s.inserts s.removes s.evictions
    s.rejections s.batches
