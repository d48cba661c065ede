type result = {
  workers : int;
  batch : int;
  packets : int;
  found : int;
  batches : int;
  tier_dropped_packets : int;
  rejected_packets : int;
  max_ring_depth : int;
  elapsed_seconds : float;
  packets_per_second : float;
  per_worker_packets : int array;
}

type 'a t = {
  workers : int;
  batch : int;
  hash : 'a -> int;
  pressure : Pressure.t option;
  tracer : Obs.Trace.t;
  batch_histogram : Obs.Histogram.t option;
  depth_histogram : Obs.Histogram.t option;
  rings : ('a array * int array) Ring.t array;
  domains : (int * int) Domain.t array;
  (* Per-worker staging: sized on the worker's first item, since an
     ['a array] cannot be allocated without an element. *)
  buffers : 'a array array;
  (* Each item's full hash, computed once at dispatch and shipped with
     the batch so downstream stages (stripe grouping in
     [Striped.lookup_batch_keyed]) never re-derive it. *)
  hash_buffers : int array array;
  fills : int array;
  started : int;
  mutable packets : int;
  mutable batches : int;
  mutable max_depth : int;
  mutable tier_dropped : int;
  mutable rejected : int;
}

let worker_loop ring consume =
  let found = ref 0 and packets = ref 0 in
  Ring.drain ring (fun (batch, hashes) ->
      packets := !packets + Array.length batch;
      found := !found + consume batch ~hashes);
  (!packets, !found)

let start ?obs ?(tracer = Obs.Trace.disabled) ?(ring_capacity = 64) ?pressure
    ~workers ~batch ~hash ~consume () =
  if workers <= 0 then invalid_arg "Dispatcher.start: workers <= 0";
  if batch <= 0 then invalid_arg "Dispatcher.start: batch <= 0";
  if ring_capacity <= 0 then
    invalid_arg "Dispatcher.start: ring_capacity <= 0";
  let rings =
    Array.init workers (fun _ -> Ring.create ~capacity:ring_capacity)
  in
  (* Observability, matching lib/obs conventions: a batch-size
     histogram and a ring-depth histogram (sampled at each push). *)
  let histogram ~units ~help name =
    Option.map (fun obs -> Obs.Registry.histogram obs ~units ~help name) obs
  in
  let batch_histogram =
    histogram ~units:"packets"
      ~help:"packets per batch pushed to a worker ring" "pipeline.batch_size"
  in
  let depth_histogram =
    histogram ~units:"batches"
      ~help:"destination ring depth sampled at each batch offered"
      "pipeline.ring_depth"
  in
  let started = Obs.Clock.now_ns () in
  (* [consume w] is applied inside worker [w]'s domain, before its
     first pop. *)
  let domains =
    Array.init workers (fun w ->
        Domain.spawn (fun () -> worker_loop rings.(w) (consume w)))
  in
  let t =
    { workers; batch; hash; pressure; tracer; batch_histogram;
      depth_histogram; rings; domains; buffers = Array.make workers [||];
      hash_buffers = Array.init workers (fun _ -> Array.make batch 0);
      fills = Array.make workers 0; started;
      packets = 0; batches = 0; max_depth = 0; tier_dropped = 0;
      rejected = 0 }
  in
  Option.iter
    (fun obs ->
      Obs.Registry.register_counter obs
        ~help:"packets dropped because the destination ring stayed full"
        ~name:"pipeline.backpressure_drops"
        (fun () -> t.tier_dropped);
      Obs.Registry.register_gauge obs ~units:"batches"
        ~help:"deepest worker-ring occupancy observed by the dispatcher"
        ~name:"pipeline.ring_depth_max"
        (fun () -> float_of_int t.max_depth))
    obs;
  t

type offered = Shipped | Rejected | Dropped

let note_depth p ring =
  Pressure.note_ring_depth p ~depth:(Ring.length ring)
    ~capacity:(Ring.capacity ring)

(* The tier policy.  At [Reject] the value is refused before the ring
   is even tried; at [Drop_batches] a full ring drops it instead of
   blocking; below that a full ring is backpressure and the producer
   spins until the worker frees a slot.  Every offer samples the ring
   into the controller, a refused one too: the workers keep draining
   while the producer sheds, and without a load signal the controller
   would never observe the calm run it needs to leave Reject. *)
let offer ?pressure ?spin ring value ~packets =
  match pressure with
  | Some p when Pressure.rejecting p ->
    Pressure.note_rejected p ~packets;
    note_depth p ring;
    Rejected
  | _ -> (
    (match pressure with Some p -> note_depth p ring | None -> ());
    if Ring.try_push ring value then Shipped
    else
      match pressure with
      | Some p when Pressure.drops_batches p ->
        Pressure.note_dropped_batch p ~packets;
        Dropped
      | _ ->
        Ring.push ?spin ring value;
        Shipped)

(* Ship worker [w]'s partial buffer as one immutable batch, through
   the tier policy. *)
let flush t w =
  let fill = t.fills.(w) in
  if fill > 0 then begin
    t.fills.(w) <- 0;
    let ring = t.rings.(w) in
    let depth = Ring.length ring in
    if depth > t.max_depth then t.max_depth <- depth;
    Option.iter (fun h -> Obs.Histogram.record h depth) t.depth_histogram;
    let shipment =
      (Array.sub t.buffers.(w) 0 fill, Array.sub t.hash_buffers.(w) 0 fill)
    in
    match offer ?pressure:t.pressure ring shipment ~packets:fill with
    | Shipped ->
      t.batches <- t.batches + 1;
      Option.iter (fun h -> Obs.Histogram.record h fill) t.batch_histogram;
      Obs.Trace.record t.tracer Obs.Trace.Batch fill w
    | Dropped -> t.tier_dropped <- t.tier_dropped + fill
    | Rejected -> t.rejected <- t.rejected + fill
  end

(* RSS: shard every item by its hash, so one connection's packets
   always reach the same worker (per-stripe caches stay warm and no
   two workers contend on one connection's stripe).  The hash is
   computed exactly once per item, here; the worker index is its
   reduction mod workers and the full value ships with the batch. *)
let push t item =
  let h = t.hash item in
  let w = h mod t.workers in
  if Array.length t.buffers.(w) = 0 then
    t.buffers.(w) <- Array.make t.batch item;
  let fill = t.fills.(w) in
  t.buffers.(w).(fill) <- item;
  t.hash_buffers.(w).(fill) <- h;
  t.fills.(w) <- fill + 1;
  t.packets <- t.packets + 1;
  if fill + 1 = t.batch then flush t w

let finish t : result =
  for w = 0 to t.workers - 1 do
    flush t w
  done;
  Array.iter Ring.close t.rings;
  let counts = Array.map Domain.join t.domains in
  let elapsed = float_of_int (Obs.Clock.now_ns () - t.started) /. 1e9 in
  let delivered = Array.fold_left (fun a (p, _) -> a + p) 0 counts in
  { workers = t.workers; batch = t.batch; packets = t.packets;
    found = Array.fold_left (fun a (_, f) -> a + f) 0 counts;
    batches = t.batches; tier_dropped_packets = t.tier_dropped;
    rejected_packets = t.rejected; max_ring_depth = t.max_depth;
    elapsed_seconds = elapsed;
    packets_per_second =
      (if elapsed > 0.0 then float_of_int delivered /. elapsed else 0.0);
    per_worker_packets = Array.map fst counts }

let run ?obs ?tracer ?ring_capacity ?pressure ~workers ~batch ~hash ~consume
    items =
  let t =
    start ?obs ?tracer ?ring_capacity ?pressure ~workers ~batch ~hash ~consume
      ()
  in
  Array.iter (push t) items;
  finish t

let lost_packets (r : result) = r.tier_dropped_packets + r.rejected_packets

let pp ppf (r : result) =
  Format.fprintf ppf
    "@[<v>%d workers x batch %d: %d packets (%d found, %d dropped) in %.3f s \
     = %.0f pkts/s@,%d batches, max ring depth %d, per-worker %s@]"
    r.workers r.batch r.packets r.found (lost_packets r) r.elapsed_seconds
    r.packets_per_second r.batches r.max_ring_depth
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.per_worker_packets)));
  if r.tier_dropped_packets > 0 || r.rejected_packets > 0 then
    Format.fprintf ppf
      "@,pressure: %d dropped at drop-batches, %d refused at reject"
      r.tier_dropped_packets r.rejected_packets
