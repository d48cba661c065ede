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

(* Per-target staging, shared by [push] and Smp's dispatcher: items
   wait in their target's buffer, each with its hash, until [batch] of
   them are staged or the caller flushes the target.  [ship] gets the
   target's own buffers and copies what it keeps. *)
type 'a staging = {
  batch : int;
  (* Sized on a target's first item, since an ['a array] cannot be
     allocated without an element. *)
  buffers : 'a array array;
  hash_buffers : int array array;
  fills : int array;
  ship : int -> 'a array -> int array -> int -> unit;
}

let staging ~targets ~batch ~ship =
  { batch; buffers = Array.make targets [||];
    hash_buffers = Array.init targets (fun _ -> Array.make batch 0);
    fills = Array.make targets 0; ship }

let flush s w =
  let fill = s.fills.(w) in
  if fill > 0 then begin
    s.fills.(w) <- 0;
    s.ship w s.buffers.(w) s.hash_buffers.(w) fill
  end

let stage s ~target:w ~hash item =
  if Array.length s.buffers.(w) = 0 then
    s.buffers.(w) <- Array.make s.batch item;
  let fill = s.fills.(w) in
  s.buffers.(w).(fill) <- item;
  s.hash_buffers.(w).(fill) <- hash;
  s.fills.(w) <- fill + 1;
  if fill + 1 = s.batch then flush s w

type offered = Shipped | Rejected | Dropped

let note_depth ?(limit = max_int) p ring =
  Pressure.note_ring_depth p ~depth:(Ring.length ring)
    ~capacity:(min limit (Ring.capacity ring))

(* The tier policy.  At [Reject] the value is refused before the ring
   is even tried; at [Drop_batches] a full ring drops it instead of
   blocking; below that a full ring is backpressure and the producer
   spins until the worker frees a slot.  Every offer samples the ring
   into the controller, a refused one too: the workers keep draining
   while the producer sheds, and without a load signal the controller
   would never observe the calm run it needs to leave Reject. *)
let offer ?pressure ?spin ?limit ring value ~packets =
  match pressure with
  | Some p when Pressure.rejecting p ->
    Pressure.note_rejected p ~packets;
    note_depth ?limit p ring;
    Rejected
  | _ -> (
    (match pressure with Some p -> note_depth ?limit p ring | None -> ());
    if Ring.try_push ?limit ring value then Shipped
    else
      match pressure with
      | Some p when Pressure.drops_batches p ->
        Pressure.note_dropped_batch p ~packets;
        Dropped
      | _ ->
        Ring.push ?spin ?limit ring value;
        Shipped)

(* What shipping a batch updates. *)
type tally = {
  mutable batches : int;
  mutable max_depth : int;
  mutable tier_dropped : int;
  mutable rejected : int;
}

type 'a t = {
  workers : int;
  hash : 'a -> int;
  rings : ('a array * int array) Ring.t array;
  domains : (int * int) Domain.t array;
  staging : 'a staging;
  tally : tally;
  started : int;
  mutable packets : int;
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
  let tally = { batches = 0; max_depth = 0; tier_dropped = 0; rejected = 0 } in
  (* Ship worker [w]'s staged items as one immutable batch, through the
     tier policy. *)
  let ship w items hashes fill =
    let ring = rings.(w) in
    let depth = Ring.length ring in
    if depth > tally.max_depth then tally.max_depth <- depth;
    Option.iter (fun h -> Obs.Histogram.record h depth) depth_histogram;
    let shipment = (Array.sub items 0 fill, Array.sub hashes 0 fill) in
    match offer ?pressure ring shipment ~packets:fill with
    | Shipped ->
      tally.batches <- tally.batches + 1;
      Option.iter (fun h -> Obs.Histogram.record h fill) batch_histogram;
      Obs.Trace.record tracer Obs.Trace.Batch fill w
    | Dropped -> tally.tier_dropped <- tally.tier_dropped + fill
    | Rejected -> tally.rejected <- tally.rejected + fill
  in
  let started = Obs.Clock.now_ns () in
  (* [consume w] is applied inside worker [w]'s domain, before its
     first pop. *)
  let domains =
    Array.init workers (fun w ->
        Domain.spawn (fun () -> worker_loop rings.(w) (consume w)))
  in
  let t =
    { workers; hash; rings; domains;
      staging = staging ~targets:workers ~batch ~ship; tally; started;
      packets = 0 }
  in
  Option.iter
    (fun obs ->
      Obs.Registry.register_counter obs
        ~help:"packets dropped because the destination ring stayed full"
        ~name:"pipeline.backpressure_drops"
        (fun () -> tally.tier_dropped);
      Obs.Registry.register_gauge obs ~units:"batches"
        ~help:"deepest worker-ring occupancy observed by the dispatcher"
        ~name:"pipeline.ring_depth_max"
        (fun () -> float_of_int tally.max_depth))
    obs;
  t

(* RSS: shard every item by its hash, so one connection's packets
   always reach the same worker (per-stripe caches stay warm and no
   two workers contend on one connection's stripe).  The hash is
   computed exactly once per item, here; the worker index is its
   reduction mod workers and the full value ships with the batch. *)
let push t item =
  let h = t.hash item in
  t.packets <- t.packets + 1;
  stage t.staging ~target:(h mod t.workers) ~hash:h item

let finish t : result =
  for w = 0 to t.workers - 1 do
    flush t.staging w
  done;
  Array.iter Ring.close t.rings;
  let counts = Array.map Domain.join t.domains in
  let elapsed = float_of_int (Obs.Clock.now_ns () - t.started) /. 1e9 in
  let delivered = Array.fold_left (fun a (p, _) -> a + p) 0 counts in
  { workers = t.workers; batch = t.staging.batch; packets = t.packets;
    found = Array.fold_left (fun a (_, f) -> a + f) 0 counts;
    batches = t.tally.batches; tier_dropped_packets = t.tally.tier_dropped;
    rejected_packets = t.tally.rejected; max_ring_depth = t.tally.max_depth;
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
