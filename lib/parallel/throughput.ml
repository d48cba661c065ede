type target = Coarse of Demux.Registry.spec | Striped of int | Epoch

let target_name = function
  | Coarse spec -> "coarse:" ^ Demux.Registry.spec_name spec
  | Striped chains -> Printf.sprintf "striped:sequent-%d" chains
  | Epoch -> "epoch:table"

let target_of_name name =
  let invalid detail =
    Error
      (Printf.sprintf
         "invalid target %S%s (valid: coarse:<algorithm>, \
          striped:sequent[-H], epoch)"
         name detail)
  in
  match String.split_on_char ':' name with
  | [ "coarse"; spec ] -> (
    match Demux.Registry.spec_of_string spec with
    | Ok spec -> Ok (Coarse spec)
    | Error message -> invalid (": " ^ message))
  | [ "striped"; spec ] -> (
    match Demux.Registry.spec_of_string spec with
    | Ok (Demux.Registry.Sequent { chains; _ }) -> Ok (Striped chains)
    | Ok _ -> invalid ""
    | Error message -> invalid (": " ^ message))
  | [ "epoch" ] | [ "epoch"; "table" ] -> Ok Epoch
  | _ -> invalid ""

type result = {
  target : string;
  domains : int;
  batch : int;
  total_lookups : int;
  elapsed_seconds : float;
  lookups_per_second : float;
  clock_went_backwards : int;
  latency : Obs.Histogram.t option;
  traces : Obs.Trace.t list;
}

(* Clamp an interval at zero rather than poisoning the histogram.
   [Obs.Clock.now_ns] is monotonic so the clamp should never fire; it
   is kept — and counted — so a platform where it did would show up as
   a metric instead of as garbage percentiles. *)
let interval_ns backwards ~entered ~left =
  let delta = left - entered in
  if delta < 0 then begin
    incr backwards;
    0
  end
  else delta

(* A uniform lookup driver over an opaque thread-safe lookup
   function.  With [histogram], each lookup is additionally timed and
   its latency recorded in nanosecond units; the histogram is
   domain-local, so recording needs no synchronisation. *)
let drive ?histogram ?(tracer = Obs.Trace.disabled) ~backwards ~flows
    ~lookups ~seed lookup =
  let rng = Worker_rng.create seed in
  let bound = Array.length flows in
  match (histogram, Obs.Trace.enabled tracer) with
  | None, false ->
    for _ = 1 to lookups do
      let flow = flows.(Worker_rng.int rng ~bound) in
      ignore (lookup flow)
    done
  | _ ->
    for _ = 1 to lookups do
      let flow = flows.(Worker_rng.int rng ~bound) in
      let entered = Obs.Clock.now_ns () in
      ignore (lookup flow);
      let left = Obs.Clock.now_ns () in
      let nanoseconds = interval_ns backwards ~entered ~left in
      (match histogram with
      | Some histogram -> Obs.Histogram.record histogram nanoseconds
      | None -> ());
      Obs.Trace.record tracer Obs.Trace.Latency nanoseconds 0
    done

(* The batched driver: the same pseudo-random flow sequence, staged
   into a [batch]-slot buffer and demultiplexed through the target's
   [lookup_batch], which takes each stripe mutex once per batch.  A
   single lookup inside a batch is not individually observable, so
   latency is amortised: the whole batch is timed once and the
   per-lookup share recorded [size] times (exact bucket-wise, since
   every share is the same value). *)
let drive_batched ?histogram ?(tracer = Obs.Trace.disabled) ~backwards
    ~flows ~lookups ~batch ~seed lookup_batch =
  let rng = Worker_rng.create seed in
  let bound = Array.length flows in
  let buffer = Array.make batch flows.(0) in
  let timed = histogram <> None || Obs.Trace.enabled tracer in
  let remaining = ref lookups in
  while !remaining > 0 do
    let size = min batch !remaining in
    remaining := !remaining - size;
    for i = 0 to size - 1 do
      buffer.(i) <- flows.(Worker_rng.int rng ~bound)
    done;
    let view = if size = batch then buffer else Array.sub buffer 0 size in
    if timed then begin
      let entered = Obs.Clock.now_ns () in
      ignore (lookup_batch view);
      let left = Obs.Clock.now_ns () in
      let per_lookup = interval_ns backwards ~entered ~left / size in
      (match histogram with
      | Some histogram -> Obs.Histogram.add histogram per_lookup ~count:size
      | None -> ());
      Obs.Trace.record tracer Obs.Trace.Latency per_lookup size
    end
    else ignore (lookup_batch view)
  done

let flows connections =
  Array.init connections (fun i ->
      let addr =
        Packet.Ipv4.addr_of_octets 10
          ((i lsr 16) land 0xFF)
          ((i lsr 8) land 0xFF)
          (i land 0xFF)
      in
      Packet.Flow.v
        ~local:(Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 192 168 1 1) 8888)
        ~remote:(Packet.Flow.endpoint addr (1024 + (i * 7 mod 60000))))

let hash = Hashing.Hashers.(hash_flow multiplicative)

type table = {
  lookup : Packet.Flow.t -> bool;
  lookup_batch : Packet.Flow.t array -> int;
  lookup_batch_keyed : Packet.Flow.t array -> hashes:int array -> int;
  observe : Obs.Registry.t -> unit;
}

let table target flows =
  match target with
  | Coarse spec ->
    let d = Coarse.create spec in
    Array.iter (fun flow -> ignore (Coarse.insert d flow ())) flows;
    { lookup = (fun flow -> Coarse.lookup d flow <> None);
      lookup_batch = (fun batch -> Coarse.lookup_batch d batch);
      lookup_batch_keyed = (fun batch ~hashes:_ -> Coarse.lookup_batch d batch);
      observe = ignore }
  | Striped chains ->
    let d = Striped.create ~chains () in
    Array.iter (fun flow -> ignore (Striped.insert d flow ())) flows;
    { lookup = (fun flow -> Striped.lookup d flow <> None);
      lookup_batch = (fun batch -> Striped.lookup_batch d batch);
      lookup_batch_keyed =
        (fun batch ~hashes -> Striped.lookup_batch_keyed d batch ~hashes);
      observe = ignore }
  | Epoch ->
    let module E = Epoch.Packed.Heap in
    let d = E.create () in
    E.load d
      (Array.mapi
         (fun i flow -> (Packet.Flow.w0 flow, Packet.Flow.w1 flow, i))
         flows);
    (* Lookups go through [mem]: [find_flow] boxes an [int option] per
       call, which E33's zero-allocation read-path gate would see. *)
    { lookup =
        (fun flow ->
          E.mem d ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow));
      lookup_batch = (fun batch -> E.lookup_batch d batch);
      lookup_batch_keyed =
        (fun batch ~hashes -> E.lookup_batch_keyed d batch ~hashes);
      observe = (fun obs -> E.register_obs ~prefix:"epoch.table" obs d) }

let run ?obs ?trace_capacity ?(connections = 2000)
    ?(lookups_per_domain = 200_000) ?(seed = 42) ?(batch = 1) ~domains target
    =
  if domains <= 0 then invalid_arg "Throughput.run: domains <= 0";
  if batch <= 0 then invalid_arg "Throughput.run: batch <= 0";
  if connections <= 0 then invalid_arg "Throughput.run: connections <= 0";
  if lookups_per_domain <= 0 then
    invalid_arg "Throughput.run: lookups_per_domain <= 0";
  let flows = flows connections in
  let { lookup; lookup_batch; _ } = table target flows in
  (* One histogram per domain, merged after the join: recording stays
     allocation- and contention-free on the measurement path. *)
  let histograms =
    Option.map
      (fun _ -> Array.init domains (fun _ -> Obs.Histogram.create ()))
      obs
  in
  (* Tracers are single-domain: one ring per worker, tagged with the
     domain index, dumped as consecutive segments by the caller. *)
  let tracers =
    Option.map
      (fun capacity ->
        Array.init domains (fun worker ->
            Obs.Trace.create ~id:worker ~capacity ()))
      trace_capacity
  in
  let backwards = Array.init domains (fun _ -> ref 0) in
  let started = Obs.Clock.now_ns () in
  let workers =
    List.init domains (fun worker ->
        Domain.spawn (fun () ->
            let histogram = Option.map (fun hs -> hs.(worker)) histograms in
            let tracer = Option.map (fun ts -> ts.(worker)) tracers in
            let backwards = backwards.(worker) in
            if batch = 1 then
              drive ?histogram ?tracer ~backwards ~flows
                ~lookups:lookups_per_domain ~seed:(seed + worker) lookup
            else
              drive_batched ?histogram ?tracer ~backwards ~flows
                ~lookups:lookups_per_domain ~batch ~seed:(seed + worker)
                lookup_batch))
  in
  List.iter Domain.join workers;
  let elapsed = float_of_int (Obs.Clock.now_ns () - started) /. 1e9 in
  let total = domains * lookups_per_domain in
  let went_backwards = Array.fold_left (fun a r -> a + !r) 0 backwards in
  Option.iter
    (fun obs ->
      let clamped =
        Obs.Registry.counter obs
          ~help:
            "lookup intervals clamped to zero because a clock read came \
             out negative (expected 0: the source is monotonic)"
          "parallel.clock_went_backwards"
      in
      clamped := !clamped + went_backwards)
    obs;
  let latency =
    match (obs, histograms) with
    | Some obs, Some per_domain ->
      let merged =
        Obs.Registry.histogram obs ~units:"ns"
          ~help:
            "per-lookup monotonic latency, merged across domains \
             (nanosecond units at clock granularity, not ns precision; \
             amortised per batch when batch > 1)"
          (Printf.sprintf "parallel.%s.d%d.b%d.lookup_ns"
             (target_name target) domains batch)
      in
      Array.iter
        (fun histogram -> Obs.Histogram.merge_into ~into:merged histogram)
        per_domain;
      Some merged
    | _ -> None
  in
  { target = target_name target; domains; batch; total_lookups = total;
    elapsed_seconds = elapsed;
    lookups_per_second = float_of_int total /. elapsed;
    clock_went_backwards = went_backwards; latency;
    traces =
      (match tracers with
      | Some tracers -> Array.to_list tracers
      | None -> []) }

let scaling_table ?obs ?trace_capacity ?connections ?lookups_per_domain
    ?seed ?(batches = [ 1 ]) ~domains targets =
  List.concat_map
    (fun target ->
      List.concat_map
        (fun domain_count ->
          List.map
            (fun batch ->
              run ?obs ?trace_capacity ?connections ?lookups_per_domain
                ?seed ~batch ~domains:domain_count target)
            batches)
        domains)
    targets

let pp_results ppf results =
  let threads = Domain.recommended_domain_count () in
  Format.fprintf ppf "%-22s %8s %6s %14s %12s@." "target" "domains" "batch"
    "lookups/s" "elapsed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %8d %6d %14.0f %11.2fs%s@." r.target r.domains
        r.batch r.lookups_per_second r.elapsed_seconds
        (if r.domains > threads then "  (time-sliced)" else ""))
    results
