type config = {
  domains : int;
  ring_capacity : int;
  demux : Demux.Registry.spec;
  migrate : bool;
  migrate_target : int option;
  local_addr : Packet.Ipv4.addr;
  on_data :
    Tcpcore.Stack.t -> Tcpcore.Stack.connection -> string -> unit;
  pressure : Pressure.config option;
  on_pressure : Pressure.t array -> unit;
  stall : (int * int) option;
  stages : bool;
}

let config ?(ring_capacity = 1024)
    ?(demux =
      Demux.Registry.Sequent
        { chains = 19; hasher = Hashing.Hashers.multiplicative })
    ?(migrate = false) ?migrate_target ?(on_data = fun _ _ _ -> ()) ?pressure
    ?(on_pressure = fun _ -> ()) ?stall ?(stages = false) ~domains ~local_addr
    () =
  if domains <= 0 then invalid_arg "Smp.config: domains <= 0";
  if ring_capacity <= 0 then invalid_arg "Smp.config: ring_capacity <= 0";
  (match migrate_target with
  | Some t when not migrate ->
    invalid_arg
      (Printf.sprintf "Smp.config: migrate_target %d without migrate" t)
  | Some t when t < 0 || t >= domains ->
    invalid_arg "Smp.config: migrate_target outside [0, domains)"
  | _ -> ());
  (match stall with
  | Some (i, _) when i < 0 || i >= domains ->
    invalid_arg "Smp.config: stall domain outside [0, domains)"
  | Some (_, ns) when ns < 0 -> invalid_arg "Smp.config: negative stall"
  | _ -> ());
  { domains; ring_capacity; demux; migrate; migrate_target; local_addr;
    on_data; pressure; on_pressure; stall; stages }

(* Every worker's listener; the traffic generators' server port. *)
let listen_port = 8888

type conn_summary = {
  flow : Packet.Flow.t;
  state : Tcpcore.State.t;
  bytes_in : int;
  bytes_out : int;
  snd_nxt : int32;
  rcv_nxt : int32;
  snd_una : int32;
}

type domain_result = {
  index : int;
  steered : int;
  rejected : int;
  dropped_full : int;
  processed : int;
  forwarded_in : int;
  forwarded_out : int;
  buffered : int;
  adopted : int;
  migrated_out : int;
  self_handoffs : int;
  flushes : int;
  unclassified : int;
  leftover : int;
  tx : int;
  connections : int;
  drops : (string * int) list;
  stats : Demux.Lookup_stats.snapshot;
  tier : string option;
  tier_transitions : (string * int) list;
  pressure_counters : (string * int) list;
}

type result = {
  domains : int;
  total : int;
  per_domain : domain_result array;
  merged_drops : (string * int) list;
  merged_stats : Demux.Lookup_stats.snapshot;
  connections : conn_summary list;
  handoffs : int;
  self_handoffs : int;
  forwarded : int;
  flushes : int;
  elapsed_s : float;
  packets_per_s : float;
  stages : (string * Obs.Histogram.t) list;
}

(* Dispatcher -> worker messages.  [Flush f] only ever travels to the
   listener core (ring 0): "every straggler of [f] precedes this
   message — forward them, then tell the new owner the stream is
   complete". *)
type msg = Datagram of bytes | Flush of Packet.Flow.t

(* Listener core -> adopting core, over that core's peer ring.  FIFO
   order carries the protocol: [Adopt] before any [Forwarded] segment
   of the flow, [Forward_done] after the last. *)
type peer_msg =
  | Adopt of Tcpcore.Stack.connection
  | Forwarded of bytes
  | Forward_done of Packet.Flow.t

(* Listener core -> dispatcher: route datagrams of [flow] to domain
   [k] from now on. *)
type ctrl_msg = Redirect of Packet.Flow.t * int

let blocking_push ring v =
  while not (Ring.try_push ring v) do
    Domain.cpu_relax ()
  done

let stack_tier = function
  | Pressure.Normal -> Tcpcore.Stack.Normal
  | Pressure.Shed_new_flows -> Tcpcore.Stack.Shed_new_flows
  | Pressure.Drop_batches -> Tcpcore.Stack.Drop_batches
  | Pressure.Reject -> Tcpcore.Stack.Reject

(* The whole life of one worker domain: build a private stack, drain
   the dispatcher ring (and, when adopting, the peer ring) until both
   are closed and empty, summarize.  The summary crosses back through
   [Domain.join]; the stack itself never leaves its domain.  The
   dispatcher's fields ([steered], [rejected], [dropped_full]) and the
   pressure fields are left empty for [run] to fill. *)
let worker (cfg : config) ~index ~ring ~peer_in ~peer_out ~ctrl ~input_done
    ~w0_drained ~pressure ~stall_ns ~stage_parse ~stage_demux
    ~stage_state () =
  let stack =
    Tcpcore.Stack.create ~demux:cfg.demux
      ~iss:Tcpcore.Stack.deterministic_iss ~local_addr:cfg.local_addr ()
  in
  Tcpcore.Stack.listen stack ~port:listen_port ~on_data:cfg.on_data;
  (match pressure with
  | Some p ->
    Tcpcore.Stack.set_overload_probe stack (fun () ->
        stack_tier (Pressure.tier p))
  | None -> ());
  if cfg.stages then
    Tcpcore.Stack.set_stage_histograms stack ~parse:stage_parse
      ~demux:stage_demux ~state:stage_state;
  let processed = ref 0
  and forwarded_in = ref 0
  and forwarded_out = ref 0
  and buffered = ref 0
  and adopted = ref 0
  and migrated_out = ref 0
  and self_handoffs = ref 0
  and flushes = ref 0
  and unclassified = ref 0
  and leftover = ref 0
  and tx = ref 0 in
  let drain_tx () =
    tx := !tx + List.length (Tcpcore.Stack.poll_output stack)
  in
  let stall () =
    if stall_ns > 0 then begin
      let until = Obs.Clock.now_ns () + stall_ns in
      while Obs.Clock.now_ns () < until do
        Domain.cpu_relax ()
      done
    end
  in
  (* Migration state.  Listener core: flows extracted but not yet
     flushed ([migrating]: stragglers still possible in ring 0) and
     flows fully handed off.  Adopting core: per-flow backlogs of
     direct datagrams awaiting [Forward_done], then the adopted set. *)
  let pending_migration = Queue.create () in
  let migrating = Demux.Flow_table.create 64 in
  let handed_off = Demux.Flow_table.create 64 in
  let pending_buffers = Demux.Flow_table.create 64 in
  let adopted_set = Demux.Flow_table.create 64 in
  let _, geometry_hasher = Demux.Registry.chain_geometry cfg.demux in
  let target_of flow =
    match cfg.migrate_target with
    | Some t -> t
    | None ->
      if cfg.domains = 1 then 0
      else
        1
        + Hashing.Hashers.bucket_flow geometry_hasher
            ~buckets:(cfg.domains - 1) flow
  in
  if cfg.migrate && index = 0 then
    Tcpcore.Stack.set_on_established stack
      (Some
         (fun _ conn ->
           Queue.add conn.Tcpcore.Stack.flow pending_migration));
  (* The hook must not reenter the stack, so handoffs are performed
     here, after [handle_bytes] has returned. *)
  let process_migrations () =
    while not (Queue.is_empty pending_migration) do
      let flow = Queue.pop pending_migration in
      match Tcpcore.Stack.extract_connection stack flow with
      | None -> incr unclassified
      | Some conn ->
        let t = target_of flow in
        if t = index then begin
          Tcpcore.Stack.adopt_connection stack conn;
          incr self_handoffs
        end
        else begin
          incr migrated_out;
          blocking_push peer_out.(t) (Adopt conn);
          Demux.Flow_table.replace migrating flow t;
          blocking_push ctrl (Redirect (flow, t))
        end
    done
  in
  let feed bytes =
    incr processed;
    stall ();
    ignore (Tcpcore.Stack.handle_bytes stack bytes);
    if cfg.migrate && index = 0 then process_migrations ();
    drain_tx ()
  in
  let feed_forwarded bytes =
    incr forwarded_in;
    stall ();
    ignore (Tcpcore.Stack.handle_bytes stack bytes);
    drain_tx ()
  in
  (* Listener core: a datagram for a migrating flow is a straggler
     steered before the route change — forward it; a flush closes the
     straggler stream. *)
  let handle_w0 = function
    | Datagram bytes -> (
      match Packet.Segment.peek_flow bytes ~off:0 with
      | Error _ -> feed bytes
      | Ok flow -> (
        match Demux.Flow_table.find_opt migrating flow with
        | Some t ->
          incr forwarded_out;
          blocking_push peer_out.(t) (Forwarded bytes)
        | None ->
          if Demux.Flow_table.mem handed_off flow then incr unclassified
          else feed bytes))
    | Flush flow -> (
      match Demux.Flow_table.find_opt migrating flow with
      | Some t ->
        incr flushes;
        Demux.Flow_table.remove migrating flow;
        Demux.Flow_table.replace handed_off flow t;
        blocking_push peer_out.(t) (Forward_done flow)
      | None -> incr unclassified)
  in
  (* Adopting core, peer-ring side. *)
  let handle_peer = function
    | Adopt conn ->
      Tcpcore.Stack.adopt_connection stack conn;
      incr adopted;
      Demux.Flow_table.replace pending_buffers conn.Tcpcore.Stack.flow
        (Queue.create ())
    | Forwarded bytes -> feed_forwarded bytes
    | Forward_done flow -> (
      match Demux.Flow_table.find_opt pending_buffers flow with
      | Some q ->
        Queue.iter feed q;
        Demux.Flow_table.remove pending_buffers flow;
        Demux.Flow_table.replace adopted_set flow ()
      | None -> incr unclassified)
  in
  let drain_peer pr =
    let rec go () =
      match Ring.try_pop pr with
      | Some m ->
        handle_peer m;
        go ()
      | None -> ()
    in
    go ()
  in
  (* Adopting core, direct side.  A flow in neither set after a full
     peer-ring drain cannot be a redirected flow: its [Adopt] was
     pushed before the [Redirect] the dispatcher acted on, so the
     SC-atomic ring order makes it visible by the time the redirected
     datagram is popped.  With migrate steering everything lands on
     domain 0 first, so reaching that branch is a protocol violation,
     counted, never fed. *)
  let classify_direct bytes =
    match Packet.Segment.peek_flow bytes ~off:0 with
    | Error _ -> feed bytes
    | Ok flow ->
      let rec attempt retried =
        match Demux.Flow_table.find_opt pending_buffers flow with
        | Some q ->
          incr buffered;
          Queue.add bytes q
        | None ->
          if Demux.Flow_table.mem adopted_set flow then feed bytes
          else if retried then incr unclassified
          else begin
            (match peer_in with Some pr -> drain_peer pr | None -> ());
            attempt true
          end
      in
      attempt false
  in
  (match peer_in with
  | None ->
    (* Plain shard (all workers without migration, and the listener
       core when there are no peers to adopt from).  One ring, one
       producer: pop until closed and drained. *)
    let handle =
      if cfg.migrate && index = 0 then handle_w0
      else function
        | Datagram bytes -> feed bytes
        | Flush _ -> incr unclassified
    in
    let rec drain () =
      match Ring.try_pop ring with
      | Some m ->
        handle m;
        drain ()
      | None -> ()
    in
    let rec loop () =
      match Ring.try_pop ring with
      | Some m ->
        handle m;
        loop ()
      | None ->
        if
          cfg.migrate && index = 0
          && Atomic.get input_done
          && Ring.is_empty ring
        then Atomic.set w0_drained true;
        if Ring.is_closed ring then drain ()
        else begin
          Domain.cpu_relax ();
          loop ()
        end
    in
    loop ();
    if cfg.migrate && index = 0 then begin
      Atomic.set w0_drained true;
      Array.iteri
        (fun k r -> if k > 0 then Ring.close r)
        peer_out
    end
  | Some pr ->
    (* Adopting core: interleave the direct ring and the peer ring;
       done when both are closed and a joint drain makes no
       progress. *)
    let pump () =
      let progress = ref false in
      (match Ring.try_pop ring with
      | Some (Datagram b) ->
        classify_direct b;
        progress := true
      | Some (Flush _) ->
        incr unclassified;
        progress := true
      | None -> ());
      (match Ring.try_pop pr with
      | Some m ->
        handle_peer m;
        progress := true
      | None -> ());
      !progress
    in
    let rec loop () =
      if pump () then loop ()
      else if Ring.is_closed ring && Ring.is_closed pr then
        while pump () do
          ()
        done
      else begin
        Domain.cpu_relax ();
        loop ()
      end
    in
    loop ();
    Demux.Flow_table.iter
      (fun _ q -> leftover := !leftover + Queue.length q)
      pending_buffers);
  let connections = ref [] in
  Tcpcore.Stack.iter_connections stack (fun c ->
      connections :=
        { flow = c.Tcpcore.Stack.flow; state = c.state;
          bytes_in = c.bytes_in; bytes_out = c.bytes_out;
          snd_nxt = c.snd_nxt; rcv_nxt = c.rcv_nxt; snd_una = c.snd_una }
        :: !connections);
  ( { index; steered = 0; rejected = 0; dropped_full = 0;
      processed = !processed; forwarded_in = !forwarded_in;
      forwarded_out = !forwarded_out; buffered = !buffered;
      adopted = !adopted; migrated_out = !migrated_out;
      self_handoffs = !self_handoffs; flushes = !flushes;
      unclassified = !unclassified; leftover = !leftover; tx = !tx;
      connections = Tcpcore.Stack.connection_count stack;
      drops = Tcpcore.Stack.drop_counts stack;
      stats = Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats stack);
      tier = None; tier_transitions = []; pressure_counters = [] },
    !connections )

let merge_counts lists =
  match lists with
  | [] -> []
  | first :: _ ->
    List.map
      (fun (key, _) ->
        ( key,
          List.fold_left
            (fun acc l ->
              acc + (match List.assoc_opt key l with Some n -> n | None -> 0))
            0 lists ))
      first

let run (cfg : config) datagrams =
  let total = Array.length datagrams in
  if total = 0 then invalid_arg "Smp.run: empty trace";
  let d = cfg.domains in
  let chains, hasher = Demux.Registry.chain_geometry cfg.demux in
  let rings =
    Array.init d (fun _ -> Ring.create ~capacity:cfg.ring_capacity)
  in
  (* Peer rings exist only when another core can adopt; index 0 is a
     placeholder so worker code indexes by domain. *)
  let peer =
    if cfg.migrate && d > 1 then
      Array.init d (fun _ -> Ring.create ~capacity:cfg.ring_capacity)
    else [||]
  in
  let ctrl = Ring.create ~capacity:256 in
  let input_done = Atomic.make false in
  let w0_drained = Atomic.make false in
  let controllers =
    Option.map
      (fun pc -> Array.init d (fun _ -> Pressure.create ~config:pc ()))
      cfg.pressure
  in
  (match controllers with Some cs -> cfg.on_pressure cs | None -> ());
  let mk_h () = if cfg.stages then Some (Obs.Histogram.create ()) else None in
  let parse_h = Array.init d (fun _ -> mk_h ())
  and demux_h = Array.init d (fun _ -> mk_h ())
  and state_h = Array.init d (fun _ -> mk_h ()) in
  let steer_h = Obs.Histogram.create ()
  and enqueue_h = Obs.Histogram.create () in
  let started = Obs.Clock.now_ns () in
  let workers =
    Array.init d (fun k ->
        Domain.spawn (fun () ->
            worker cfg ~index:k ~ring:rings.(k)
              ~peer_in:(if cfg.migrate && k > 0 then Some peer.(k) else None)
              ~peer_out:peer ~ctrl ~input_done ~w0_drained
              ~pressure:(Option.map (fun cs -> cs.(k)) controllers)
              ~stall_ns:
                (match cfg.stall with
                | Some (i, ns) when i = k -> ns
                | _ -> 0)
              ~stage_parse:parse_h.(k) ~stage_demux:demux_h.(k)
              ~stage_state:state_h.(k) ()))
  in
  (* Dispatcher state: the route map is private to this domain; the
     only writes it sees arrive as [Redirect] messages. *)
  let route = Demux.Flow_table.create 64 in
  let flush_q = Queue.create () in
  let steered = Array.make d 0
  and rejected = Array.make d 0
  and dropped = Array.make d 0 in
  let poll_ctrl () =
    let rec go () =
      match Ring.try_pop ctrl with
      | Some (Redirect (flow, k)) ->
        Demux.Flow_table.replace route flow k;
        Queue.add flow flush_q;
        go ()
      | None -> ()
    in
    go ()
  in
  (* Flushes ride ring 0 behind the datagrams: a flush for [f] may
     only be pushed once every datagram of [f] steered before the
     route change has been pushed — which is exactly "between input
     datagrams", never mid-spin. *)
  let try_flushes () =
    let continue = ref true in
    while !continue && not (Queue.is_empty flush_q) do
      if Ring.try_push rings.(0) (Flush (Queue.peek flush_q)) then
        ignore (Queue.pop flush_q)
      else continue := false
    done
  in
  let base_worker flow =
    Hashing.Hashers.bucket_flow hasher ~buckets:chains flow mod d
  in
  let steer bytes =
    match Packet.Segment.peek_flow bytes ~off:0 with
    | Error _ -> 0
    | Ok flow ->
      if cfg.migrate then (
        match Demux.Flow_table.find_opt route flow with
        | Some k -> k
        | None -> 0)
      else base_worker flow
  in
  for i = 0 to total - 1 do
    if cfg.migrate then begin
      poll_ctrl ();
      try_flushes ()
    end;
    let bytes = datagrams.(i) in
    let t0 = if cfg.stages then Obs.Clock.now_ns () else 0 in
    let w = steer bytes in
    if cfg.stages then
      Obs.Histogram.record steer_h (Obs.Clock.now_ns () - t0);
    let ring = rings.(w) in
    let p = Option.map (fun cs -> cs.(w)) controllers in
    match p with
    | Some pr when Pressure.rejecting pr ->
      Pressure.note_rejected pr ~packets:1;
      rejected.(w) <- rejected.(w) + 1;
      (* Keep sampling so the controller can observe the calm run it
         needs to leave Reject (same rationale as [Dispatcher]). *)
      Pressure.note_ring_depth pr ~depth:(Ring.length ring)
        ~capacity:(Ring.capacity ring)
    | _ ->
      let e0 = if cfg.stages then Obs.Clock.now_ns () else 0 in
      (match p with
      | Some pr ->
        Pressure.note_ring_depth pr ~depth:(Ring.length ring)
          ~capacity:(Ring.capacity ring)
      | None -> ());
      if Ring.try_push ring (Datagram bytes) then
        steered.(w) <- steered.(w) + 1
      else begin
        let tier_drop =
          match p with Some pr -> Pressure.drops_batches pr | None -> false
        in
        if tier_drop then begin
          (match p with
          | Some pr -> Pressure.note_dropped_batch pr ~packets:1
          | None -> ());
          dropped.(w) <- dropped.(w) + 1
        end
        else begin
          (* Backpressure.  Only the control ring is polled while
             spinning: pushing a queued flush here could overtake the
             very datagram we are blocked on and break the
             straggler-before-flush order on ring 0. *)
          while not (Ring.try_push ring (Datagram bytes)) do
            if cfg.migrate then poll_ctrl ();
            Domain.cpu_relax ()
          done;
          steered.(w) <- steered.(w) + 1
        end
      end;
      if cfg.stages then
        Obs.Histogram.record enqueue_h (Obs.Clock.now_ns () - e0)
  done;
  if not cfg.migrate then Array.iter Ring.close rings
  else begin
    Atomic.set input_done true;
    for k = 1 to d - 1 do
      Ring.close rings.(k)
    done;
    (* The listener core going quiescent (input done, its ring empty)
       is the promise that no further [Redirect] can be emitted; after
       that, draining the control ring dry and flushing the queue
       makes closing ring 0 safe. *)
    let rec settle () =
      poll_ctrl ();
      try_flushes ();
      if
        not
          (Atomic.get w0_drained
          && Ring.is_empty ctrl
          && Queue.is_empty flush_q)
      then begin
        Domain.cpu_relax ();
        settle ()
      end
    in
    settle ();
    Ring.close rings.(0)
  end;
  let summaries = Array.map Domain.join workers in
  let elapsed_s =
    float_of_int (Obs.Clock.now_ns () - started) /. 1e9
  in
  let per_domain =
    Array.mapi
      (fun k (s, _) ->
        let s =
          { s with steered = steered.(k); rejected = rejected.(k);
                   dropped_full = dropped.(k) }
        in
        match controllers with
        | Some cs ->
          { s with tier = Some (Pressure.tier_name (Pressure.tier cs.(k)));
                   tier_transitions = Pressure.transitions cs.(k);
                   pressure_counters = Pressure.counters cs.(k) }
        | None -> s)
      summaries
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per_domain in
  let delivered = sum (fun s -> s.processed + s.forwarded_in) in
  let connections =
    List.sort
      (fun a b -> Packet.Flow.compare a.flow b.flow)
      (Array.fold_left (fun acc (_, cs) -> List.rev_append cs acc) [] summaries)
  in
  let stages =
    if not cfg.stages then []
    else
      let merged arr =
        Obs.Histogram.merge_all
          (List.filter_map Fun.id (Array.to_list arr))
      in
      [ ("steer", steer_h); ("enqueue", enqueue_h);
        ("parse", merged parse_h); ("demux", merged demux_h);
        ("state", merged state_h) ]
  in
  { domains = d; total; per_domain;
    merged_drops =
      merge_counts (Array.to_list (Array.map (fun s -> s.drops) per_domain));
    merged_stats =
      Demux.Lookup_stats.merge_snapshots
        (Array.to_list (Array.map (fun s -> s.stats) per_domain));
    connections; handoffs = sum (fun s -> s.migrated_out);
    self_handoffs = sum (fun s -> s.self_handoffs);
    forwarded = sum (fun s -> s.forwarded_out);
    flushes = sum (fun s -> s.flushes); elapsed_s;
    packets_per_s =
      (if elapsed_s > 0.0 then float_of_int delivered /. elapsed_s else 0.0);
    stages }

let violations (r : result) =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let sum f = Array.fold_left (fun acc dr -> acc + f dr) 0 r.per_domain in
  let offered = sum (fun dr -> dr.steered + dr.rejected + dr.dropped_full) in
  if offered <> r.total then
    add "offered %d <> steered+rejected+dropped %d" r.total offered;
  Array.iter
    (fun dr ->
      if dr.unclassified <> 0 then
        add "domain %d: %d unclassified datagrams" dr.index dr.unclassified;
      if dr.leftover <> 0 then
        add "domain %d: %d buffered datagrams never flushed" dr.index
          dr.leftover;
      let consumed =
        dr.processed + dr.forwarded_out + dr.unclassified + dr.leftover
      in
      if dr.steered <> consumed then
        add "domain %d: steered %d <> consumed %d" dr.index dr.steered
          consumed)
    r.per_domain;
  let fwd_in = sum (fun dr -> dr.forwarded_in) in
  if r.forwarded <> fwd_in then
    add "forwarded out %d <> forwarded in %d" r.forwarded fwd_in;
  let adopted = sum (fun dr -> dr.adopted) in
  if r.handoffs <> adopted then
    add "handoffs %d <> adoptions %d" r.handoffs adopted;
  if r.flushes <> r.handoffs then
    add "flushes %d <> handoffs %d" r.flushes r.handoffs;
  let processed_once =
    sum (fun dr -> dr.processed + dr.forwarded_in)
    + sum (fun dr -> dr.rejected + dr.dropped_full)
    + sum (fun dr -> dr.unclassified + dr.leftover)
  in
  if processed_once <> r.total then
    add "exactly-once ledger %d <> total %d" processed_once r.total;
  List.rev !v

let register_obs ?(prefix = "smp") (r : result) obs =
  let name n = prefix ^ "." ^ n in
  let counter n help value =
    Obs.Registry.register_counter obs ~help ~name:(name n) (fun () -> value)
  in
  counter "total" "datagrams offered to the pipeline" r.total;
  counter "handoffs" "connections migrated across cores" r.handoffs;
  counter "self_handoffs" "extract+adopt against the same core"
    r.self_handoffs;
  counter "forwarded" "straggler segments forwarded over peer rings"
    r.forwarded;
  counter "flushes" "flush messages completing a handoff" r.flushes;
  Obs.Registry.register_gauge obs ~units:"pkts/s"
    ~help:"end-to-end delivered datagrams per second"
    ~name:(name "packets_per_s")
    (fun () -> r.packets_per_s);
  Obs.Registry.register_gauge obs ~units:"s" ~help:"wall-clock run time"
    ~name:(name "elapsed")
    (fun () -> r.elapsed_s);
  Array.iter
    (fun dr ->
      let dn n = Printf.sprintf "d%d.%s" dr.index n in
      counter (dn "steered") "datagrams steered to this domain" dr.steered;
      counter (dn "processed") "datagrams processed by this domain"
        dr.processed;
      counter (dn "forwarded_in") "stragglers processed via peer ring"
        dr.forwarded_in;
      counter (dn "rejected") "datagrams refused at dispatch" dr.rejected;
      counter (dn "dropped_full") "datagrams dropped on a full ring"
        dr.dropped_full;
      counter (dn "adopted") "connections adopted" dr.adopted;
      counter (dn "connections") "resident connections at end"
        dr.connections)
    r.per_domain;
  List.iter
    (fun (stage, h) ->
      let into =
        Obs.Registry.histogram obs ~units:"ns"
          ~help:(stage ^ " stage latency")
          (name ("stage." ^ stage))
      in
      Obs.Histogram.merge_into ~into h)
    r.stages

let pp ppf (r : result) =
  Format.fprintf ppf
    "@[<v>%d domains: %d datagrams in %.3f s = %.0f pkts/s@,\
     %d handoffs (%d self), %d forwarded, %d flushes@]" r.domains r.total
    r.elapsed_s r.packets_per_s r.handoffs r.self_handoffs r.forwarded
    r.flushes;
  Array.iter
    (fun dr ->
      Format.fprintf ppf
        "@,  d%d: steered %d processed %d fwd-in %d fwd-out %d adopted %d \
         conns %d tx %d%s"
        dr.index dr.steered dr.processed dr.forwarded_in dr.forwarded_out
        dr.adopted dr.connections dr.tx
        (match dr.tier with
        | Some t -> Printf.sprintf " tier %s" t
        | None -> ""))
    r.per_domain;
  List.iter
    (fun (stage, h) ->
      if not (Obs.Histogram.is_empty h) then
        Format.fprintf ppf "@,  stage %-7s p50 %6d ns  p99 %7d ns  (%d)"
          stage (Obs.Histogram.p50 h) (Obs.Histogram.p99 h)
          (Obs.Histogram.count h))
    r.stages
