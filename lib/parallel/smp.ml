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
}

let config ?(ring_capacity = 1024)
    ?(demux =
      Demux.Registry.Sequent
        { chains = Demux.Sequent.default_chains;
          hasher = Hashing.Hashers.multiplicative })
    ?(migrate = false) ?migrate_target ?(on_data = fun _ _ _ -> ()) ?pressure
    ?(on_pressure = fun _ -> ()) ~domains ~local_addr () =
  if domains <= 0 then invalid_arg "Smp.config: domains <= 0";
  if ring_capacity <= 0 then invalid_arg "Smp.config: ring_capacity <= 0";
  (match migrate_target with
  | Some t when not migrate ->
    invalid_arg
      (Printf.sprintf "Smp.config: migrate_target %d without migrate" t)
  | Some t when t < 0 || t >= domains ->
    invalid_arg "Smp.config: migrate_target outside [0, domains)"
  | _ -> ());
  { domains; ring_capacity; demux; migrate; migrate_target; local_addr;
    on_data; pressure; on_pressure }

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
  adopted : int;
  migrated_out : int;
  self_handoffs : int;
  flushes : int;
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
  held : int;
  flushes : int;
  unreleased : int;
  elapsed_s : float;
  packets_per_s : float;
}

(* Everything a worker pops off its one ring, the dispatcher its only
   producer.  [Batch] carries trace datagrams, in steering order.
   [Flush] goes onto ring 0 once the flow is held: "every datagram of
   this flow routed here precedes this message".  [Adopt] goes onto
   ring k ahead of every datagram of the flow routed there. *)
type msg =
  | Batch of bytes array
  | Flush of Packet.Flow.t
  | Adopt of Tcpcore.Stack.connection

(* What the listener core sends the dispatcher over the control ring:
   a handshake completed on this flow, and the answer to its [Flush],
   the connection and its core, or none if it closed meanwhile. *)
type ctrl =
  | Migrate of Packet.Flow.t
  | Extracted of Packet.Flow.t * (int * Tcpcore.Stack.connection) option

(* A flow's entry in the dispatcher's route map; a flow without one
   goes to the listener core.  [Held] keeps its datagrams, in arrival
   order, from its [Migrate] until the answer to its [Flush]. *)
type route = Routed of int | Held of bytes Queue.t

(* The whole life of one worker domain: build a private stack, drain
   its ring until closed and empty, summarize.  The summary crosses
   back through [Domain.join]; the stack itself never leaves its
   domain.  The dispatcher's fields ([steered], [rejected],
   [dropped_full]) and the pressure fields are left empty for [run] to
   fill.  The listener core of a migrating run sends over [ctrl], and
   after each message it has finished, control sends included, adds
   the datagrams it carried to [finished] (one for a [Flush]). *)
let worker (cfg : config) ~index ~ring ~ctrl ~finished ~pressure () =
  let stack =
    Tcpcore.Stack.create ~demux:cfg.demux
      ~iss:Tcpcore.Stack.deterministic_iss ~local_addr:cfg.local_addr ()
  in
  Tcpcore.Stack.listen stack ~port:listen_port ~on_data:cfg.on_data;
  (match pressure with
  | Some p ->
    Tcpcore.Stack.set_overload_probe stack (fun () -> Pressure.tier p)
  | None -> ());
  let processed = ref 0
  and adopted = ref 0
  and migrated_out = ref 0
  and self_handoffs = ref 0
  and flushes = ref 0
  and tx = ref 0 in
  let drain_tx () =
    tx := !tx + List.length (Tcpcore.Stack.poll_output stack)
  in
  let listener = cfg.migrate && index = 0 in
  let pending_migration = Queue.create () in
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
  if listener then
    Tcpcore.Stack.set_on_established stack
      (Some
         (fun _ conn ->
           Queue.add conn.Tcpcore.Stack.flow pending_migration));
  (* The hook must not reenter the stack, so handoffs start here, after
     [handle_bytes] has returned: a self-handoff at once, any other by
     asking the dispatcher to hold the flow. *)
  let process_migrations () =
    while not (Queue.is_empty pending_migration) do
      let flow = Queue.pop pending_migration in
      if target_of flow <> index then Ring.push ctrl (Migrate flow)
      else
        Option.iter
          (fun conn ->
            Tcpcore.Stack.adopt_connection stack conn;
            incr self_handoffs)
          (Tcpcore.Stack.extract_connection stack flow)
    done
  in
  let feed bytes =
    incr processed;
    ignore (Tcpcore.Stack.handle_bytes stack bytes);
    if listener then process_migrations ();
    drain_tx ()
  in
  let handle = function
    | Batch ds -> Array.iter feed ds
    | Flush flow ->
      (* Every datagram of the flow routed here has been handled. *)
      incr flushes;
      let moved =
        Option.map
          (fun conn ->
            incr migrated_out;
            (target_of flow, conn))
          (Tcpcore.Stack.extract_connection stack flow)
      in
      Ring.push ctrl (Extracted (flow, moved))
    | Adopt conn ->
      Tcpcore.Stack.adopt_connection stack conn;
      incr adopted
  in
  (* Shutdown counts datagrams: a batch finishes all of its own. *)
  Ring.drain ring
    (if listener then (fun m ->
       handle m;
       let n = match m with Batch ds -> Array.length ds | _ -> 1 in
       ignore (Atomic.fetch_and_add finished n))
     else handle);
  let connections = ref [] in
  Tcpcore.Stack.iter_connections stack (fun c ->
      connections :=
        { flow = c.Tcpcore.Stack.flow; state = c.state;
          bytes_in = c.bytes_in; bytes_out = c.bytes_out;
          snd_nxt = c.snd_nxt; rcv_nxt = c.rcv_nxt; snd_una = c.snd_una }
        :: !connections);
  ( { index; steered = 0; rejected = 0; dropped_full = 0;
      processed = !processed; adopted = !adopted;
      migrated_out = !migrated_out; self_handoffs = !self_handoffs;
      flushes = !flushes; tx = !tx;
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

(* Chain-affine steering, from the flow words read in place. *)
let steer (cfg : config) =
  let chains, hasher = Demux.Registry.chain_geometry cfg.demux in
  fun bytes ->
    let tcp = Packet.Segment.peek_tcp bytes ~off:0 in
    if tcp < 0 then 0
    else
      Hashing.Hashers.bucket_words hasher ~buckets:chains
        (Packet.Segment.peek_w0 bytes ~off:0 ~tcp)
        (Packet.Segment.peek_w1 bytes ~off:0 ~tcp)
      mod cfg.domains

(* The most datagrams one ring message carries. *)
let max_batch = 32

let run (cfg : config) datagrams =
  let total = Array.length datagrams in
  if total = 0 then invalid_arg "Smp.run: empty trace";
  let d = cfg.domains in
  (* A batch goes onto a ring only while it holds fewer than [slots]
     messages, so at most [ring_capacity] datagrams are queued there;
     handoff messages may use the rest of the ring. *)
  let batch = min max_batch cfg.ring_capacity in
  let slots = cfg.ring_capacity / batch in
  let rings =
    Array.init d (fun _ -> Ring.create ~capacity:cfg.ring_capacity)
  in
  let ctrl = Ring.create ~capacity:256 in
  let finished = Atomic.make 0 in
  let controllers =
    Option.map
      (fun pc -> Array.init d (fun _ -> Pressure.create ~config:pc ()))
      cfg.pressure
  in
  (match controllers with Some cs -> cfg.on_pressure cs | None -> ());
  let pressure =
    Array.init d (fun k -> Option.map (fun cs -> cs.(k)) controllers)
  in
  let started = Obs.Clock.now_ns () in
  let workers =
    Array.init d (fun k ->
        Domain.spawn (fun () ->
            worker cfg ~index:k ~ring:rings.(k) ~ctrl ~finished
              ~pressure:pressure.(k) ()))
  in
  (* Dispatcher state.  The route map is private to this domain, keyed
     by flow words, and holds all handoff state.  [relay] holds control
     messages popped but not yet acted on: a push that spins pops the
     control ring into it, and never pushes, so nothing overtakes the
     value it is blocked on. *)
  let route = Demux.Flat_table.create () in
  let relay = Queue.create () in
  let steered = Array.make d 0
  and rejected = Array.make d 0
  and dropped = Array.make d 0
  and held = ref 0
  and flushes = ref 0 in
  let poll_ctrl () =
    let rec go () =
      match Ring.try_pop ctrl with
      | Some m ->
        Queue.add m relay;
        go ()
      | None -> ()
    in
    go ()
  in
  let spin = if cfg.migrate then Some poll_ctrl else None in
  (* Every batch meets the tier policy whole, and every datagram in it
     is counted. *)
  let ship w items fill =
    match
      Dispatcher.offer ?pressure:pressure.(w) ?spin ~limit:slots rings.(w)
        (Batch (Array.sub items 0 fill)) ~packets:fill
    with
    | Shipped -> steered.(w) <- steered.(w) + fill
    | Rejected -> rejected.(w) <- rejected.(w) + fill
    | Dropped -> dropped.(w) <- dropped.(w) + fill
  in
  let staging = Dispatcher.staging ~targets:d ~batch ~ship in
  let stage w bytes =
    (* The controller samples the ring at every datagram, as it would
       if each travelled alone. *)
    (match pressure.(w) with
    | Some p ->
      Pressure.note_ring_depth p ~depth:(Ring.length rings.(w))
        ~capacity:slots
    | None -> ());
    Dispatcher.stage staging ~target:w bytes
  in
  (* Runs between datagrams only, and ships ring k's partial batch
     before anything else goes onto ring k, so ring order is steering
     order. *)
  let push k m =
    Dispatcher.flush staging k;
    Ring.push ?spin rings.(k) m
  in
  let words flow = (Packet.Flow.w0 flow, Packet.Flow.w1 flow) in
  let hold_of ~w0 ~w1 =
    match Demux.Flat_table.find_opt route ~w0 ~w1 with
    | Some (Held q) -> Some q
    | Some (Routed _) | None -> None
  in
  (* A held flow's datagrams go to core k in arrival order, shipped at
     once: shutdown counts only what has shipped. *)
  let release k q =
    Queue.iter (stage k) q;
    Dispatcher.flush staging k
  in
  (* [Flush] follows on ring 0 every datagram of the flow steered there
     before its hold.  [Adopt] goes onto ring k before the held
     datagrams and before the route change, so it precedes every
     datagram of the flow on ring k.  A flow whose connection closed
     meanwhile goes back to the listener core. *)
  let relay_all () =
    while not (Queue.is_empty relay) do
      match Queue.pop relay with
      | Migrate flow ->
        let w0, w1 = words flow in
        if Option.is_none (hold_of ~w0 ~w1) then
          Demux.Flat_table.replace route ~w0 ~w1 (Held (Queue.create ()));
        push 0 (Flush flow);
        incr flushes
      | Extracted (flow, moved) -> (
        let w0, w1 = words flow in
        let hold = hold_of ~w0 ~w1 in
        match (moved, hold) with
        | Some (k, conn), _ ->
          push k (Adopt conn);
          Option.iter (release k) hold;
          Demux.Flat_table.replace route ~w0 ~w1 (Routed k)
        | None, Some q ->
          Demux.Flat_table.remove route ~w0 ~w1;
          release 0 q
        | None, None -> ())
    done
  in
  (* Migrating, a flow without a route goes to the listener core, and
     a held flow's datagram joins its hold: core -1. *)
  let steer =
    if not cfg.migrate then steer cfg
    else fun bytes ->
      let tcp = Packet.Segment.peek_tcp bytes ~off:0 in
      if tcp < 0 then 0
      else
        match
          Demux.Flat_table.find_opt route
            ~w0:(Packet.Segment.peek_w0 bytes ~off:0 ~tcp)
            ~w1:(Packet.Segment.peek_w1 bytes ~off:0 ~tcp)
        with
        | Some (Routed k) -> k
        | Some (Held q) ->
          Queue.add bytes q;
          incr held;
          -1
        | None -> 0
  in
  for i = 0 to total - 1 do
    if cfg.migrate then begin
      poll_ctrl ();
      relay_all ()
    end;
    let bytes = datagrams.(i) in
    let w = steer bytes in
    if w >= 0 then stage w bytes
  done;
  for w = 0 to d - 1 do
    Dispatcher.flush staging w
  done;
  (* Shutdown by count, in datagrams plus [Flush]es.  The listener core
     sends only while it handles a message from ring 0, and counts it
     into [finished] after; once it has finished all that ring 0 was
     given, with the control ring read dry after that and everything
     relayed, no message is left anywhere but on the rings, and closing
     them all is safe. *)
  if cfg.migrate then begin
    let rec settle () =
      poll_ctrl ();
      relay_all ();
      if
        not
          (Atomic.get finished = steered.(0) + !flushes
          && Ring.is_empty ctrl)
      then begin
        Domain.cpu_relax ();
        settle ()
      end
    in
    settle ()
  end;
  Array.iter Ring.close rings;
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
  let delivered = sum (fun s -> s.processed) in
  let connections =
    List.sort
      (fun a b -> Packet.Flow.compare a.flow b.flow)
      (Array.fold_left (fun acc (_, cs) -> List.rev_append cs acc) [] summaries)
  in
  { domains = d; total; per_domain;
    merged_drops =
      merge_counts (Array.to_list (Array.map (fun s -> s.drops) per_domain));
    merged_stats =
      Demux.Lookup_stats.merge_snapshots
        (Array.to_list (Array.map (fun s -> s.stats) per_domain));
    connections; handoffs = sum (fun s -> s.migrated_out);
    self_handoffs = sum (fun s -> s.self_handoffs); held = !held;
    flushes = !flushes;
    unreleased =
      Demux.Flat_table.fold
        (fun ~w0:_ ~w1:_ r n -> match r with Held _ -> n + 1 | Routed _ -> n)
        route 0;
    elapsed_s;
    packets_per_s =
      (if elapsed_s > 0.0 then float_of_int delivered /. elapsed_s else 0.0) }

let violations (r : result) =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  let sum f = Array.fold_left (fun acc dr -> acc + f dr) 0 r.per_domain in
  Array.iter
    (fun dr ->
      if dr.steered <> dr.processed then
        add "domain %d: steered %d <> processed %d" dr.index dr.steered
          dr.processed)
    r.per_domain;
  let offered = sum (fun dr -> dr.steered + dr.rejected + dr.dropped_full) in
  if offered <> r.total then
    add "offered %d <> steered+rejected+dropped %d" r.total offered;
  let adopted = sum (fun dr -> dr.adopted) in
  if r.handoffs <> adopted then
    add "handoffs %d <> adoptions %d" r.handoffs adopted;
  let answered = sum (fun dr -> dr.flushes) in
  if r.flushes <> answered then
    add "flushes %d <> answered %d" r.flushes answered;
  if r.unreleased <> 0 then add "%d flows still held at shutdown" r.unreleased;
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
  counter "held" "datagrams held by the dispatcher while their flow moved"
    r.held;
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
      counter (dn "rejected") "datagrams refused at dispatch" dr.rejected;
      counter (dn "dropped_full") "datagrams dropped on a full ring"
        dr.dropped_full;
      counter (dn "adopted") "connections adopted" dr.adopted;
      counter (dn "connections") "resident connections at end"
        dr.connections)
    r.per_domain

let pp ppf (r : result) =
  Format.fprintf ppf
    "@[<v>%d domains: %d datagrams in %.3f s = %.0f pkts/s@,\
     %d handoffs (%d self), %d held, %d flushes@]" r.domains r.total
    r.elapsed_s r.packets_per_s r.handoffs r.self_handoffs r.held r.flushes;
  Array.iter
    (fun dr ->
      Format.fprintf ppf
        "@,  d%d: steered %d processed %d adopted %d conns %d tx %d%s"
        dr.index dr.steered dr.processed dr.adopted dr.connections dr.tx
        (match dr.tier with
        | Some t -> Printf.sprintf " tier %s" t
        | None -> ""))
    r.per_domain
