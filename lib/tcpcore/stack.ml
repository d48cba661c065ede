(* Event logging: quiet by default; enable with
   Logs.Src.set_level Stack.log_src (Some Logs.Debug). *)
let log_src = Logs.Src.create "tcpdemux.stack" ~doc:"TCP stack events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type connection = {
  flow : Packet.Flow.t;
  mutable state : State.t;
  mutable snd_nxt : int32;
  mutable rcv_nxt : int32;
  mutable snd_una : int32;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable unacked : (int32 * Packet.Segment.t) list;
      (* retransmission queue: (first sequence number, segment),
         oldest first *)
  mutable ack_pending : bool;
}

(* The stack-side view of pipeline overload.  Mirrors the tiers of the
   parallel pipeline's pressure controller without depending on it: the
   integration layer bridges the two with a closure
   ([set_overload_probe]), keeping tcpcore free of any domain/threading
   dependency. *)
type overload_tier = Normal | Shed_new_flows | Drop_batches | Reject

type listener = { on_data : t -> connection -> string -> unit }

and timer_event =
  | Reap_time_wait of connection
  | Retransmit of connection * int32 * int  (* attempt number, from 1 *)
  | Delayed_ack of connection

and drop_counters = {
  mutable parse_error : int;    (* malformed or checksum-failing bytes *)
  mutable wrong_destination : int;  (* well-formed but not addressed to us *)
  mutable handler_error : int;  (* segment processing raised; datagram shed *)
  mutable overload_shed_new_flow : int;  (* SYNs refused at Shed_new_flows *)
  mutable overload_drop_batch : int;  (* non-established shed at Drop_batches *)
  mutable overload_reject : int;  (* datagrams refused outright at Reject *)
}

and t = {
  local_addr : Packet.Ipv4.addr;
  mutable tracer : Obs.Trace.t;  (* Drop events; disabled by default. *)
  table : (connection, listener) Conn_table.t;
  mutable outbox : Packet.Segment.t list;  (* newest first; reversed on drain *)
  mutable next_iss : int32;
  iss_for : (Packet.Flow.t -> int32) option;
  mutable on_established : (t -> connection -> unit) option;
  (* Per-stage latency histograms (parse / demux / state), off by
     default: the receive path reads the clock only when attached. *)
  mutable stage_parse : Obs.Histogram.t option;
  mutable stage_demux : Obs.Histogram.t option;
  mutable stage_state : Obs.Histogram.t option;
  mutable segments_sent : int;
  mutable rsts_sent : int;
  mutable retransmissions : int;
  drops : drop_counters;
  time_wait_timeout : float;
  retransmit_timeout : float;
  max_retransmits : int;
  rto_jitter : bool;
  rto_rng : Numerics.Rng.t;
  delayed_acks : bool;
  delayed_ack_timeout : float;
  mutable overload_probe : unit -> overload_tier;
  wheel : timer_event Timer_wheel.t;
  time_wait_timers : Timer_wheel.timer Demux.Flow_table.t;
}

(* Sequence-number comparison with wraparound: a < b iff the signed
   32-bit difference is negative (RFC 793 window arithmetic). *)
let seq_lt a b = Int32.compare (Int32.sub a b) 0l < 0
let seq_leq a b = Int32.compare (Int32.sub a b) 0l <= 0

let create ?(demux =
             Demux.Registry.Sequent
               { chains = Demux.Sequent.default_chains;
                 hasher = Hashing.Hashers.multiplicative })
    ?(time_wait_timeout = 60.0) ?(retransmit_timeout = 1.0)
    ?(max_retransmits = 12) ?(rto_jitter = true) ?(rto_seed = 0x52544f)
    ?(delayed_acks = false) ?(delayed_ack_timeout = 0.2) ?iss ~local_addr () =
  if time_wait_timeout <= 0.0 then
    invalid_arg "Stack.create: time_wait_timeout <= 0";
  if retransmit_timeout <= 0.0 then
    invalid_arg "Stack.create: retransmit_timeout <= 0";
  if delayed_ack_timeout <= 0.0 then
    invalid_arg "Stack.create: delayed_ack_timeout <= 0";
  { local_addr; tracer = Obs.Trace.disabled;
    table = Conn_table.create demux; outbox = [];
    next_iss = 1000l; iss_for = iss; on_established = None;
    stage_parse = None; stage_demux = None; stage_state = None;
    segments_sent = 0; rsts_sent = 0; retransmissions = 0;
    drops =
      { parse_error = 0; wrong_destination = 0; handler_error = 0;
        overload_shed_new_flow = 0; overload_drop_batch = 0;
        overload_reject = 0 };
    time_wait_timeout; retransmit_timeout; max_retransmits;
    rto_jitter; rto_rng = Numerics.Rng.create ~seed:rto_seed;
    delayed_acks; delayed_ack_timeout;
    overload_probe = (fun () -> Normal);
    wheel = Timer_wheel.create ~tick:0.25 ();
    time_wait_timers = Demux.Flow_table.create 16 }

let set_overload_probe t probe = t.overload_probe <- probe
let set_on_established t hook = t.on_established <- hook

let set_stage_histograms t ~parse ~demux ~state =
  t.stage_parse <- parse;
  t.stage_demux <- demux;
  t.stage_state <- state

let local_addr t = t.local_addr

let fresh_iss t flow =
  match t.iss_for with
  | Some f -> f flow
  | None ->
    let iss = t.next_iss in
    (* Deterministic, well-spaced initial sequence numbers. *)
    t.next_iss <- Int32.add t.next_iss 64000l;
    iss

(* A per-flow ISS in the spirit of RFC 6528 minus the secret and the
   clock: a fixed mix of the 4-tuple.  What matters here is not
   off-path attack resistance but that a connection's ISS no longer
   depends on {e accept order}, so N per-core stacks accepting the
   same flows in any interleaving produce bit-identical sequence
   state — the property the cross-core lockstep tests pin. *)
let deterministic_iss flow =
  let word (ep : Packet.Flow.endpoint) =
    ((Int32.to_int (Packet.Ipv4.addr_to_int32 ep.Packet.Flow.addr)
      land 0xFFFFFFFF)
     lsl 16)
    lor ep.Packet.Flow.port
  in
  let mix h v =
    let h = (h lxor v) * 0x9E3779B1 in
    h lxor (h lsr 29)
  in
  let h =
    mix (mix 0x69737321 (word flow.Packet.Flow.local))
      (word flow.Packet.Flow.remote)
  in
  Int32.of_int (h land 0x3FFFFFFF)

let transmit t segment flow =
  t.outbox <- segment :: t.outbox;
  t.segments_sent <- t.segments_sent + 1;
  Conn_table.note_send t.table flow

let emit t ?(payload = "") ~flow ~flags ~seq ~ack_number () =
  let segment =
    Packet.Segment.make ~seq ~ack_number ~flags ~payload
      ~src:flow.Packet.Flow.local ~dst:flow.Packet.Flow.remote ()
  in
  transmit t segment flow;
  segment

(* Exponential RTO backoff: attempt [n] waits [2^(n-1)] base timeouts,
   capped at 64x (RFC 6298's doubling with BSD's traditional cap), so
   a peer that never acknowledges — or an induced-loss fault plan —
   cannot make the stack hammer the network at a constant rate.

   With [rto_jitter] (the default), the capped delay is full-jittered:
   attempt [n] waits [base + u * (capped - base)] for a fresh uniform
   [u], i.e. anywhere in [[base, capped]].  Without jitter, every host
   that lost the same burst retransmits on the same schedule, and the
   synchronized retry wave re-creates the overload that caused the
   loss; jittered, the wave decorrelates while the mean backoff still
   grows exponentially.  Draws come from the stack's own seeded
   generator, so a given stack's delay sequence is reproducible. *)
let rto_for_attempt t attempt =
  let capped = t.retransmit_timeout *. Float.of_int (1 lsl min 6 (attempt - 1)) in
  if (not t.rto_jitter) || attempt <= 1 then capped
  else
    t.retransmit_timeout
    +. (Numerics.Rng.float t.rto_rng *. (capped -. t.retransmit_timeout))

(* Queue a sequence-space-consuming segment (SYN, FIN or data) for
   retransmission and arm its RTO timer. *)
let emit_reliable t conn ?payload ~flags ~seq ~ack_number () =
  let segment = emit t ?payload ~flow:conn.flow ~flags ~seq ~ack_number () in
  conn.unacked <- conn.unacked @ [ (seq, segment) ];
  ignore
    (Timer_wheel.schedule t.wheel ~delay:(rto_for_attempt t 1)
       (Retransmit (conn, seq, 1)))

let emit_rst t ~flow ~seq ~ack_number =
  (* No PCB exists for this flow, so no transmit-side bookkeeping. *)
  let segment =
    Packet.Segment.make ~seq ~ack_number ~flags:Packet.Tcp_header.flag_rst
      ~src:flow.Packet.Flow.local ~dst:flow.Packet.Flow.remote ()
  in
  t.outbox <- segment :: t.outbox;
  t.segments_sent <- t.segments_sent + 1;
  t.rsts_sent <- t.rsts_sent + 1

let ack_now t conn =
  conn.ack_pending <- false;
  ignore
    (emit t ~flow:conn.flow ~flags:Packet.Tcp_header.flag_ack ~seq:conn.snd_nxt
       ~ack_number:conn.rcv_nxt ())

(* RFC 1122 delayed acknowledgement: ack every second data segment, or
   after delayed_ack_timeout, whichever comes first.  Sending data
   also piggybacks the ack (emit always carries rcv_nxt), which is the
   case the paper's footnote 2 describes. *)
let ack_data t conn =
  if not t.delayed_acks then ack_now t conn
  else if conn.ack_pending then ack_now t conn (* second segment: ack now *)
  else begin
    conn.ack_pending <- true;
    ignore
      (Timer_wheel.schedule t.wheel ~delay:t.delayed_ack_timeout
         (Delayed_ack conn))
  end

let listen t ~port ~on_data = Conn_table.listen t.table ~port { on_data }

let connect t ~local_port ~remote =
  let local = Packet.Flow.endpoint t.local_addr local_port in
  let flow = Packet.Flow.v ~local ~remote in
  let iss = fresh_iss t flow in
  let conn =
    { flow; state = State.Syn_sent; snd_nxt = Int32.add iss 1l;
      rcv_nxt = 0l; snd_una = iss; bytes_in = 0; bytes_out = 0; unacked = [];
      ack_pending = false }
  in
  ignore (Conn_table.add_connection t.table flow conn);
  emit_reliable t conn ~flags:Packet.Tcp_header.flag_syn ~seq:iss
    ~ack_number:0l ();
  conn

let send t conn payload =
  (match conn.state with
  | State.Established | State.Close_wait -> ()
  | state ->
    invalid_arg
      (Printf.sprintf "Stack.send: cannot send in %s" (State.to_string state)));
  conn.ack_pending <- false (* the data segment carries the ack *);
  emit_reliable t conn ~payload ~flags:Packet.Tcp_header.flag_psh_ack
    ~seq:conn.snd_nxt ~ack_number:conn.rcv_nxt ();
  conn.snd_nxt <- Int32.add conn.snd_nxt (Int32.of_int (String.length payload));
  conn.bytes_out <- conn.bytes_out + String.length payload

let close t conn =
  match State.transition conn.state State.Close with
  | None ->
    invalid_arg
      (Printf.sprintf "Stack.close: cannot close from %s"
         (State.to_string conn.state))
  | Some next ->
    emit_reliable t conn ~flags:Packet.Tcp_header.flag_fin_ack
      ~seq:conn.snd_nxt ~ack_number:conn.rcv_nxt ();
    conn.snd_nxt <- Int32.add conn.snd_nxt 1l (* FIN occupies a sequence slot *);
    conn.state <- next

let drop_connection t conn =
  Log.debug (fun m -> m "drop %s" (Packet.Flow.to_string conn.flow));
  conn.state <- State.Closed;
  conn.unacked <- [];
  (match Demux.Flow_table.find_opt t.time_wait_timers conn.flow with
  | Some timer ->
    ignore (Timer_wheel.cancel t.wheel timer);
    Demux.Flow_table.remove t.time_wait_timers conn.flow
  | None -> ());
  ignore (Conn_table.remove_connection t.table conn.flow)

(* Arm the 2MSL timer the first time a connection is seen in
   TIME-WAIT; re-arming on retransmitted FINs is harmless but
   wasteful, so membership is checked. *)
let maybe_arm_time_wait t conn =
  if
    State.equal conn.state State.Time_wait
    && not (Demux.Flow_table.mem t.time_wait_timers conn.flow)
  then begin
    let timer =
      Timer_wheel.schedule t.wheel ~delay:t.time_wait_timeout
        (Reap_time_wait conn)
    in
    Demux.Flow_table.replace t.time_wait_timers conn.flow timer
  end

(* ------------------------------------------------------------------ *)
(* Flow migration (shared-nothing handoff between per-core stacks)     *)

let extract_connection t flow =
  (* Removal goes through the registry's unmetered maintenance path
     (note_remove accounting, no examined charges) — the same table op
     a protocol close performs. *)
  match (Conn_table.demux t.table).Demux.Registry.remove flow with
  | None -> None
  | Some pcb ->
    let conn = pcb.Demux.Pcb.data in
    (match Demux.Flow_table.find_opt t.time_wait_timers flow with
    | Some timer ->
      ignore (Timer_wheel.cancel t.wheel timer);
      Demux.Flow_table.remove t.time_wait_timers flow
    | None -> ());
    (* Ship a fresh record and neutralize the original.  Pending wheel
       entries (RTO, delayed ack) still reference the original, and
       every timer path is a no-op on a Closed connection with an
       empty retransmission queue — so no timer on this stack can ever
       touch state that now lives on another domain. *)
    let copy =
      { flow = conn.flow; state = conn.state; snd_nxt = conn.snd_nxt;
        rcv_nxt = conn.rcv_nxt; snd_una = conn.snd_una;
        bytes_in = conn.bytes_in; bytes_out = conn.bytes_out;
        unacked = conn.unacked; ack_pending = conn.ack_pending }
    in
    conn.state <- State.Closed;
    conn.unacked <- [];
    conn.ack_pending <- false;
    Some copy

let adopt_connection t conn =
  if
    not
      (Packet.Ipv4.equal_addr conn.flow.Packet.Flow.local.Packet.Flow.addr
         t.local_addr)
  then invalid_arg "Stack.adopt_connection: flow is not addressed to this host";
  if State.equal conn.state State.Closed then
    invalid_arg "Stack.adopt_connection: connection is closed";
  ignore (Conn_table.add_connection t.table conn.flow conn);
  maybe_arm_time_wait t conn;
  (* Anything still unacknowledged gets a fresh first-attempt RTO on
     this stack's wheel (attempt 1 never consumes a jitter draw, so
     adoption stays deterministic). *)
  List.iter
    (fun (seq, _) ->
      ignore
        (Timer_wheel.schedule t.wheel ~delay:(rto_for_attempt t 1)
           (Retransmit (conn, seq, 1))))
    conn.unacked

(* Retransmission bookkeeping.  An arriving ACK advances snd_una and
   releases fully acknowledged segments from the queue; an expired RTO
   re-emits the oldest unacknowledged segment and re-arms. *)
let note_ack conn ack_number =
  if seq_lt conn.snd_una ack_number && seq_leq ack_number conn.snd_nxt then begin
    conn.snd_una <- ack_number;
    conn.unacked <-
      List.filter
        (fun (seq, segment) ->
          let consumed =
            let tcp = segment.Packet.Segment.tcp in
            String.length segment.Packet.Segment.payload
            + (if tcp.Packet.Tcp_header.flags.Packet.Tcp_header.syn then 1 else 0)
            + if tcp.Packet.Tcp_header.flags.Packet.Tcp_header.fin then 1 else 0
          in
          seq_lt ack_number (Int32.add seq (Int32.of_int consumed)))
        conn.unacked
  end

let handle_retransmit t conn seq attempt =
  if
    (not (State.equal conn.state State.Closed))
    && List.mem_assoc seq conn.unacked
    && attempt <= t.max_retransmits
    && t.retransmissions < t.max_retransmits * 64
    (* circuit breaker against pathological never-acked loops *)
  then begin
    let segment = List.assoc seq conn.unacked in
    Log.debug (fun m ->
        m "retransmit seq=%ld attempt=%d on %s" seq attempt
          (Packet.Flow.to_string conn.flow));
    t.retransmissions <- t.retransmissions + 1;
    transmit t segment conn.flow;
    ignore
      (Timer_wheel.schedule t.wheel
         ~delay:(rto_for_attempt t (attempt + 1))
         (Retransmit (conn, seq, attempt + 1)));
    true
  end
  else false

let advance_clock t ~now =
  let fired = Timer_wheel.advance t.wheel ~now in
  List.fold_left
    (fun actions (_, event) ->
      match event with
      | Reap_time_wait conn ->
        Demux.Flow_table.remove t.time_wait_timers conn.flow;
        if State.equal conn.state State.Time_wait then begin
          drop_connection t conn;
          actions + 1
        end
        else actions
      | Retransmit (conn, seq, attempt) ->
        if handle_retransmit t conn seq attempt then actions + 1 else actions
      | Delayed_ack conn ->
        if conn.ack_pending && not (State.equal conn.state State.Closed)
        then begin
          ack_now t conn;
          actions + 1
        end
        else actions)
    0 fired

let pending_time_wait t = Demux.Flow_table.length t.time_wait_timers

let expire_time_wait t conn =
  match State.transition conn.state State.Time_wait_expired with
  | Some State.Closed -> drop_connection t conn
  | Some _ | None ->
    invalid_arg "Stack.expire_time_wait: connection not in TIME-WAIT"

let connection_of_flow t flow =
  (* Maintenance-path lookup: walk the unmetered application view. *)
  let found = ref None in
  (Conn_table.demux t.table).Demux.Registry.iter (fun pcb ->
      if Packet.Flow.equal pcb.Demux.Pcb.flow flow then
        found := Some pcb.Demux.Pcb.data);
  !found

let iter_connections t f =
  (Conn_table.demux t.table).Demux.Registry.iter (fun pcb ->
      f pcb.Demux.Pcb.data)

let connection_count t = Conn_table.connections t.table
let demux_stats t = (Conn_table.demux t.table).Demux.Registry.stats
let segments_sent t = t.segments_sent
let rsts_sent t = t.rsts_sent
let retransmissions t = t.retransmissions

let poll_output t =
  let queued = List.rev t.outbox in
  t.outbox <- [];
  queued

let apply_transition conn event =
  match State.transition conn.state event with
  | Some next ->
    conn.state <- next;
    true
  | None -> false

let deliver_data t conn (segment : Packet.Segment.t) =
  let payload = segment.Packet.Segment.payload in
  let seq = segment.Packet.Segment.tcp.Packet.Tcp_header.seq in
  if String.length payload > 0 then
    if Int32.equal seq conn.rcv_nxt then begin
      conn.rcv_nxt <-
        Int32.add conn.rcv_nxt (Int32.of_int (String.length payload));
      conn.bytes_in <- conn.bytes_in + String.length payload;
      ack_data t conn;
      match
        Conn_table.listener ~addr:conn.flow.Packet.Flow.local.Packet.Flow.addr
          t.table ~port:conn.flow.Packet.Flow.local.Packet.Flow.port
      with
      | Some { on_data } -> on_data t conn payload
      | None -> ()
    end
    else
      (* Out of order: re-assert what we expect (duplicate ACK). *)
      ack_now t conn

let handle_established t conn (segment : Packet.Segment.t) =
  let flags = segment.Packet.Segment.tcp.Packet.Tcp_header.flags in
  deliver_data t conn segment;
  if flags.Packet.Tcp_header.fin then begin
    conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
    ignore (apply_transition conn State.Rcv_fin);
    ack_now t conn
  end

let acks_our_fin conn (tcp : Packet.Tcp_header.t) =
  tcp.Packet.Tcp_header.flags.Packet.Tcp_header.ack
  && Int32.equal tcp.Packet.Tcp_header.ack_number conn.snd_nxt

let handle_closing_states t conn (segment : Packet.Segment.t) =
  let tcp = segment.Packet.Segment.tcp in
  let flags = tcp.Packet.Tcp_header.flags in
  match conn.state with
  | State.Fin_wait_1 ->
    if flags.Packet.Tcp_header.fin && acks_our_fin conn tcp then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin_ack);
      ack_now t conn
    end
    else if flags.Packet.Tcp_header.fin then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin);
      ack_now t conn
    end
    else if acks_our_fin conn tcp then
      ignore (apply_transition conn State.Rcv_ack)
    else deliver_data t conn segment
  | State.Fin_wait_2 ->
    if flags.Packet.Tcp_header.fin then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin);
      ack_now t conn
    end
    else deliver_data t conn segment
  | State.Closing ->
    if acks_our_fin conn tcp then ignore (apply_transition conn State.Rcv_ack)
  | State.Last_ack ->
    if acks_our_fin conn tcp then begin
      ignore (apply_transition conn State.Rcv_ack);
      drop_connection t conn
    end
  | State.Time_wait ->
    (* Retransmitted FIN: re-acknowledge. *)
    if flags.Packet.Tcp_header.fin then ack_now t conn
  | State.Closed | State.Listen | State.Syn_sent | State.Syn_received
  | State.Established | State.Close_wait ->
    ()

let handle_connection t conn (segment : Packet.Segment.t) =
  let tcp = segment.Packet.Segment.tcp in
  let flags = tcp.Packet.Tcp_header.flags in
  if flags.Packet.Tcp_header.ack && not flags.Packet.Tcp_header.rst then
    note_ack conn tcp.Packet.Tcp_header.ack_number;
  if flags.Packet.Tcp_header.rst then begin
    ignore (apply_transition conn State.Rcv_rst);
    drop_connection t conn
  end
  else
    match conn.state with
    | State.Syn_sent ->
      if flags.Packet.Tcp_header.syn && flags.Packet.Tcp_header.ack then begin
        conn.rcv_nxt <- Int32.add tcp.Packet.Tcp_header.seq 1l;
        ignore (apply_transition conn State.Rcv_syn_ack);
        ack_now t conn
      end
      else if flags.Packet.Tcp_header.syn then begin
        (* Simultaneous open. *)
        conn.rcv_nxt <- Int32.add tcp.Packet.Tcp_header.seq 1l;
        ignore (apply_transition conn State.Rcv_syn);
        ignore
          (emit t ~flow:conn.flow ~flags:Packet.Tcp_header.flag_syn_ack
             ~seq:(Int32.sub conn.snd_nxt 1l) ~ack_number:conn.rcv_nxt ())
      end
    | State.Syn_received ->
      if
        flags.Packet.Tcp_header.ack
        && Int32.equal tcp.Packet.Tcp_header.ack_number conn.snd_nxt
      then begin
        ignore (apply_transition conn State.Rcv_ack);
        (* The handshake ACK may carry data. *)
        handle_established t conn segment;
        (* Accept completion: the passive open reached a synchronized
           state.  Fired after the piggybacked data is delivered, so a
           hook that migrates the connection sees settled state. *)
        match t.on_established with
        | Some hook -> hook t conn
        | None -> ()
      end
    | State.Established | State.Close_wait -> handle_established t conn segment
    | State.Fin_wait_1 | State.Fin_wait_2 | State.Closing | State.Last_ack
    | State.Time_wait ->
      handle_closing_states t conn segment
    | State.Closed | State.Listen -> ()

let accept t flow (tcp : Packet.Tcp_header.t) =
  let iss = fresh_iss t flow in
  let conn =
    { flow; state = State.Syn_received;
      snd_nxt = Int32.add iss 1l;
      rcv_nxt = Int32.add tcp.Packet.Tcp_header.seq 1l;
      snd_una = iss; bytes_in = 0; bytes_out = 0; unacked = [];
      ack_pending = false }
  in
  ignore (Conn_table.add_connection t.table flow conn);
  Log.debug (fun m -> m "accept %s" (Packet.Flow.to_string flow));
  emit_reliable t conn ~flags:Packet.Tcp_header.flag_syn_ack ~seq:iss
    ~ack_number:conn.rcv_nxt ()

(* Overload sheds at segment granularity, attributed to the tier that
   caused them.  Tiers degrade from the edge inward: [Shed_new_flows]
   refuses only listener SYNs (silently — the peer's own RTO retries
   the open once pressure clears; an RST would hard-refuse it);
   [Drop_batches] additionally sheds everything that is not an
   established connection's traffic, including the RST courtesy for
   strays; [Reject] sheds the datagram before any demux work
   ([handle_bytes] short-circuits, and direct [handle_segment] callers
   are shed here). *)
let note_overload_drop t tier len =
  let code =
    match tier with
    | Shed_new_flows ->
      t.drops.overload_shed_new_flow <- t.drops.overload_shed_new_flow + 1;
      3
    | Drop_batches ->
      t.drops.overload_drop_batch <- t.drops.overload_drop_batch + 1;
      4
    | Normal | Reject ->
      t.drops.overload_reject <- t.drops.overload_reject + 1;
      5
  in
  Obs.Trace.record t.tracer Obs.Trace.Drop code len

let handle_segment t (segment : Packet.Segment.t) =
  match t.overload_probe () with
  | Reject ->
    note_overload_drop t Reject
      (String.length segment.Packet.Segment.payload)
  | tier ->
    let tcp = segment.Packet.Segment.tcp in
    let flags = tcp.Packet.Tcp_header.flags in
    let flow = Packet.Segment.flow segment in
    let kind = Demux.Types.kind_of_segment segment in
    let payload_len = String.length segment.Packet.Segment.payload in
    let timing = t.stage_demux <> None || t.stage_state <> None in
    let demux_t0 = if timing then Obs.Clock.now_ns () else 0 in
    let result = Conn_table.lookup t.table ~kind flow in
    let state_t0 =
      if not timing then 0
      else begin
        let now = Obs.Clock.now_ns () in
        (match t.stage_demux with
        | Some h -> Obs.Histogram.record h (now - demux_t0)
        | None -> ());
        now
      end
    in
    (match result with
    | Conn_table.Connection pcb ->
      let conn = pcb.Demux.Pcb.data in
      handle_connection t conn segment;
      maybe_arm_time_wait t conn
    | Conn_table.Listener _ when flags.Packet.Tcp_header.syn
                                 && not flags.Packet.Tcp_header.ack -> (
      match tier with
      | Normal -> accept t flow tcp
      | Shed_new_flows -> note_overload_drop t Shed_new_flows payload_len
      | Drop_batches -> note_overload_drop t Drop_batches payload_len
      | Reject -> assert false (* handled above *))
    | Conn_table.Listener _ | Conn_table.No_match ->
      if tier = Drop_batches then note_overload_drop t Drop_batches payload_len
      else if not flags.Packet.Tcp_header.rst then
        emit_rst t ~flow ~seq:0l
          ~ack_number:(Int32.add tcp.Packet.Tcp_header.seq 1l));
    match t.stage_state with
    | Some h -> Obs.Histogram.record h (Obs.Clock.now_ns () - state_t0)
    | None -> ()

(* Attacker-controlled bytes: never raise.  Anything that cannot be
   processed is shed and attributed to a named counter. *)
let handle_bytes t buf =
  match t.overload_probe () with
  | Reject ->
    (* The point of the top tier is to spend nothing per datagram:
       shed before even parsing. *)
    note_overload_drop t Reject (Bytes.length buf);
    Error "stack: overloaded; datagram rejected"
  | Normal | Shed_new_flows | Drop_batches -> (
  let parse_t0 =
    match t.stage_parse with None -> 0 | Some _ -> Obs.Clock.now_ns ()
  in
  let parsed = Packet.Segment.parse buf ~off:0 in
  (match t.stage_parse with
  | Some h -> Obs.Histogram.record h (Obs.Clock.now_ns () - parse_t0)
  | None -> ());
  match parsed with
  | Error reason ->
    t.drops.parse_error <- t.drops.parse_error + 1;
    Obs.Trace.record t.tracer Obs.Trace.Drop 0 (Bytes.length buf);
    Error reason
  | Ok segment ->
    if Packet.Ipv4.equal_addr segment.Packet.Segment.ip.Packet.Ipv4.dst t.local_addr
    then
      match handle_segment t segment with
      | () -> Ok ()
      | exception exn ->
        t.drops.handler_error <- t.drops.handler_error + 1;
        Obs.Trace.record t.tracer Obs.Trace.Drop 2 (Bytes.length buf);
        Log.debug (fun m ->
            m "segment handler raised %s; datagram shed"
              (Printexc.to_string exn));
        Error ("stack: segment handler failed: " ^ Printexc.to_string exn)
    else begin
      t.drops.wrong_destination <- t.drops.wrong_destination + 1;
      Obs.Trace.record t.tracer Obs.Trace.Drop 1 (Bytes.length buf);
      Error "stack: datagram not addressed to this host"
    end)

let drop_reasons =
  [ "parse-error"; "wrong-destination"; "handler-error";
    "overload-shed-new-flow"; "overload-drop-batch"; "overload-reject" ]

let drop_reason_of_code code = List.nth_opt drop_reasons code

let drop_counts t =
  [ ("parse-error", t.drops.parse_error);
    ("wrong-destination", t.drops.wrong_destination);
    ("handler-error", t.drops.handler_error);
    ("overload-shed-new-flow", t.drops.overload_shed_new_flow);
    ("overload-drop-batch", t.drops.overload_drop_batch);
    ("overload-reject", t.drops.overload_reject) ]

let drops_total t =
  t.drops.parse_error + t.drops.wrong_destination + t.drops.handler_error
  + t.drops.overload_shed_new_flow + t.drops.overload_drop_batch
  + t.drops.overload_reject

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let set_tracer t tracer =
  t.tracer <- tracer;
  Demux.Lookup_stats.set_tracer (demux_stats t) tracer

let register_obs ?(prefix = "stack") t obs =
  let name suffix = prefix ^ "." ^ suffix in
  List.iter
    (fun reason ->
      Obs.Registry.register_counter obs
        ~help:("datagrams shed by handle_bytes: " ^ reason)
        ~name:(name ("drops." ^ reason))
        (fun () -> List.assoc reason (drop_counts t)))
    drop_reasons;
  Obs.Registry.register_counter obs ~help:"datagrams shed by handle_bytes"
    ~name:(name "drops.total") (fun () -> drops_total t);
  Obs.Registry.register_counter obs ~help:"segments transmitted"
    ~name:(name "segments_sent") (fun () -> t.segments_sent);
  Obs.Registry.register_counter obs ~help:"RST segments transmitted"
    ~name:(name "rsts_sent") (fun () -> t.rsts_sent);
  Obs.Registry.register_counter obs
    ~help:"segments re-sent by the RTO timer"
    ~name:(name "retransmissions") (fun () -> t.retransmissions);
  Obs.Registry.register_gauge obs ~help:"connections resident"
    ~name:(name "connections")
    (fun () -> float_of_int (connection_count t));
  Obs.Registry.register_gauge obs
    ~help:"TIME-WAIT connections awaiting reaping"
    ~name:(name "time_wait_pending")
    (fun () -> float_of_int (pending_time_wait t));
  Demux.Registry.observe ~prefix:(name "demux") obs (Conn_table.demux t.table)
