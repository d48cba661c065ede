(* Event logging: quiet by default; enable with
   Logs.Src.set_level Stack.log_src (Some Logs.Debug). *)
let log_src = Logs.Src.create "tcpdemux.stack" ~doc:"TCP stack events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The stack-side view of pipeline overload.  The parallel pipeline's
   pressure controller re-exports this type as its tier, and reaches
   the stack through a closure ([set_overload_probe]), keeping tcpcore
   free of any domain/threading dependency. *)
type overload_tier = Normal | Shed_new_flows | Drop_batches | Reject

(* Why a datagram or segment was shed. *)
type drop_reason =
  | Parse_error  (* malformed or checksum-failing bytes *)
  | Wrong_destination  (* well-formed but not addressed to us *)
  | Handler_error  (* segment processing raised; datagram shed *)
  | Overload_shed_new_flow  (* SYNs refused at Shed_new_flows *)
  | Overload_drop_batch  (* non-established shed at Drop_batches *)
  | Overload_reject  (* datagrams refused outright at Reject *)

(* In drop-code order.  A reason's code indexes the stack's count array
   and is the payload of its traced [Drop] event. *)
let all_drops =
  [ Parse_error; Wrong_destination; Handler_error; Overload_shed_new_flow;
    Overload_drop_batch; Overload_reject ]

let drop_code = function
  | Parse_error -> 0
  | Wrong_destination -> 1
  | Handler_error -> 2
  | Overload_shed_new_flow -> 3
  | Overload_drop_batch -> 4
  | Overload_reject -> 5

let drop_name = function
  | Parse_error -> "parse-error"
  | Wrong_destination -> "wrong-destination"
  | Handler_error -> "handler-error"
  | Overload_shed_new_flow -> "overload-shed-new-flow"
  | Overload_drop_batch -> "overload-drop-batch"
  | Overload_reject -> "overload-reject"

type connection = {
  flow : Packet.Flow.t;
  template : Packet.Ipv4.t;  (* the IPv4 header of its payload-less segments *)
  mutable state : State.t;
  mutable snd_nxt : int32;
  mutable rcv_nxt : int32;
  mutable snd_una : int32;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable unacked : (int32 * Packet.Segment.t) list;
      (* retransmission queue: (first sequence number, segment),
         oldest first *)
  mutable listener : listener option;
  mutable time_wait_timer : Timer_wheel.timer option;
}

and listener = { on_data : t -> connection -> string -> unit }

and t = {
  local_addr : Packet.Ipv4.addr;
  mutable tracer : Obs.Trace.t;  (* Drop events; disabled by default. *)
  table : (connection, listener) Conn_table.t;
  mutable outbox : Packet.Segment.t list;  (* newest first *)
  mutable next_iss : int32;
  iss_for : (Packet.Flow.t -> int32) option;
  mutable on_established : (t -> connection -> unit) option;
  mutable segments_sent : int;
  mutable rsts_sent : int;
  mutable retransmissions : int;
  drops : int array;  (* by drop code *)
  retransmit_timeout : float;
  rto_rng : Numerics.Rng.t;
  mutable overload_probe : unit -> overload_tier;
  wheel : connection Timer_wheel.t;  (* argument: see [retransmit_timer] *)
  mutable time_wait_pending : int;  (* connections whose 2MSL timer is armed *)
}

(* A segment's sequence numbers arrive as ints in [0, 2^32); a
   connection keeps its own as [int32], and [u32] reads one as the
   former.  Comparison wraps around: [a] is before [b] iff their
   32-bit difference, sign-extended, is negative (RFC 793 window
   arithmetic).  [Packet.Flow] refuses to load where ints are
   narrower than 63 bits, so the shifts keep the low 32 bits. *)
let u32 x = Int32.to_int x land 0xFFFF_FFFF
let seq_lt a b = ((a - b) lsl 31) asr 31 < 0
let seq_leq a b = ((a - b) lsl 31) asr 31 <= 0

(* Bits of the flags byte, as [Packet.Tcp_header.flags_to_int]
   encodes it. *)
let fin_bit = 0x01
let syn_bit = 0x02
let rst_bit = 0x04
let ack_bit = 0x10

(* A 1/64-s tick keeps a slot to the SYN-ACKs of a few milliseconds,
   so a jittered retransmission walks back past few of them; 256 slots
   cover 4 s, and later deadlines (TIME-WAIT, long backoffs) sit at
   their slot's tail. *)
let wheel_tick = 1.0 /. 64.0

(* Each unanswered retransmission doubles the RTO, up to
   [1 lsl max_backoff] base timeouts. *)
let max_backoff = 6

(* 2MSL, the attempts a segment gets, and the seed of the RTO jitter
   draws. *)
let time_wait_timeout = 60.0
let max_retransmits = 12
let rto_seed = 0x52544f

let create ?(demux =
             Demux.Registry.Sequent
               { chains = Demux.Sequent.default_chains;
                 hasher = Hashing.Hashers.multiplicative })
    ?(retransmit_timeout = 1.0) ?iss ~local_addr () =
  let wheel = Timer_wheel.create ~tick:wheel_tick () in
  if not (retransmit_timeout > 0.0 && Float.is_finite retransmit_timeout) then
    invalid_arg "Stack.create: retransmit_timeout is not positive and finite";
  (* A timer armed at clock 0 must fit the wheel: the longest delay the
     RTO arms is its capped backoff. *)
  if
    not
      (Timer_wheel.placeable wheel
         (Float.of_int (1 lsl max_backoff) *. retransmit_timeout))
  then
    invalid_arg
      "Stack.create: retransmit_timeout is beyond the timer wheel's range";
  { local_addr; tracer = Obs.Trace.disabled;
    table = Conn_table.create demux; outbox = [];
    next_iss = 1000l; iss_for = iss; on_established = None;
    segments_sent = 0; rsts_sent = 0; retransmissions = 0;
    drops = Array.make (List.length all_drops) 0;
    retransmit_timeout; rto_rng = Numerics.Rng.create ~seed:rto_seed;
    overload_probe = (fun () -> Normal);
    wheel; time_wait_pending = 0 }

let set_overload_probe t probe = t.overload_probe <- probe
let set_on_established t hook = t.on_established <- hook

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
  let mix h v =
    let h = (h lxor v) * 0x9E3779B1 in
    h lxor (h lsr 29)
  in
  let h = mix (mix 0x69737321 (Packet.Flow.w0 flow)) (Packet.Flow.w1 flow) in
  Int32.of_int (h land 0x3FFFFFFF)

let transmit t segment flow =
  t.outbox <- segment :: t.outbox;
  t.segments_sent <- t.segments_sent + 1;
  Conn_table.note_send t.table flow

(* Exponential RTO backoff: attempt [n] waits [2^(n-1)] base timeouts,
   capped at 64x (RFC 6298's doubling with BSD's traditional cap), so
   a peer that never acknowledges — or an induced-loss fault plan —
   cannot make the stack hammer the network at a constant rate.

   The capped delay is full-jittered: attempt [n] waits
   [base + u * (capped - base)] for a fresh uniform [u], i.e. anywhere
   in [[base, capped]].  Without jitter, every host that lost the same
   burst would retransmit on the same schedule, and the synchronized
   retry wave would re-create the overload that caused the loss;
   jittered, the wave decorrelates while the mean backoff still grows
   exponentially.  Draws come from the stack's own generator, seeded
   with [rto_seed], so a given stack's delay sequence is
   reproducible. *)
let rto_for_attempt t attempt =
  if attempt <= 1 then t.retransmit_timeout
  else
    let capped =
      t.retransmit_timeout *. Float.of_int (1 lsl min max_backoff (attempt - 1))
    in
    t.retransmit_timeout
    +. (Numerics.Rng.float t.rto_rng *. (capped -. t.retransmit_timeout))

(* A timer's payload is its connection, and its argument says what to
   do: 0 reaps a TIME-WAIT connection, and a retransmission sets the
   low bit and carries the segment's sequence number (32 bits) and its
   attempt above it. *)
let reap_timer = 0
let retransmit_timer ~seq ~attempt = (attempt lsl 33) lor (seq lsl 1) lor 1

(* The IPv4 header [Segment.make] gives a payload-less segment on
   [flow]: an option-free 20-byte TCP header and no payload.  Each
   connection makes it once (4.3BSD's [t_template]). *)
let header_template flow =
  Packet.Ipv4.make ~src:flow.Packet.Flow.local.Packet.Flow.addr
    ~dst:flow.Packet.Flow.remote.Packet.Flow.addr ~payload_length:20 ()

(* The segment [Segment.make] would build with no payload, without its
   optional arguments: the header record carries [Tcp_header.make]'s
   defaults on the connection's template. *)
let header_segment conn ~flags ~seq ~ack_number =
  let flow = conn.flow in
  { Packet.Segment.ip = conn.template;
    tcp =
      { Packet.Tcp_header.src_port = flow.Packet.Flow.local.Packet.Flow.port;
        dst_port = flow.Packet.Flow.remote.Packet.Flow.port; seq; ack_number;
        flags; window = 65535; urgent = 0; options = [] };
    payload = "" }

(* Send a sequence-space-consuming segment (SYN, FIN or data), queue
   it for retransmission and arm its RTO timer. *)
let emit_reliable t conn ?payload ~flags ~seq ~ack_number () =
  let segment =
    match payload with
    | None -> header_segment conn ~flags ~seq ~ack_number
    | Some payload ->
      Packet.Segment.make ~seq ~ack_number ~flags ~payload
        ~src:conn.flow.Packet.Flow.local ~dst:conn.flow.Packet.Flow.remote ()
  in
  transmit t segment conn.flow;
  conn.unacked <- conn.unacked @ [ (seq, segment) ];
  ignore
    (Timer_wheel.schedule t.wheel ~delay:(rto_for_attempt t 1) conn
       (retransmit_timer ~seq:(u32 seq) ~attempt:1))

let emit_rst t ~flow ~seq ~ack_number =
  (* No PCB exists for this flow, so no transmit-side bookkeeping. *)
  let segment =
    Packet.Segment.make ~seq ~ack_number ~flags:Packet.Tcp_header.flag_rst
      ~src:flow.Packet.Flow.local ~dst:flow.Packet.Flow.remote ()
  in
  t.outbox <- segment :: t.outbox;
  t.segments_sent <- t.segments_sent + 1;
  t.rsts_sent <- t.rsts_sent + 1

(* A pure ACK carries the connection's own sequence boxes.  Every
   in-order data segment is acknowledged at once. *)
let ack_now t conn =
  transmit t
    (header_segment conn ~flags:Packet.Tcp_header.flag_ack ~seq:conn.snd_nxt
       ~ack_number:conn.rcv_nxt)
    conn.flow

let listen t ~port ~on_data = Conn_table.listen t.table ~port { on_data }

let connect t ~local_port ~remote =
  let local = Packet.Flow.endpoint t.local_addr local_port in
  let flow = Packet.Flow.v ~local ~remote in
  let iss = fresh_iss t flow in
  let conn =
    { flow; template = header_template flow; state = State.Syn_sent;
      snd_nxt = Int32.add iss 1l;
      rcv_nxt = 0l; snd_una = iss; bytes_in = 0; bytes_out = 0; unacked = [];
      listener = Conn_table.listener t.table ~port:local_port;
      time_wait_timer = None }
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

(* The 2MSL timer left the wheel: fired, or cancelled by the caller. *)
let time_wait_done t conn =
  conn.time_wait_timer <- None;
  t.time_wait_pending <- t.time_wait_pending - 1

let cancel_time_wait t conn =
  match conn.time_wait_timer with
  | Some timer ->
    ignore (Timer_wheel.cancel t.wheel timer);
    time_wait_done t conn
  | None -> ()

let drop_connection t conn =
  Log.debug (fun m -> m "drop %s" (Packet.Flow.to_string conn.flow));
  conn.state <- State.Closed;
  conn.unacked <- [];
  cancel_time_wait t conn;
  ignore (Conn_table.remove_connection t.table conn.flow)

(* Arm the 2MSL timer the first time a connection is seen in
   TIME-WAIT; re-arming on retransmitted FINs is harmless but
   wasteful, so an armed timer is kept. *)
let maybe_arm_time_wait t conn =
  match conn.time_wait_timer with
  | None when State.equal conn.state State.Time_wait ->
    conn.time_wait_timer <-
      Some
        (Timer_wheel.schedule t.wheel ~delay:time_wait_timeout conn
           reap_timer);
    t.time_wait_pending <- t.time_wait_pending + 1
  | Some _ | None -> ()

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
    cancel_time_wait t conn;
    (* Ship a fresh record and neutralize the original.  Pending RTO
       entries on the wheel still reference the original, and
       every timer path is a no-op on a Closed connection with an
       empty retransmission queue — so no timer on this stack can ever
       touch state that now lives on another domain.  The adopting
       stack binds the copy to its own listener. *)
    let copy = { conn with listener = None; time_wait_timer = None } in
    conn.state <- State.Closed;
    conn.unacked <- [];
    Some copy

let adopt_connection t conn =
  if
    not
      (Packet.Ipv4.equal_addr conn.flow.Packet.Flow.local.Packet.Flow.addr
         t.local_addr)
  then invalid_arg "Stack.adopt_connection: flow is not addressed to this host";
  if State.equal conn.state State.Closed then
    invalid_arg "Stack.adopt_connection: connection is closed";
  conn.listener <-
    Conn_table.listener t.table
      ~port:conn.flow.Packet.Flow.local.Packet.Flow.port;
  ignore (Conn_table.add_connection t.table conn.flow conn);
  maybe_arm_time_wait t conn;
  (* Anything still unacknowledged gets a fresh first-attempt RTO on
     this stack's wheel (attempt 1 never consumes a jitter draw, so
     adoption stays deterministic). *)
  List.iter
    (fun (seq, _) ->
      ignore
        (Timer_wheel.schedule t.wheel ~delay:(rto_for_attempt t 1) conn
           (retransmit_timer ~seq:(u32 seq) ~attempt:1)))
    conn.unacked

(* Retransmission bookkeeping.  An arriving ACK advances snd_una and
   releases fully acknowledged segments from the queue; an expired RTO
   re-emits the oldest unacknowledged segment and re-arms. *)

(* The queued segments [ack] does not cover in full, in order: a
   segment covers its payload plus one for a SYN and one for a FIN.
   The longest tail that keeps every entry is shared, so releasing
   the oldest segments allocates nothing. *)
let rec unacked_after ack = function
  | [] -> []
  | (((seq, (segment : Packet.Segment.t)) as entry) :: rest) as queue ->
    let flags = segment.Packet.Segment.tcp.Packet.Tcp_header.flags in
    let consumed =
      String.length segment.Packet.Segment.payload
      + (if flags.Packet.Tcp_header.syn then 1 else 0)
      + if flags.Packet.Tcp_header.fin then 1 else 0
    in
    let kept = unacked_after ack rest in
    if not (seq_lt ack (u32 seq + consumed)) then kept
    else if kept == rest then queue
    else entry :: kept

let note_ack conn ack =
  if seq_lt (u32 conn.snd_una) ack && seq_leq ack (u32 conn.snd_nxt) then begin
    conn.snd_una <- Int32.of_int ack;
    conn.unacked <- unacked_after ack conn.unacked
  end

(* The queued segment that starts at [seq]. *)
let rec unacked_segment seq = function
  | [] -> raise Not_found
  | (first, segment) :: rest ->
    if u32 first = seq then segment else unacked_segment seq rest

let handle_retransmit t conn ~seq ~attempt =
  if
    (not (State.equal conn.state State.Closed))
    && attempt <= max_retransmits
    && t.retransmissions < max_retransmits * 64
    (* circuit breaker against pathological never-acked loops *)
  then
    match unacked_segment seq conn.unacked with
    | exception Not_found -> false
    | segment ->
      Log.debug (fun m ->
          m "retransmit seq=%d attempt=%d on %s" seq attempt
            (Packet.Flow.to_string conn.flow));
      t.retransmissions <- t.retransmissions + 1;
      transmit t segment conn.flow;
      ignore
        (Timer_wheel.schedule t.wheel
           ~delay:(rto_for_attempt t (attempt + 1))
           conn
           (retransmit_timer ~seq ~attempt:(attempt + 1)));
      true
  else false

(* Whether a fired timer acted; one made moot by a later ack or close
   does nothing. *)
let on_timer t conn arg =
  if arg = reap_timer then begin
    time_wait_done t conn;
    State.equal conn.state State.Time_wait
    && begin
         drop_connection t conn;
         true
       end
  end
  else
    handle_retransmit t conn
      ~seq:((arg lsr 1) land 0xFFFF_FFFF)
      ~attempt:(arg lsr 33)

let advance_clock t ~now =
  let actions = ref 0 in
  Timer_wheel.advance t.wheel ~now ~fire:(fun conn arg ->
      if on_timer t conn arg then incr actions);
  !actions

let pending_time_wait t = t.time_wait_pending

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

(* A one-segment outbox is its own order: only a longer one is
   reversed. *)
let poll_output t =
  let queued = t.outbox in
  t.outbox <- [];
  match queued with [] | [ _ ] -> queued | _ -> List.rev queued

let apply_transition conn event =
  match State.transition conn.state event with
  | Some next ->
    conn.state <- next;
    true
  | None -> false

(* The receive path takes a segment as immediates: its flow words
   [w0]/[w1] ([Packet.Flow.w0]/[w1]), its flags byte, its [seq] and
   [ack] numbers and its payload. *)

let deliver_data t conn ~seq ~payload =
  let len = String.length payload in
  if len > 0 then
    if seq = u32 conn.rcv_nxt then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt (Int32.of_int len);
      conn.bytes_in <- conn.bytes_in + len;
      ack_now t conn;
      match conn.listener with
      | Some { on_data } -> on_data t conn payload
      | None -> ()
    end
    else
      (* Out of order: re-assert what we expect (duplicate ACK). *)
      ack_now t conn

let handle_established t conn ~flags ~seq ~payload =
  deliver_data t conn ~seq ~payload;
  if flags land fin_bit <> 0 then begin
    conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
    ignore (apply_transition conn State.Rcv_fin);
    ack_now t conn
  end

(* An ACK of everything sent so far: our SYN, or our FIN. *)
let acks_all_sent conn ~flags ~ack =
  flags land ack_bit <> 0 && ack = u32 conn.snd_nxt

let handle_closing_states t conn ~flags ~seq ~ack ~payload =
  let fin = flags land fin_bit <> 0 in
  match conn.state with
  | State.Fin_wait_1 ->
    if fin && acks_all_sent conn ~flags ~ack then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin_ack);
      ack_now t conn
    end
    else if fin then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin);
      ack_now t conn
    end
    else if acks_all_sent conn ~flags ~ack then
      ignore (apply_transition conn State.Rcv_ack)
    else deliver_data t conn ~seq ~payload
  | State.Fin_wait_2 ->
    if fin then begin
      conn.rcv_nxt <- Int32.add conn.rcv_nxt 1l;
      ignore (apply_transition conn State.Rcv_fin);
      ack_now t conn
    end
    else deliver_data t conn ~seq ~payload
  | State.Closing ->
    if acks_all_sent conn ~flags ~ack then
      ignore (apply_transition conn State.Rcv_ack)
  | State.Last_ack ->
    if acks_all_sent conn ~flags ~ack then begin
      ignore (apply_transition conn State.Rcv_ack);
      drop_connection t conn
    end
  | State.Time_wait ->
    (* Retransmitted FIN: re-acknowledge. *)
    if fin then ack_now t conn
  | State.Closed | State.Listen | State.Syn_sent | State.Syn_received
  | State.Established | State.Close_wait ->
    ()

let handle_connection t conn ~flags ~seq ~ack ~payload =
  let rst = flags land rst_bit <> 0 in
  if flags land ack_bit <> 0 && not rst then note_ack conn ack;
  if rst then begin
    ignore (apply_transition conn State.Rcv_rst);
    drop_connection t conn
  end
  else
    let syn = flags land syn_bit <> 0 in
    match conn.state with
    | State.Syn_sent ->
      if syn && flags land ack_bit <> 0 then begin
        conn.rcv_nxt <- Int32.of_int (seq + 1);
        ignore (apply_transition conn State.Rcv_syn_ack);
        ack_now t conn
      end
      else if syn then begin
        (* Simultaneous open. *)
        conn.rcv_nxt <- Int32.of_int (seq + 1);
        ignore (apply_transition conn State.Rcv_syn);
        transmit t
          (header_segment conn ~flags:Packet.Tcp_header.flag_syn_ack
             ~seq:(Int32.sub conn.snd_nxt 1l) ~ack_number:conn.rcv_nxt)
          conn.flow
      end
    | State.Syn_received ->
      if acks_all_sent conn ~flags ~ack then begin
        ignore (apply_transition conn State.Rcv_ack);
        (* The handshake ACK may carry data. *)
        handle_established t conn ~flags ~seq ~payload;
        (* Accept completion: the passive open reached a synchronized
           state.  Fired after the piggybacked data is delivered, so a
           hook that migrates the connection sees settled state. *)
        match t.on_established with
        | Some hook -> hook t conn
        | None -> ()
      end
    | State.Established | State.Close_wait ->
      handle_established t conn ~flags ~seq ~payload
    | State.Fin_wait_1 | State.Fin_wait_2 | State.Closing | State.Last_ack
    | State.Time_wait ->
      handle_closing_states t conn ~flags ~seq ~ack ~payload
    | State.Closed | State.Listen -> ()

let accept t listener ~w0 ~w1 ~seq =
  let flow = Packet.Flow.of_words ~w0 ~w1 in
  let iss = fresh_iss t flow in
  let conn =
    { flow; template = header_template flow; state = State.Syn_received;
      snd_nxt = Int32.add iss 1l; rcv_nxt = Int32.of_int (seq + 1);
      snd_una = iss; bytes_in = 0; bytes_out = 0; unacked = [];
      listener = Some listener; time_wait_timer = None }
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
let note_drop t reason len =
  let code = drop_code reason in
  t.drops.(code) <- t.drops.(code) + 1;
  Obs.Trace.record t.tracer Obs.Trace.Drop code len

let note_overload_drop t tier len =
  note_drop t
    (match tier with
    | Shed_new_flows -> Overload_shed_new_flow
    | Drop_batches -> Overload_drop_batch
    | Normal | Reject -> Overload_reject)
    len

(* The one receive core: one metered lookup per segment, on the flow
   words.  A [Flow.t] is built only for a new connection or an RST.
   [tier] is read once per datagram by the caller: a second read
   could see a different tier and shed a datagram [handle_bytes] has
   already admitted. *)
let handle_segment_at t tier ~w0 ~w1 ~flags ~seq ~ack ~payload =
  let len = String.length payload in
  match tier with
  | Reject -> note_overload_drop t Reject len
  | Normal | Shed_new_flows | Drop_batches -> (
    let kind = Demux.Types.kind_of_flags ~flags ~payload_length:len in
    let demux = Conn_table.demux t.table in
    match demux.Demux.Registry.lookup kind ~w0 ~w1 with
    | pcb ->
      let conn = pcb.Demux.Pcb.data in
      handle_connection t conn ~flags ~seq ~ack ~payload;
      maybe_arm_time_wait t conn
    | exception Not_found -> (
      match Conn_table.find_listener t.table ~w0 with
      | listener when flags land (syn_bit lor ack_bit) = syn_bit -> (
        match tier with
        | Normal -> accept t listener ~w0 ~w1 ~seq
        | Shed_new_flows | Drop_batches | Reject ->
          note_overload_drop t tier len)
      | _ | (exception Not_found) ->
        if tier = Drop_batches then note_overload_drop t Drop_batches len
        else if flags land rst_bit = 0 then
          emit_rst t ~flow:(Packet.Flow.of_words ~w0 ~w1) ~seq:0l
            ~ack_number:(Int32.of_int (seq + 1))))

(* The record front end: the same fields, read from a parsed
   segment. *)
let handle_segment t (segment : Packet.Segment.t) =
  let ip = segment.Packet.Segment.ip and tcp = segment.Packet.Segment.tcp in
  handle_segment_at t (t.overload_probe ())
    ~w0:(Packet.Flow.word ip.Packet.Ipv4.dst tcp.Packet.Tcp_header.dst_port)
    ~w1:(Packet.Flow.word ip.Packet.Ipv4.src tcp.Packet.Tcp_header.src_port)
    ~flags:(Packet.Tcp_header.flags_to_int tcp.Packet.Tcp_header.flags)
    ~seq:(u32 tcp.Packet.Tcp_header.seq)
    ~ack:(u32 tcp.Packet.Tcp_header.ack_number)
    ~payload:segment.Packet.Segment.payload

(* Attacker-controlled bytes: never raise.  Anything that cannot be
   processed is shed and attributed to a named counter.  A datagram
   [Segment.check] accepts is read where it lies; its payload is the
   only copy, and only when it is not empty. *)
let handle_bytes t buf =
  match t.overload_probe () with
  | Reject ->
    (* The point of the top tier is to spend nothing per datagram:
       shed before even parsing. *)
    note_overload_drop t Reject (Bytes.length buf);
    Error "stack: overloaded; datagram rejected"
  | (Normal | Shed_new_flows | Drop_batches) as tier -> (
    let tcp = Packet.Segment.check buf ~off:0 in
    if tcp >= 0 then
      let w0 = Packet.Segment.peek_w0 buf ~off:0 ~tcp in
      (* The local address is [w0]'s upper 32 bits. *)
      if w0 lsr 16 <> u32 (t.local_addr :> int32) then begin
        note_drop t Wrong_destination (Bytes.length buf);
        Error "stack: datagram not addressed to this host"
      end
      else
        let len = Packet.Segment.payload_length buf ~off:0 ~tcp in
        let payload =
          if len = 0 then ""
          else Bytes.sub_string buf (Packet.Segment.payload_off buf ~tcp) len
        in
        match
          handle_segment_at t tier ~w0
            ~w1:(Packet.Segment.peek_w1 buf ~off:0 ~tcp)
            ~flags:(Packet.Segment.flags buf ~tcp)
            ~seq:(Packet.Segment.seq buf ~tcp)
            ~ack:(Packet.Segment.ack_number buf ~tcp) ~payload
        with
        | () -> Ok ()
        | exception exn ->
          note_drop t Handler_error (Bytes.length buf);
          Log.debug (fun m ->
              m "segment handler raised %s; datagram shed"
                (Printexc.to_string exn));
          Error ("stack: segment handler failed: " ^ Printexc.to_string exn)
    else begin
      note_drop t Parse_error (Bytes.length buf);
      Error (Packet.Segment.reason buf ~off:0 tcp)
    end)

let drop_reasons = List.map drop_name all_drops

(* Codes come back from trace payloads, which may be any integer. *)
let drop_reason_of_code code =
  List.find_map
    (fun r -> if drop_code r = code then Some (drop_name r) else None)
    all_drops

let drop_counts t =
  List.map (fun r -> (drop_name r, t.drops.(drop_code r))) all_drops

let drops_total t = Array.fold_left ( + ) 0 t.drops

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let set_tracer t tracer =
  t.tracer <- tracer;
  Demux.Lookup_stats.set_tracer (demux_stats t) tracer

let register_obs ?(prefix = "stack") t obs =
  let name suffix = prefix ^ "." ^ suffix in
  List.iter
    (fun r ->
      Obs.Registry.register_counter obs
        ~help:("datagrams shed by handle_bytes: " ^ drop_name r)
        ~name:(name ("drops." ^ drop_name r))
        (fun () -> t.drops.(drop_code r)))
    all_drops;
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
  Obs.Registry.register_gauge obs
    ~help:"2MSL and RTO timers not yet fired or cancelled"
    ~name:(name "timer.pending")
    (fun () -> float_of_int (Timer_wheel.pending t.wheel));
  Obs.Registry.register_counter obs ~help:"timers scheduled on the wheel"
    ~name:(name "timer.scheduled") (fun () -> Timer_wheel.scheduled t.wheel);
  Obs.Registry.register_counter obs
    ~help:"timers fired by advance_clock, moot ones included"
    ~name:(name "timer.fired") (fun () -> Timer_wheel.fired t.wheel);
  Obs.Registry.register_counter obs
    ~help:"slot heads advance_clock read: one per fired timer, one per \
           non-empty slot whose head was not due"
    ~name:(name "timer.visited") (fun () -> Timer_wheel.visited t.wheel);
  Obs.Registry.register_counter obs
    ~help:"entries scheduled timers walked back past from their slot's tail"
    ~name:(name "timer.insert_steps")
    (fun () -> Timer_wheel.insert_steps t.wheel);
  Demux.Registry.observe ~prefix:(name "demux") obs (Conn_table.demux t.table)
