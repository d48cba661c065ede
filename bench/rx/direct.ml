(* Closed-loop replay into one Tcpcore.Stack: the next datagram is
   offered when [handle_bytes] and [poll_output] have returned, as on a
   receive ring that never empties. *)

let local_addr = Workload.server.Packet.Flow.addr
let port = Workload.server.Packet.Flow.port

(* The stack's default demultiplexer; the trace's acknowledgement
   numbers assume the deterministic ISS. *)
let create () =
  let st =
    Tcpcore.Stack.create ~iss:Tcpcore.Stack.deterministic_iss ~local_addr ()
  in
  Tcpcore.Stack.listen st ~port ~on_data:(fun _ _ _ -> ());
  st

(* Timers run on virtual time: every [tick] datagrams the clock moves
   to datagram index x 100 us and the wheel is advanced. *)
let tick = 256
let timer_due i = (i + 1) land (tick - 1) = 0
let virtual_now i = float_of_int i *. 1e-4

(* Everything a pass leaves behind that must repeat exactly. *)
type counters = {
  errors : int;
  replies : int;
  timer_actions : int;
  retransmissions : int;
  segments_sent : int;
  rsts_sent : int;
  drops : int;
  connections : int;
  demux : Demux.Lookup_stats.snapshot;
}

let counters st ~errors ~replies ~timer_actions =
  { errors; replies; timer_actions;
    retransmissions = Tcpcore.Stack.retransmissions st;
    segments_sent = Tcpcore.Stack.segments_sent st;
    rsts_sent = Tcpcore.Stack.rsts_sent st;
    drops = Tcpcore.Stack.drops_total st;
    connections = Tcpcore.Stack.connection_count st;
    demux = Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats st) }

(* Replay [ds] through [st].  With [windows], the clock is read at the
   start and after every [tick] datagrams, and window [w] gets the time
   datagrams [w * tick] to [(w + 1) * tick - 1] took.  With [latency],
   each datagram's service time (handle_bytes, poll_output and any
   timer work it triggers) is stored at its index, between two clock
   reads. *)
let replay ?windows ?latency st ds =
  let windowed = Option.is_some windows and timed = Option.is_some latency in
  let windows = Option.value windows ~default:[||]
  and latency = Option.value latency ~default:[||] in
  let errors = ref 0 and replies = ref 0 and timer_actions = ref 0 in
  let last = ref (if windowed then Obs.Clock.now_ns () else 0) in
  for i = 0 to Array.length ds - 1 do
    let t0 = if timed then Obs.Clock.now_ns () else 0 in
    (match Tcpcore.Stack.handle_bytes st ds.(i) with
    | Ok () -> ()
    | Error _ -> incr errors);
    replies := !replies + List.length (Tcpcore.Stack.poll_output st);
    if timer_due i then begin
      timer_actions :=
        !timer_actions + Tcpcore.Stack.advance_clock st ~now:(virtual_now i);
      replies := !replies + List.length (Tcpcore.Stack.poll_output st);
      if windowed then begin
        let now = Obs.Clock.now_ns () in
        windows.(i / tick) <- now - !last;
        last := now
      end
    end;
    if timed then latency.(i) <- Obs.Clock.now_ns () - t0
  done;
  counters st ~errors:!errors ~replies:!replies
    ~timer_actions:!timer_actions

let audit tr st =
  Workload.audit tr (fun f ->
      Tcpcore.Stack.iter_connections st (fun c ->
          f c.Tcpcore.Stack.flow c.Tcpcore.Stack.state c.Tcpcore.Stack.bytes_in))

type gc = { minor_words : float; minor_gcs : int; major_gcs : int; promoted : float }

(* Complete [tick]-datagram windows in a trace of [n]. *)
let window_count n = n / tick

(* One untimed pass on a fresh stack: wall time, window times and
   allocation of the replay alone, stack creation and the audit
   excluded.  The only clock reads are the window stamps, one per
   [tick] datagrams. *)
type pass = { seconds : float; gc : gc; counters : counters; problems : string list }

let untimed_pass ?windows tr =
  Gc.full_major ();
  let st = create () in
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  let counters = replay ?windows st tr.Workload.datagrams in
  let t1 = Obs.Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  { seconds = float_of_int (t1 - t0) /. 1e9;
    gc =
      { minor_words = w1 -. w0;
        minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
        major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
        promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words };
    counters; problems = audit tr st }

(* One timed pass: per-datagram service times into [latency]. *)
let timed_pass tr latency =
  Gc.full_major ();
  let st = create () in
  let counters = replay ~latency st tr.Workload.datagrams in
  (counters, audit tr st)

(* Set-up cost: mean [create] (stack plus listener) over a batch. *)
let setup_seconds ~batch =
  Gc.full_major ();
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to batch do
    ignore (Sys.opaque_identity (create ()))
  done;
  float_of_int (Obs.Clock.now_ns () - t0) /. 1e9 /. float_of_int batch
