(* The traced run: the receive path taken apart at the public entry
   point of each layer and timed from outside.  The bench calls
   [Packet.Segment.parse] and [Tcpcore.Stack.handle_segment] itself,
   then [poll_output] and, when due, [advance_clock]; one span is
   recorded around each call.  Consecutive spans share their boundary
   reads, so each span's duration carries exactly one read of the
   probe, which calibration measures and self time subtracts.

   The stack does not expose its demultiplexer's timing, so demux is
   timed on a mirror [Tcpcore.Conn_table] built with the stack's default
   spec and kept in lockstep with the real stack: a lookup per datagram,
   an insert whenever the stack accepts a SYN, and [note_send] for every
   reply the stack transmits through a PCB.  [demux.parity] reports
   whether its lookup statistics ended equal to the stack's.  A pass
   times either the stack or the mirror, never both: a mirror walking
   its own copy of the chains between the stack's calls would evict the
   stack's working set and slow the spans being measured. *)

let names =
  [| "rx"; "segment.parse"; "stack.handle_segment"; "stack.poll_output";
     "timer.advance_clock"; "demux.lookup"; "demux.insert" |]

let rx = 0
let parse = 1
let handle = 2
let poll = 3
let advance = 4
let lookup = 5
let insert = 6

(* Spans in preallocated parallel arrays: name index, start, stop,
   parent span (-1 for a root) and datagram index. *)
type log = {
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  datagram : int array;
  mutable len : int;
}

(* Spans one datagram can record: rx, parse, handle_segment, poll_output
   and advance_clock around the stack; lookup and insert on the mirror. *)
let stack_spans = 5
let mirror_spans = 2

let create_log datagrams ~spans =
  let cap = datagrams * spans in
  { name = Array.make cap 0; start = Array.make cap 0; stop = Array.make cap 0;
    parent = Array.make cap 0; datagram = Array.make cap 0; len = 0 }

let span log name ~parent ~datagram start stop =
  let k = log.len in
  log.name.(k) <- name;
  log.start.(k) <- start;
  log.stop.(k) <- stop;
  log.parent.(k) <- parent;
  log.datagram.(k) <- datagram;
  log.len <- k + 1;
  k

(* The cost of one probe read, as every span's duration includes it. *)
let calibrate read =
  let n = 200_000 in
  let t0 = read () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (read ()))
  done;
  float_of_int (read () - t0) /. float_of_int n

(* Words allocated on this domain's minor heap, as an int. *)
let words () = int_of_float (Gc.minor_words ())

let default_demux =
  Demux.Registry.Sequent
    { chains = Demux.Sequent.default_chains;
      hasher = Hashing.Hashers.multiplicative }

let mirror () =
  let m = Tcpcore.Conn_table.create default_demux in
  Tcpcore.Conn_table.listen m ~port:Direct.port ();
  m

(* The packet class the stack hands its demultiplexer. *)
let kind (s : Packet.Segment.t) =
  let f = s.tcp.Packet.Tcp_header.flags in
  if
    String.length s.payload = 0
    && f.Packet.Tcp_header.ack
    && (not f.Packet.Tcp_header.syn)
    && not f.Packet.Tcp_header.fin
  then Demux.Types.Pure_ack
  else Demux.Types.Data

type pass = {
  datagrams : int;
  self : float array;  (* summed self time per span name, probe read removed *)
  count : int array;  (* spans per name *)
  rx_total : float;  (* summed rx span durations *)
  fallbacks : int;  (* mirror lookups answered by the listener *)
  parity : bool;  (* mirror and stack ended with equal lookup statistics *)
  counters : Direct.counters;
  problems : string list;
}

let summarize log ~read_cost =
  let child = Array.make log.len 0 in
  for k = 0 to log.len - 1 do
    let p = log.parent.(k) in
    if p >= 0 then child.(p) <- child.(p) + (log.stop.(k) - log.start.(k))
  done;
  let self = Array.make (Array.length names) 0.0
  and count = Array.make (Array.length names) 0
  and rx_total = ref 0.0 in
  for k = 0 to log.len - 1 do
    let nm = log.name.(k) and d = log.stop.(k) - log.start.(k) in
    if nm = rx then rx_total := !rx_total +. float_of_int d;
    self.(nm) <- self.(nm) +. float_of_int (d - child.(k)) -. read_cost;
    count.(nm) <- count.(nm) + 1
  done;
  (self, count, !rx_total)

(* One decomposed pass on a fresh stack (and mirror, with [mirror]).
   [read] is the probe: the monotonic clock for traced passes, the
   minor-words counter for the allocation pass.  Spans are recorded
   around the stack's calls when [stack] holds, around the mirror's
   when [mirror] holds. *)
let pass ~read ~read_cost ~stack ~mirror:with_mirror log tr =
  Gc.full_major ();
  let st = Direct.create () and m = mirror () in
  let ds = tr.Workload.datagrams in
  log.len <- 0;
  let read_stack () = if stack then read () else 0 in
  let errors = ref 0 and replies = ref 0 and timer_actions = ref 0
  and fallbacks = ref 0 in
  let note_send (reply : Packet.Segment.t) =
    (* RSTs go out without a PCB, so the stack does no send bookkeeping. *)
    if not reply.tcp.Packet.Tcp_header.flags.Packet.Tcp_header.rst then
      Tcpcore.Conn_table.note_send m
        (Packet.Flow.reverse (Packet.Segment.flow reply))
  in
  for i = 0 to Array.length ds - 1 do
    let r0 = read_stack () in
    let parsed = Packet.Segment.parse ds.(i) ~off:0 in
    let r1 = read_stack () in
    let seg =
      match parsed with
      | Ok s when Packet.Ipv4.equal_addr s.ip.Packet.Ipv4.dst Direct.local_addr
        ->
        Tcpcore.Stack.handle_segment st s;
        Some s
      | Ok _ | Error _ ->
        incr errors;
        None
    in
    let r2 = read_stack () in
    let out = Tcpcore.Stack.poll_output st in
    let r3 = read_stack () in
    let out_timer = ref [] and r4 = ref r3 in
    if Direct.timer_due i then begin
      timer_actions :=
        !timer_actions
        + Tcpcore.Stack.advance_clock st ~now:(Direct.virtual_now i);
      out_timer := Tcpcore.Stack.poll_output st;
      r4 := read_stack ()
    end;
    if stack then begin
      let root = span log rx ~parent:(-1) ~datagram:i r0 !r4 in
      ignore (span log parse ~parent:root ~datagram:i r0 r1);
      ignore (span log handle ~parent:root ~datagram:i r1 r2);
      ignore (span log poll ~parent:root ~datagram:i r2 r3);
      if Direct.timer_due i then
        ignore (span log advance ~parent:root ~datagram:i r3 !r4)
    end;
    replies := !replies + List.length out + List.length !out_timer;
    if with_mirror then begin
      (match seg with
      | None -> ()
      | Some s -> (
        let flow = Packet.Segment.flow s and kind = kind s in
        let m0 = read () in
        let found = Tcpcore.Conn_table.lookup m ~kind flow in
        let m1 = read () in
        ignore (span log lookup ~parent:(-1) ~datagram:i m0 m1);
        match found with
        | Tcpcore.Conn_table.Listener () ->
          incr fallbacks;
          let f = s.tcp.Packet.Tcp_header.flags in
          if f.Packet.Tcp_header.syn && not f.Packet.Tcp_header.ack then begin
            let a0 = read () in
            ignore (Tcpcore.Conn_table.add_connection m flow ());
            let a1 = read () in
            ignore (span log insert ~parent:(-1) ~datagram:i a0 a1)
          end
        | Tcpcore.Conn_table.Connection _ | Tcpcore.Conn_table.No_match -> ()));
      List.iter note_send out;
      List.iter note_send !out_timer
    end
  done;
  let self, count, rx_total = summarize log ~read_cost in
  let stats t = Demux.Lookup_stats.snapshot t in
  { datagrams = Array.length ds; self; count; rx_total; fallbacks = !fallbacks;
    parity =
      with_mirror
      && stats (Tcpcore.Stack.demux_stats st)
         = stats (Tcpcore.Conn_table.demux m).Demux.Registry.stats;
    counters =
      Direct.counters st ~errors:!errors ~replies:!replies
        ~timer_actions:!timer_actions;
    problems = Direct.audit tr st }

(* Mean self time (or words) of one span name, per span. *)
let per_span p nm =
  if p.count.(nm) = 0 then 0.0 else p.self.(nm) /. float_of_int p.count.(nm)

(* Per datagram: the layers on the rx path, and the part of
   [handle_segment] that is not the demux lookup. *)
let per_datagram p nm = p.self.(nm) /. float_of_int p.datagrams
let layers p = per_datagram p parse +. per_datagram p handle
               +. per_datagram p poll +. per_datagram p advance
let state p = per_datagram p handle -. per_datagram p lookup

(* [Segment.peek_flow], the steering layer's header read, over the
   whole trace. *)
let peek_ns ds =
  let t0 = Obs.Clock.now_ns () in
  Array.iter
    (fun d -> ignore (Sys.opaque_identity (Packet.Segment.peek_flow d ~off:0)))
    ds;
  float_of_int (Obs.Clock.now_ns () - t0) /. float_of_int (Array.length ds)

(* The spans of the first [limit] datagrams of each log, as compact
   JSON: times in ns from the log's first span. *)
let write_spans ~path ~header ~limit logs =
  let spans log =
    let base = if log.len = 0 then 0 else log.start.(0) in
    let acc = ref [] in
    for k = log.len - 1 downto 0 do
      if log.datagram.(k) < limit then
        acc :=
          Obs.Json.Obj
            [ ("id", Obs.Json.Int k);
              ("name", Obs.Json.String names.(log.name.(k)));
              ("start", Obs.Json.Int (log.start.(k) - base));
              ("end", Obs.Json.Int (log.stop.(k) - base));
              ("parent",
               if log.parent.(k) < 0 then Obs.Json.Null
               else Obs.Json.Int log.parent.(k));
              ("datagram", Obs.Json.Int log.datagram.(k)) ]
          :: !acc
    done;
    Obs.Json.List !acc
  in
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          (header @ List.map (fun (key, log) -> (key, spans log)) logs)));
  output_char oc '\n';
  close_out oc
