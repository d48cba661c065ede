(* The receive-path workloads.  Each builds a wire-format datagram trace
   from a seed, and knows what a correct replay leaves in the server's
   connection table. *)

type role = Client | Spoofed

type trace = {
  datagrams : bytes array;
  roles : role Demux.Flow_table.t;  (* every flow the trace opens, server view *)
  clients : int;
  spoofed : int;
  bytes_per_client : int;
}

type t = {
  name : string;
  smp : bool;  (* replayed through Parallel.Smp instead of one stack *)
  build : seed:int -> smoke:bool -> trace;
}

let server = Sim.Topology.server

let segment_trace ~clients ~requests ~payload ~interleave ~seed =
  let tr =
    Sim.Segment_workload.generate
      (Sim.Segment_workload.config ~clients ~requests_per_client:requests
         ~payload ~interleave ~seed ())
  in
  let roles = Demux.Flow_table.create clients in
  Array.iter
    (fun f -> Demux.Flow_table.replace roles f Client)
    tr.Sim.Segment_workload.flows;
  { datagrams = tr.Sim.Segment_workload.datagrams; roles; clients;
    spoofed = 0;
    bytes_per_client = tr.Sim.Segment_workload.payload_bytes_per_flow }

(* The paper's TPC/A operating point: many persistent connections and
   almost no packet trains, so consecutive datagrams rarely share a
   flow and the demultiplexer walks long chains. *)
let oltp ~seed ~smoke =
  segment_trace
    ~clients:(if smoke then 200 else 2000)
    ~requests:30 ~payload:64 ~interleave:Sim.Segment_workload.Shuffled ~seed

(* Long trains of full-size segments: every lookup hits the one-entry
   cache, so parsing, checksums and payload copies dominate. *)
let bulk ~seed ~smoke =
  segment_trace ~clients:8
    ~requests:(if smoke then 400 else 4000)
    ~payload:1460 ~interleave:Sim.Segment_workload.Sequential ~seed

(* SYNs from distinct spoofed sources: client indices at or above
   [first], drawn without replacement, so none collides with a real
   client. *)
let spoofed_flows rng ~first ~count =
  let seen = Hashtbl.create count in
  let flows = Array.make count (Sim.Topology.flow_of_client first) in
  let k = ref 0 in
  while !k < count do
    let i = first + Numerics.Rng.int rng ~bound:((1 lsl 24) - first) in
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      flows.(!k) <- Sim.Topology.flow_of_client i;
      incr k
    end
  done;
  flows

let syn rng flow =
  Packet.Segment.to_bytes
    (Packet.Segment.make
       ~seq:(Int64.to_int32 (Numerics.Rng.bits64 rng))
       ~ack_number:0l ~flags:Packet.Tcp_header.flag_syn
       ~src:flow.Packet.Flow.remote ~dst:flow.Packet.Flow.local ())

(* [a] and [b] taken alternately, then whatever remains of the longer. *)
let alternate a b =
  let na = Array.length a and nb = Array.length b in
  let ia = ref 0 and ib = ref 0 in
  Array.init (na + nb) (fun k ->
      if !ib >= nb || (!ia < na && k land 1 = 0) then begin
        incr ia;
        a.(!ia - 1)
      end
      else begin
        incr ib;
        b.(!ib - 1)
      end)

(* The write side: every spoofed SYN costs a lookup miss, a listener
   fallback, an insert, a SYN-ACK and a timer, and the table grows to
   tens of PCBs per chain underneath the real clients' traffic. *)
let synflood ~seed ~smoke =
  let clients, syns = if smoke then (50, 1_100) else (500, 11_000) in
  let legit =
    segment_trace ~clients ~requests:20 ~payload:64
      ~interleave:Sim.Segment_workload.Shuffled ~seed
  in
  let rng = Numerics.Rng.create ~seed in
  let spoofed = spoofed_flows rng ~first:clients ~count:syns in
  Array.iter (fun f -> Demux.Flow_table.replace legit.roles f Spoofed) spoofed;
  { legit with
    datagrams = alternate legit.datagrams (Array.map (syn rng) spoofed);
    spoofed = syns }

let all =
  [ { name = "oltp"; smp = false; build = oltp };
    { name = "bulk"; smp = false; build = bulk };
    { name = "synflood"; smp = false; build = synflood };
    { name = "smp-oltp"; smp = true; build = oltp } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The conservation oracle: every client [Established] with all its
   request bytes delivered, every spoofed flow still half-open in
   [Syn_received], and nothing else resident.  [visit] enumerates the
   resident connections as (flow, state, bytes_in). *)
let audit tr visit =
  let clients = ref 0 and spoofed = ref 0 and problems = ref [] in
  let problem fmt =
    Printf.ksprintf
      (fun s -> if List.length !problems < 5 then problems := s :: !problems)
      fmt
  in
  visit (fun flow state bytes_in ->
      match Demux.Flow_table.find_opt tr.roles flow with
      | Some Client
        when Tcpcore.State.equal state Tcpcore.State.Established
             && bytes_in = tr.bytes_per_client ->
        incr clients
      | Some Spoofed when Tcpcore.State.equal state Tcpcore.State.Syn_received
        ->
        incr spoofed
      | Some _ ->
        problem "%s ended %s with %d bytes in" (Packet.Flow.to_string flow)
          (Tcpcore.State.to_string state) bytes_in
      | None -> problem "unexpected flow %s" (Packet.Flow.to_string flow));
  if !clients <> tr.clients then
    problem "%d of %d clients established" !clients tr.clients;
  if !spoofed <> tr.spoofed then
    problem "%d of %d spoofed flows half-open" !spoofed tr.spoofed;
  List.rev !problems
