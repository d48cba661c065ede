(* Quickstart: build a demultiplexer, feed it real wire-format TCP
   segments, and read the paper's figure of merit (PCBs examined).

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A server at 192.168.1.1:8888 with three client connections. *)
  let server = Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 192 168 1 1) 8888 in
  let client i =
    Packet.Flow.endpoint (Packet.Ipv4.addr_of_octets 10 0 0 i) (4000 + i)
  in
  let flows = List.init 3 (fun i -> Packet.Flow.v ~local:server ~remote:(client (i + 1))) in

  (* Pick an algorithm: the paper's winner, 19 hash chains each with a
     one-entry cache.  Try Demux.Registry.Bsd here to feel the
     difference at scale. *)
  let demux =
    Demux.Registry.create
      (Demux.Registry.Sequent
         { chains = 19; hasher = Hashing.Hashers.multiplicative })
  in
  List.iter (fun flow -> ignore (demux.Demux.Registry.insert flow ())) flows;

  (* A segment arrives from client 2 — as bytes on the wire. *)
  let segment =
    Packet.Segment.make ~src:(client 2) ~dst:server
      ~flags:Packet.Tcp_header.flag_psh_ack ~seq:100l ~payload:"BEGIN TXN 42"
      ()
  in
  let wire = Packet.Segment.to_bytes segment in
  Printf.printf "on the wire: %d bytes (IPv4 + TCP + %d payload)\n"
    (Bytes.length wire)
    (String.length segment.Packet.Segment.payload);

  (* Receive path: parse (checksums verified), build the 96-bit flow
     key, demultiplex on its two packed words. *)
  (match Packet.Segment.parse wire ~off:0 with
  | Error message -> failwith message
  | Ok received -> (
    let flow = Packet.Segment.flow received in
    Format.printf "flow key: %a@." Packet.Flow.pp flow;
    match
      demux.Demux.Registry.lookup
        (Demux.Types.kind_of_segment received)
        ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow)
    with
    | pcb -> Format.printf "matched %a@." Demux.Pcb.pp pcb
    | exception Not_found -> print_endline "no PCB (would send RST)"));

  (* The accounting every algorithm shares. *)
  Format.printf "@.%a@." Demux.Lookup_stats.pp_snapshot
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats);

  (* The same lookup again now hits the chain's one-entry cache. *)
  let flow2 = Packet.Flow.v ~local:server ~remote:(client 2) in
  ignore
    (demux.Demux.Registry.lookup Demux.Types.Data ~w0:(Packet.Flow.w0 flow2)
       ~w1:(Packet.Flow.w1 flow2));
  Format.printf "@.after a repeat lookup:@.%a@." Demux.Lookup_stats.pp_snapshot
    (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats)
