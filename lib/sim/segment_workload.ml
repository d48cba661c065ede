type interleave = Sequential | Round_robin | Shuffled

type config = {
  clients : int;
  requests_per_client : int;
  payload : int;
  close_after : bool;
  interleave : interleave;
  seed : int;
}

let config ?(requests_per_client = 4) ?(payload = 64) ?(close_after = false)
    ?(interleave = Round_robin) ?(seed = 42) ~clients () =
  if clients <= 0 then invalid_arg "Segment_workload.config: clients <= 0";
  if payload <= 0 then invalid_arg "Segment_workload.config: payload <= 0";
  if requests_per_client < 0 then
    invalid_arg "Segment_workload.config: requests_per_client < 0";
  { clients; requests_per_client; payload; close_after; interleave; seed }

type trace = {
  datagrams : bytes array;
  flows : Packet.Flow.t array;
  payload_bytes : int;
  payload_bytes_per_flow : int;
  syns : int;
  fins : int;
}

(* The client's own ISS: the reversed flow is the connection from the
   client's point of view, so both sides draw from the same per-flow
   function without colliding. *)
let client_iss flow = Tcpcore.Stack.deterministic_iss (Packet.Flow.reverse flow)

(* One client's segments, in its own order.  [flow] is server-view;
   segments travel client -> server, so src is the remote endpoint. *)
let flow_segments cfg flow =
  let src = flow.Packet.Flow.remote and dst = flow.Packet.Flow.local in
  let c_iss = client_iss flow in
  let s_ack = Int32.add (Tcpcore.Stack.deterministic_iss flow) 1l in
  let seg ?payload ~flags ~seq ~ack_number () =
    Packet.Segment.make ?payload ~flags ~seq ~ack_number ~src ~dst ()
  in
  let data k =
    (* Deterministic, flow-independent fill. *)
    String.make cfg.payload (Char.chr (Char.code 'a' + (k mod 26)))
  in
  let syn =
    seg ~flags:Packet.Tcp_header.flag_syn ~seq:c_iss ~ack_number:0l ()
  in
  let hs_ack =
    seg ~flags:Packet.Tcp_header.flag_ack ~seq:(Int32.add c_iss 1l)
      ~ack_number:s_ack ()
  in
  let requests =
    List.init cfg.requests_per_client (fun k ->
        seg ~payload:(data k) ~flags:Packet.Tcp_header.flag_psh_ack
          ~seq:(Int32.add c_iss (Int32.of_int (1 + (k * cfg.payload))))
          ~ack_number:s_ack ())
  in
  let fin =
    if not cfg.close_after then []
    else
      [ seg ~flags:Packet.Tcp_header.flag_fin_ack
          ~seq:
            (Int32.add c_iss
               (Int32.of_int (1 + (cfg.requests_per_client * cfg.payload))))
          ~ack_number:s_ack () ]
  in
  (syn :: hs_ack :: requests) @ fin

let generate cfg =
  let flows = Array.init cfg.clients Topology.flow_of_client in
  let queues = Array.map (flow_segments cfg) flows in
  let merged =
    match cfg.interleave with
    | Sequential -> List.concat (Array.to_list queues)
    | Round_robin ->
      let acc = ref [] in
      let continue = ref true in
      while !continue do
        continue := false;
        Array.iteri
          (fun i q ->
            match q with
            | [] -> ()
            | s :: rest ->
              queues.(i) <- rest;
              acc := s :: !acc;
              continue := true)
          queues
      done;
      List.rev !acc
    | Shuffled ->
      (* Random merge preserving per-flow order: repeatedly pick a
         non-empty queue and pop its head. *)
      let rng = Numerics.Rng.create ~seed:cfg.seed in
      let nonempty = ref (Array.to_list (Array.mapi (fun i _ -> i) queues)) in
      let acc = ref [] in
      while !nonempty <> [] do
        let live = Array.of_list !nonempty in
        let i = live.(Numerics.Rng.int rng ~bound:(Array.length live)) in
        (match queues.(i) with
        | [] -> assert false
        | s :: rest ->
          queues.(i) <- rest;
          acc := s :: !acc;
          if rest = [] then
            nonempty := List.filter (fun j -> j <> i) !nonempty);
      done;
      List.rev !acc
  in
  let datagrams =
    Array.of_list (List.map Packet.Segment.to_bytes merged)
  in
  let per_flow = cfg.requests_per_client * cfg.payload in
  { datagrams; flows; payload_bytes = per_flow * cfg.clients;
    payload_bytes_per_flow = per_flow; syns = cfg.clients;
    fins = (if cfg.close_after then cfg.clients else 0) }
