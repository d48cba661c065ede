type 'a t = {
  chain : 'a Chain.t;
  index : 'a Chain.node Flow_table.t;
  stats : Lookup_stats.t;
  mutable received : 'a Chain.node option;
  mutable sent : 'a Chain.node option;
  mutable next_id : int;
}

let name = "sr-cache"

let create () =
  { chain = Chain.create (); index = Flow_table.create 64;
    stats = Lookup_stats.create (); received = None; sent = None;
    next_id = 0 }

let insert t flow data =
  if Flow_table.mem t.index flow then
    invalid_arg "Sr_cache.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let node = Chain.push_front t.chain pcb in
  Flow_table.replace t.index flow node;
  Lookup_stats.note_insert t.stats;
  pcb

let remove t flow =
  match Flow_table.find_opt t.index flow with
  | None -> None
  | Some node ->
    (match t.received with
    | Some cached when cached == node -> t.received <- None
    | Some _ | None -> ());
    (match t.sent with
    | Some cached when cached == node -> t.sent <- None
    | Some _ | None -> ());
    Chain.remove t.chain node;
    Flow_table.remove t.index flow;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

(* A hit returns the slot's own option cell. *)
let probe t slot ~w0 ~w1 =
  match slot with
  | None -> None
  | Some node as cached ->
    Lookup_stats.examine t.stats ();
    if Chain.matches node ~w0 ~w1 then cached else None

(* [found] is the probed slot's or the scan's own option cell, so
   refilling [received] allocates nothing. *)
let finish t ~hit_cache = function
  | Some node as found ->
    t.received <- found;
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache ~found:true;
    Some pcb
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let lookup t ?(kind = Types.Data) flow =
  Lookup_stats.begin_lookup t.stats;
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  let first, second =
    match kind with
    | Types.Data -> (t.received, t.sent)
    | Types.Pure_ack -> (t.sent, t.received)
  in
  match probe t first ~w0 ~w1 with
  | Some _ as found -> finish t ~hit_cache:true found
  | None -> (
    match probe t second ~w0 ~w1 with
    | Some _ as found -> finish t ~hit_cache:true found
    | None ->
      finish t ~hit_cache:false (Chain.scan t.chain ~stats:t.stats ~w0 ~w1))

let note_send t flow =
  match Flow_table.find_opt t.index flow with
  | Some node ->
    t.sent <- Some node;
    Pcb.note_tx (Chain.pcb node)
  | None -> ()

let stats t = t.stats
let length t = Chain.length t.chain
let iter f t = Chain.iter f t.chain

let cached_received_flow t =
  Option.map (fun node -> (Chain.pcb node).Pcb.flow) t.received

let cached_sent_flow t =
  Option.map (fun node -> (Chain.pcb node).Pcb.flow) t.sent
