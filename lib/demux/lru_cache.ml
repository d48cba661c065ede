(* The cache is itself a small Chain in LRU order (front = most
   recent); probing it scans front-to-back, charging per comparison —
   exactly what a K-entry cache costs in comparisons. *)

type 'a t = {
  list : 'a Chain.t;                       (* the full PCB list *)
  cache : 'a Chain.t;                      (* duplicate PCB refs in LRU order *)
  cache_nodes : 'a Chain.node Flow_table.t;(* flow -> cache node *)
  index : 'a Chain.node Flow_table.t;      (* flow -> list node *)
  capacity : int;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let name = "lru-cache"

let create ?(entries = 8) () =
  if entries <= 0 then invalid_arg "Lru_cache.create: entries <= 0";
  { list = Chain.create (); cache = Chain.create ();
    cache_nodes = Flow_table.create 16; index = Flow_table.create 64;
    capacity = entries; stats = Lookup_stats.create (); next_id = 0 }

let entries t = t.capacity

let insert t flow data =
  if Flow_table.mem t.index flow then
    invalid_arg "Lru_cache.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let node = Chain.push_front t.list pcb in
  Flow_table.replace t.index flow node;
  Lookup_stats.note_insert t.stats;
  pcb

let cache_evict t flow =
  match Flow_table.find_opt t.cache_nodes flow with
  | Some node ->
    Chain.remove t.cache node;
    Flow_table.remove t.cache_nodes flow
  | None -> ()

let cache_admit t pcb =
  cache_evict t pcb.Pcb.flow;
  (* Evict from the LRU tail until there is room. *)
  while Chain.length t.cache >= t.capacity do
    match Chain.tail_pcb t.cache with
    | Some tail -> cache_evict t tail.Pcb.flow
    | None -> assert false
  done;
  let node = Chain.push_front t.cache pcb in
  Flow_table.replace t.cache_nodes pcb.Pcb.flow node

let remove t flow =
  match Flow_table.find_opt t.index flow with
  | None -> None
  | Some node ->
    cache_evict t flow;
    Chain.remove t.list node;
    Flow_table.remove t.index flow;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Chain.scan t.cache ~stats:t.stats ~w0 ~w1 with
  | Some cache_node ->
    Chain.move_to_front t.cache cache_node;
    let pcb = Chain.pcb cache_node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:true ~found:true;
    Some pcb
  | None -> (
    match Chain.scan t.list ~stats:t.stats ~w0 ~w1 with
    | Some node ->
      let pcb = Chain.pcb node in
      cache_admit t pcb;
      Pcb.note_rx pcb;
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
      Some pcb
    | None ->
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
      None)

let note_send t flow =
  match Flow_table.find_opt t.index flow with
  | Some node -> Pcb.note_tx (Chain.pcb node)
  | None -> ()

let stats t = t.stats
let length t = Chain.length t.list
let iter f t = Chain.iter f t.list
