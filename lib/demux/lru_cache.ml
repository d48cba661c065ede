(* The cache is itself a small Chain in LRU order (front = most
   recent); probing it scans front-to-back, charging per comparison —
   exactly what a K-entry cache costs in comparisons. *)

type 'a t = {
  store : 'a Sequent.t;                    (* the full PCB list *)
  cache : 'a Chain.t;                      (* duplicate PCB refs in LRU order *)
  cache_nodes : 'a Chain.node Flow_table.t;(* flow -> cache node *)
  capacity : int;
}

let create ?(entries = 8) () =
  if entries <= 0 then invalid_arg "Lru_cache.create: entries <= 0";
  { store = Sequent.create ~chains:1 (); cache = Chain.create ();
    cache_nodes = Flow_table.create 16; capacity = entries }

let insert t = Sequent.insert t.store

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
  cache_evict t flow;
  Sequent.remove t.store flow

let lookup t ?kind:_ flow =
  let stats = Sequent.stats t.store in
  Lookup_stats.begin_lookup stats;
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Chain.scan t.cache ~stats ~w0 ~w1 with
  | Some cache_node as hit ->
    Chain.move_to_front t.cache cache_node;
    Sequent.finish t.store ~hit_cache:true hit
  | None -> (
    let list = (Sequent.bucket t.store 0).Sequent.chain in
    match Chain.scan list ~stats ~w0 ~w1 with
    | Some node as found ->
      cache_admit t (Chain.pcb node);
      Sequent.finish t.store ~hit_cache:false found
    | None -> Sequent.finish t.store ~hit_cache:false None)

let note_send t = Sequent.note_send t.store
let stats t = Sequent.stats t.store
let length t = Sequent.length t.store
let iter f t = Sequent.iter f t.store
