(* The cache is a one-chain Sequent store of its own, keyed by the
   cached flows, in LRU order (front = most recent).  Each entry's
   data is the store's chain node.  Probing the cache scans its chain
   front-to-back, charging per comparison — exactly what a K-entry
   cache costs in comparisons; its own cache slot is never used. *)

type 'a t = {
  store : 'a Sequent.t;               (* the full PCB list *)
  cache : 'a Chain.node Sequent.t;    (* the K most recently found *)
  capacity : int;
}

let create ?(entries = 8) () =
  if entries <= 0 then invalid_arg "Lru_cache.create: entries <= 0";
  { store = Sequent.create ~chains:1 (); cache = Sequent.create ~chains:1 ();
    capacity = entries }

let insert t = Sequent.insert t.store
let cache_chain t = (Sequent.bucket t.cache 0).Sequent.chain

(* Called after a cache miss, so the flow is not cached yet. *)
let cache_admit t node =
  (* Evict from the LRU tail until there is room. *)
  while Sequent.length t.cache >= t.capacity do
    match Chain.tail_pcb (cache_chain t) with
    | Some tail -> ignore (Sequent.remove t.cache tail.Pcb.flow)
    | None -> assert false
  done;
  ignore (Sequent.insert t.cache (Chain.pcb node).Pcb.flow node)

let remove t flow =
  ignore (Sequent.remove t.cache flow);
  Sequent.remove t.store flow

let lookup t _ ~w0 ~w1 =
  let stats = Sequent.stats t.store in
  Lookup_stats.begin_lookup stats;
  match Chain.scan (cache_chain t) ~stats ~w0 ~w1 with
  | Some cache_node ->
    Chain.move_to_front (cache_chain t) cache_node;
    Lookup_stats.end_lookup stats ~hit_cache:true ~found:true;
    Chain.pcb (Chain.pcb cache_node).Pcb.data
  | None -> (
    let list = (Sequent.bucket t.store 0).Sequent.chain in
    match Chain.scan list ~stats ~w0 ~w1 with
    | Some node as found ->
      cache_admit t node;
      Sequent.finish t.store ~hit_cache:false found
    | None -> Sequent.finish t.store ~hit_cache:false None)

let note_send _ _ = ()
let stats t = Sequent.stats t.store
let length t = Sequent.length t.store
let iter f t = Sequent.iter f t.store
