type 'a t = {
  chain : 'a Chain.t;
  index : 'a Chain.node Flow_table.t;
  stats : Lookup_stats.t;
  mutable cache : 'a Chain.node option;
  mutable next_id : int;
}

let name = "bsd"

let create () =
  { chain = Chain.create (); index = Flow_table.create 64;
    stats = Lookup_stats.create (); cache = None; next_id = 0 }

let insert t flow data =
  if Flow_table.mem t.index flow then invalid_arg "Bsd.insert: duplicate flow";
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
    (match t.cache with
    | Some cached when cached == node -> t.cache <- None
    | Some _ | None -> ());
    Chain.remove t.chain node;
    Flow_table.remove t.index flow;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

(* A hit returns the cache's own option cell. *)
let cache_probe t ~w0 ~w1 =
  match t.cache with
  | None -> None
  | Some node as cached ->
    Lookup_stats.examine t.stats ();
    if Chain.matches node ~w0 ~w1 then cached else None

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match cache_probe t ~w0 ~w1 with
  | Some node ->
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:true ~found:true;
    Some pcb
  | None -> (
    match Chain.scan t.chain ~stats:t.stats ~w0 ~w1 with
    | Some node as found ->
      (* Store the scan's own option cell rather than a fresh [Some]. *)
      t.cache <- found;
      let pcb = Chain.pcb node in
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
let length t = Chain.length t.chain
let iter f t = Chain.iter f t.chain

let cached_flow t =
  Option.map (fun node -> (Chain.pcb node).Pcb.flow) t.cache
