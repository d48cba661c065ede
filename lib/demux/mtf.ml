type 'a t = {
  chain : 'a Chain.t;
  index : 'a Chain.node Flow_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let name = "mtf"

let create () =
  { chain = Chain.create (); index = Flow_table.create 64;
    stats = Lookup_stats.create (); next_id = 0 }

let insert t flow data =
  if Flow_table.mem t.index flow then invalid_arg "Mtf.insert: duplicate flow";
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
    Chain.remove t.chain node;
    Flow_table.remove t.index flow;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  match
    Chain.scan t.chain ~stats:t.stats ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow)
  with
  | Some node ->
    Chain.move_to_front t.chain node;
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    Some pcb
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let note_send t flow =
  match Flow_table.find_opt t.index flow with
  | Some node -> Pcb.note_tx (Chain.pcb node)
  | None -> ()

let stats t = t.stats
let length t = Chain.length t.chain
let iter f t = Chain.iter f t.chain

let front_flow t =
  match Chain.to_list t.chain with
  | [] -> None
  | pcb :: _ -> Some pcb.Pcb.flow
