(* Index entry: the chain node plus its bucket, so [remove]/[note_send]
   never re-hash a flow the index already proved present. *)
type 'a entry = { node : 'a Chain.node; home : int }

type 'a t = {
  buckets : 'a Chain.t array;
  hasher : Hashing.Hashers.t;
  index : 'a entry Flat_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let name = "hashed-mtf"

let create ?(chains = Sequent.default_chains)
    ?(hasher = Hashing.Hashers.multiplicative) () =
  if chains <= 0 then invalid_arg "Hashed_mtf.create: chains <= 0";
  { buckets = Array.init chains (fun _ -> Chain.create ()); hasher;
    index = Flat_table.create ~initial_capacity:64 ();
    stats = Lookup_stats.create (); next_id = 0 }

let chains t = Array.length t.buckets

(* Allocation-free bucket selection from the flow's fields. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.buckets) flow

let insert t flow data =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  if Flat_table.mem t.index ~w0 ~w1 then
    invalid_arg "Hashed_mtf.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let home = bucket_index t flow in
  let node = Chain.push_front t.buckets.(home) pcb in
  Flat_table.replace t.index ~w0 ~w1 { node; home };
  Lookup_stats.note_insert t.stats;
  pcb

let remove t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Flat_table.find_opt t.index ~w0 ~w1 with
  | None -> None
  | Some { node; home } ->
    Chain.remove t.buckets.(home) node;
    Flat_table.remove t.index ~w0 ~w1;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  let chain = t.buckets.(bucket_index t flow) in
  match
    Chain.scan chain ~stats:t.stats ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow)
  with
  | Some node ->
    Chain.move_to_front chain node;
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    Some pcb
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let note_send t flow =
  match
    Flat_table.find_opt t.index ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow)
  with
  | Some { node; _ } -> Pcb.note_tx (Chain.pcb node)
  | None -> ()

let stats t = t.stats
let length t = Flat_table.length t.index
let iter f t = Array.iter (fun chain -> Chain.iter f chain) t.buckets
