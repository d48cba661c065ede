(* Index entry: the chain node plus its bucket at the current table
   size; [grow] rebuilds the index with fresh homes. *)
type 'a entry = { node : 'a Chain.node; home : int }

type 'a t = {
  mutable chains : 'a Chain.t array;
  hasher : Hashing.Hashers.t;
  mutable index : 'a entry Flat_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
  mutable population : int;
}

let name = "resizing-hash"

let create ?(initial_buckets = 16) ?(hasher = Hashing.Hashers.multiplicative)
    () =
  if initial_buckets <= 0 then
    invalid_arg "Resizing_hash.create: initial_buckets <= 0";
  { chains = Array.init initial_buckets (fun _ -> Chain.create ()); hasher;
    index = Flat_table.create ~initial_capacity:64 ();
    stats = Lookup_stats.create (); next_id = 0; population = 0 }

let buckets t = Array.length t.chains

(* Allocation-free bucket selection from the flow's fields. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.chains) flow

let grow t =
  let old = t.chains in
  t.chains <- Array.init (2 * Array.length old) (fun _ -> Chain.create ());
  t.index <- Flat_table.create ~initial_capacity:(2 * t.population) ();
  Array.iter
    (fun chain ->
      Chain.iter
        (fun pcb ->
          let flow = pcb.Pcb.flow in
          let home = bucket_index t flow in
          let node = Chain.push_front t.chains.(home) pcb in
          Flat_table.replace t.index ~w0:(Flow_key.w0_of_flow flow)
            ~w1:(Flow_key.w1_of_flow flow) { node; home })
        chain)
    old

let insert t flow data =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  if Flat_table.mem t.index ~w0 ~w1 then
    invalid_arg "Resizing_hash.insert: duplicate flow";
  if t.population >= Array.length t.chains then grow t;
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let home = bucket_index t flow in
  let node = Chain.push_front t.chains.(home) pcb in
  Flat_table.replace t.index ~w0 ~w1 { node; home };
  t.population <- t.population + 1;
  Lookup_stats.note_insert t.stats;
  pcb

let remove t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Flat_table.find_opt t.index ~w0 ~w1 with
  | None -> None
  | Some { node; home } ->
    Chain.remove t.chains.(home) node;
    Flat_table.remove t.index ~w0 ~w1;
    t.population <- t.population - 1;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  match
    Chain.scan t.chains.(bucket_index t flow) ~stats:t.stats
      ~w0:(Flow_key.w0_of_flow flow) ~w1:(Flow_key.w1_of_flow flow)
  with
  | Some node ->
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
let length t = t.population
let iter f t = Array.iter (fun chain -> Chain.iter f chain) t.chains
