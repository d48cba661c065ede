type 'a bucket = {
  chain : 'a Chain.t;
  mutable cache : 'a Chain.node option;
}

(* Index entry: the chain node plus the bucket it lives in, so
   [remove] never re-hashes the flow the index already proved
   present. *)
type 'a entry = { node : 'a Chain.node; home : int }

type 'a t = {
  buckets : 'a bucket array;
  hasher : Hashing.Hashers.t;
  index : 'a entry Flat_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let name = "sequent"
let default_chains = 19

let create ?(chains = default_chains) ?(hasher = Hashing.Hashers.multiplicative)
    () =
  if chains <= 0 then invalid_arg "Sequent.create: chains <= 0";
  { buckets =
      Array.init chains (fun _ -> { chain = Chain.create (); cache = None });
    hasher; index = Flat_table.create ~initial_capacity:64 ();
    stats = Lookup_stats.create (); next_id = 0 }

let chains t = Array.length t.buckets

(* Allocation-free: hashes the flow's fields directly instead of
   serialising a fresh 12-byte key per packet. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.buckets) flow

let insert t flow data =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  if Flat_table.mem t.index ~w0 ~w1 then
    invalid_arg "Sequent.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let home = bucket_index t flow in
  let bucket = t.buckets.(home) in
  let node = Chain.push_front bucket.chain pcb in
  Flat_table.replace t.index ~w0 ~w1 { node; home };
  Lookup_stats.note_insert t.stats;
  pcb

let remove t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Flat_table.find_opt t.index ~w0 ~w1 with
  | None -> None
  | Some { node; home } ->
    let bucket = t.buckets.(home) in
    (match bucket.cache with
    | Some cached when cached == node -> bucket.cache <- None
    | Some _ | None -> ());
    Chain.remove bucket.chain node;
    Flat_table.remove t.index ~w0 ~w1;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

(* Cache missed (or was cold): scan the chain.  Shared miss
   continuation for [lookup_pcb]. *)
let scan_chain t bucket ~w0 ~w1 =
  match Chain.scan bucket.chain ~stats:t.stats ~w0 ~w1 with
  | Some node as found ->
    (* Store the scan's own option cell rather than a fresh [Some]. *)
    bucket.cache <- found;
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    pcb
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    raise Not_found

let lookup_pcb t flow =
  Lookup_stats.begin_lookup t.stats;
  let bucket = t.buckets.(bucket_index t flow) in
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match bucket.cache with
  | Some node ->
    Lookup_stats.examine t.stats ();
    if Chain.matches node ~w0 ~w1 then begin
      let pcb = Chain.pcb node in
      Pcb.note_rx pcb;
      Lookup_stats.end_lookup t.stats ~hit_cache:true ~found:true;
      pcb
    end
    else scan_chain t bucket ~w0 ~w1
  | None -> scan_chain t bucket ~w0 ~w1

let lookup t ?kind:_ flow =
  match lookup_pcb t flow with
  | pcb -> Some pcb
  | exception Not_found -> None

let note_send t flow =
  match
    Flat_table.find_opt t.index ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow)
  with
  | Some { node; _ } -> Pcb.note_tx (Chain.pcb node)
  | None -> ()

let stats t = t.stats
let length t = Flat_table.length t.index

let iter f t =
  Array.iter (fun bucket -> Chain.iter f bucket.chain) t.buckets

let chain_lengths t =
  Array.map (fun bucket -> Chain.length bucket.chain) t.buckets
