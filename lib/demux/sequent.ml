type 'a bucket = {
  chain : 'a Chain.t;
  mutable cache : 'a Chain.node option;
}

(* The index maps a flow straight to its chain node; [remove] hashes
   the flow again to find the node's chain. *)
type 'a t = {
  mutable buckets : 'a bucket array;
  hasher : Hashing.Hashers.t;
  index : 'a Chain.node Flat_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let default_chains = 19

let make_buckets n =
  Array.init n (fun _ -> { chain = Chain.create (); cache = None })

let create ?(chains = default_chains) ?(hasher = Hashing.Hashers.multiplicative)
    () =
  if chains <= 0 then invalid_arg "Sequent.create: chains <= 0";
  { buckets = make_buckets chains; hasher;
    index = Flat_table.create ~initial_capacity:64 ();
    stats = Lookup_stats.create (); next_id = 0 }

let chains t = Array.length t.buckets

(* Allocation-free: hashes the packed words instead of serialising a
   fresh 12-byte key per packet. *)
let home t ~w0 ~w1 =
  t.buckets.(Hashing.Hashers.bucket_words t.hasher
               ~buckets:(Array.length t.buckets) w0 w1)

let bucket t i = t.buckets.(i)

(* Push [pcb] onto the head of its home chain and (re)index it. *)
let link t pcb ~w0 ~w1 =
  Flat_table.replace t.index ~w0 ~w1
    (Chain.push_front (home t ~w0 ~w1).chain pcb)

let insert t flow data =
  let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
  if Flat_table.mem t.index ~w0 ~w1 then
    invalid_arg "Sequent.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  link t pcb ~w0 ~w1;
  Lookup_stats.note_insert t.stats;
  pcb

let grow t =
  let old = t.buckets in
  t.buckets <- make_buckets (2 * Array.length old);
  Array.iter
    (fun bucket ->
      Chain.iter
        (fun pcb ->
          let flow = pcb.Pcb.flow in
          link t pcb ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow))
        bucket.chain)
    old

let remove t flow =
  let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
  match Flat_table.find_opt t.index ~w0 ~w1 with
  | None -> None
  | Some node ->
    let bucket = home t ~w0 ~w1 in
    (match bucket.cache with
    | Some cached when cached == node -> bucket.cache <- None
    | Some _ | None -> ());
    Chain.remove bucket.chain node;
    Flat_table.remove t.index ~w0 ~w1;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let finish t ~hit_cache = function
  | Some node ->
    Lookup_stats.end_lookup t.stats ~hit_cache ~found:true;
    Chain.pcb node
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    raise Not_found

(* Sequent's policy.  It stays in this module, next to the store,
   because the stack's receive path runs it on every datagram and a
   helper in another module would be a real call there. *)

(* Cache missed (or was cold): scan the chain.  Shared miss
   continuation for [lookup]. *)
let scan_chain t bucket ~w0 ~w1 =
  match Chain.scan bucket.chain ~stats:t.stats ~w0 ~w1 with
  | Some node as found ->
    (* Store the scan's own option cell rather than a fresh [Some]. *)
    bucket.cache <- found;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    Chain.pcb node
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    raise Not_found

let lookup t _ ~w0 ~w1 =
  Lookup_stats.begin_lookup t.stats;
  let bucket = home t ~w0 ~w1 in
  match bucket.cache with
  | Some node ->
    Lookup_stats.examine t.stats;
    if Chain.matches node ~w0 ~w1 then begin
      Lookup_stats.end_lookup t.stats ~hit_cache:true ~found:true;
      Chain.pcb node
    end
    else scan_chain t bucket ~w0 ~w1
  | None -> scan_chain t bucket ~w0 ~w1

let mem t flow =
  Flat_table.mem t.index ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow)

(* The index's own option cell: allocation-free. *)
let find t flow =
  Flat_table.find_opt t.index ~w0:(Packet.Flow.w0 flow)
    ~w1:(Packet.Flow.w1 flow)

(* No policy over this store reads transmit order but SR-cache's. *)
let note_send _ _ = ()

let stats t = t.stats
let length t = Flat_table.length t.index

let iter f t =
  Array.iter (fun bucket -> Chain.iter f bucket.chain) t.buckets

let chain_lengths t =
  Array.map (fun bucket -> Chain.length bucket.chain) t.buckets
