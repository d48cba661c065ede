type config = {
  max_chain : int;
  max_total : int;
  chains : int;
  hasher : Hashing.Hashers.t;
}

let default_max_chain = 32
let default_max_total = 2048

let config ?(max_chain = default_max_chain) ?(max_total = default_max_total)
    ?(chains = 1) ?(hasher = Hashing.Hashers.multiplicative) () =
  if max_chain <= 0 then invalid_arg "Guarded.config: max_chain <= 0";
  if max_total <= 0 then invalid_arg "Guarded.config: max_total <= 0";
  if chains <= 0 then invalid_arg "Guarded.config: chains <= 0";
  { max_chain; max_total; chains; hasher }

(* Recency metadata carried in the guard's shadow population: a
   logical timestamp bumped on every insert and every successful
   lookup. *)
type meta = { mutable tick : int }

(* The shadow population is a Sequent store at the guarded algorithm's
   chain geometry; each chain is kept in recency order (front = most
   recent), and its cache slot is never used. *)
type t = {
  cfg : config;
  shadow : meta Sequent.t;
  mutable clock : int;
}

let create cfg =
  { cfg; shadow = Sequent.create ~chains:cfg.chains ~hasher:cfg.hasher ();
    clock = 0 }

let tracked t = Sequent.length t.shadow

let occupancy t = Sequent.chain_lengths t.shadow

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let unlink t flow = ignore (Sequent.remove t.shadow flow)

let home_chain t flow =
  (Sequent.home t.shadow ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow))
    .Sequent.chain

(* The least recently touched flow across all shadow chains.  Each
   chain keeps recency order, so only the tails compete: O(chains). *)
let global_lru t =
  let oldest = ref None in
  for i = 0 to t.cfg.chains - 1 do
    let chain = (Sequent.bucket t.shadow i).Sequent.chain in
    match Chain.tail_pcb chain, !oldest with
    | Some tail, Some best when best.Pcb.data.tick <= tail.Pcb.data.tick -> ()
    | (Some _ as tail), _ -> oldest := tail
    | None, _ -> ()
  done;
  Option.map (fun pcb -> pcb.Pcb.flow) !oldest

(* The victims the caller must first evict from the underlying table
   to admit [flow] (the guard has already forgotten them).  Mutates the
   guard state. *)
let admit t flow =
  if Sequent.mem t.shadow flow then [] (* duplicate: inner decides *)
  else
    let chain = home_chain t flow in
    let victims = ref [] in
    let evict flow =
      unlink t flow;
      victims := flow :: !victims
    in
    if Chain.length chain >= t.cfg.max_chain then
      Option.iter (fun pcb -> evict pcb.Pcb.flow) (Chain.tail_pcb chain);
    while tracked t >= t.cfg.max_total do
      match global_lru t with
      | Some flow -> evict flow
      | None -> assert false (* max_total > 0 and the table is non-empty *)
    done;
    List.rev !victims

let note_inserted t flow =
  if not (Sequent.mem t.shadow flow) then
    ignore (Sequent.insert t.shadow flow { tick = tick t })

let note_touched t flow =
  match Sequent.find t.shadow flow with
  | None -> ()
  | Some node ->
    (Chain.pcb node).Pcb.data.tick <- tick t;
    Chain.move_to_front (home_chain t flow) node

let note_removed t flow = unlink t flow
