type 'a t = { store : 'a Sequent.t; mutable sent : 'a Chain.node option }

let create () = { store = Sequent.create ~chains:1 (); sent = None }

(* The one list, whose cache slot is the receive side. *)
let list t = Sequent.bucket t.store 0

let insert t = Sequent.insert t.store

let remove t flow =
  match Sequent.remove t.store flow with
  | Some pcb as removed ->
    (match t.sent with
    | Some node when Chain.pcb node == pcb -> t.sent <- None
    | Some _ | None -> ());
    removed
  | None -> None

(* A hit returns the slot's own option cell. *)
let probe stats slot ~w0 ~w1 =
  match slot with
  | None -> None
  | Some node as cached ->
    Lookup_stats.examine stats ();
    if Chain.matches node ~w0 ~w1 then cached else None

(* [found] is the probed slot's or the scan's own option cell, so
   refilling the receive side allocates nothing. *)
let refill t list ~hit_cache found =
  (match found with
  | Some _ -> list.Sequent.cache <- found
  | None -> ());
  Sequent.finish t.store ~hit_cache found

let lookup t ?(kind = Types.Data) flow =
  let stats = Sequent.stats t.store in
  Lookup_stats.begin_lookup stats;
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  let list = list t in
  let first, second =
    match kind with
    | Types.Data -> (list.Sequent.cache, t.sent)
    | Types.Pure_ack -> (t.sent, list.Sequent.cache)
  in
  match probe stats first ~w0 ~w1 with
  | Some _ as found -> refill t list ~hit_cache:true found
  | None -> (
    match probe stats second ~w0 ~w1 with
    | Some _ as found -> refill t list ~hit_cache:true found
    | None ->
      refill t list ~hit_cache:false
        (Chain.scan list.Sequent.chain ~stats ~w0 ~w1))

let note_send t flow =
  Sequent.note_send t.store flow;
  match Sequent.find t.store flow with
  | Some _ as sent -> t.sent <- sent
  | None -> ()

let stats t = Sequent.stats t.store
let length t = Sequent.length t.store
let iter f t = Sequent.iter f t.store
let cached_flow slot = Option.map (fun node -> (Chain.pcb node).Pcb.flow) slot
let cached_received_flow t = cached_flow (list t).Sequent.cache
let cached_sent_flow t = cached_flow t.sent
