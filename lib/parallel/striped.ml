(* A stripe is its lock plus a one-chain Sequent store: the chain, its
   cache slot, the flat index, PCB ids and the ledger are the store's. *)
type 'a stripe = {
  mutex : Mutex.t;
  store : 'a Demux.Sequent.t;
}

type 'a t = {
  stripes : 'a stripe array;
  hasher : Hashing.Hashers.t;
  population : int Atomic.t;
  pressure : Pressure.t option;
}

let create ?(chains = Demux.Sequent.default_chains)
    ?(hasher = Hashing.Hashers.multiplicative) ?pressure () =
  if chains <= 0 then invalid_arg "Striped.create: chains <= 0";
  { stripes =
      Array.init chains (fun _ ->
          { mutex = Mutex.create ();
            store = Demux.Sequent.create ~chains:1 () });
    hasher; population = Atomic.make 0; pressure }

let chains t = Array.length t.stripes

(* [bucket_flow] hashes the flow's packed words: the receive path must
   not allocate a 12-byte key per packet. *)
let stripe_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.stripes) flow

let stripe_of_flow t flow = t.stripes.(stripe_index t flow)

let hash_flow t flow = Hashing.Hashers.hash_flow t.hasher flow

let with_stripe stripe f =
  Mutex.lock stripe.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stripe.mutex) f

let insert_locked t stripe flow data =
  (* With a pressure controller attached, the insert is timed: its
     latency (which carries the index's incremental-resize tax, if
     any) is one of the controller's two load signals. *)
  let started =
    match t.pressure with Some _ -> Obs.Clock.now_ns () | None -> 0
  in
  let pcb = Demux.Sequent.insert stripe.store flow data in
  (match t.pressure with
  | Some p -> Pressure.note_insert_ns p (Obs.Clock.now_ns () - started)
  | None -> ());
  Atomic.incr t.population;
  pcb

let insert t flow data =
  let stripe = stripe_of_flow t flow in
  with_stripe stripe (fun () -> insert_locked t stripe flow data)

(* Pressure-aware insert: at [Shed_new_flows] or worse, a flow not
   already resident is refused instead of admitted.  The shed is
   charged as a rejection on the stripe's stats — the same counter
   [Demux.Guarded] uses for admission refusals — and on the
   controller, so both ledgers agree packet-for-packet. *)
let try_insert t flow data =
  let stripe = stripe_of_flow t flow in
  with_stripe stripe (fun () ->
      if Demux.Sequent.mem stripe.store flow then `Duplicate
      else
        match t.pressure with
        | Some p when not (Pressure.admits_new_flows p) ->
          Pressure.note_shed_flow p;
          Demux.Lookup_stats.note_rejection (Demux.Sequent.stats stripe.store);
          `Shed
        | _ -> `Inserted (insert_locked t stripe flow data))

let remove t flow =
  let stripe = stripe_of_flow t flow in
  with_stripe stripe (fun () ->
      match Demux.Sequent.remove stripe.store flow with
      | Some _ as removed ->
        Atomic.decr t.population;
        removed
      | None -> None)

(* A stripe's store ignores the kind, and its one lookup is on words. *)
let find stripe flow =
  Demux.Sequent.lookup stripe.store Demux.Types.Data ~w0:(Packet.Flow.w0 flow)
    ~w1:(Packet.Flow.w1 flow)

let lookup t ?kind:_ flow =
  let stripe = stripe_of_flow t flow in
  with_stripe stripe (fun () ->
      match find stripe flow with
      | pcb -> Some pcb
      | exception Not_found -> None)

(* Batched operations visit each stripe once: a counting sort groups
   the batch's indices by stripe (O(batch + chains), no comparisons),
   then each occupied stripe's mutex is taken once for all its
   packets, instead of once per packet. *)
let group_by_stripe t flows =
  let n = Array.length flows and chains = Array.length t.stripes in
  let stripe_of = Array.make n 0 in
  let first = Array.make (chains + 1) 0 in
  for i = 0 to n - 1 do
    let s = stripe_index t flows.(i) in
    stripe_of.(i) <- s;
    first.(s + 1) <- first.(s + 1) + 1
  done;
  for s = 1 to chains do
    first.(s) <- first.(s) + first.(s - 1)
  done;
  let cursor = Array.sub first 0 chains in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let s = stripe_of.(i) in
    order.(cursor.(s)) <- i;
    cursor.(s) <- cursor.(s) + 1
  done;
  (* [order.(first.(s) .. first.(s+1) - 1)] are stripe [s]'s indices. *)
  (first, order)

let lookup_batch t ?kind:_ flows =
  if Array.length flows = 0 then 0
  else begin
    let first, order = group_by_stripe t flows in
    let found = ref 0 in
    for s = 0 to Array.length t.stripes - 1 do
      let lo = first.(s) and hi = first.(s + 1) in
      if hi > lo then begin
        let stripe = t.stripes.(s) in
        with_stripe stripe (fun () ->
            Demux.Lookup_stats.note_batch (Demux.Sequent.stats stripe.store)
              ~size:(hi - lo);
            for k = lo to hi - 1 do
              match find stripe flows.(order.(k)) with
              | _ -> incr found
              | exception Not_found -> ()
            done)
      end
    done;
    !found
  end

let insert_batch t entries =
  let n = Array.length entries in
  if n = 0 then [||]
  else begin
    let flows = Array.map fst entries in
    let first, order = group_by_stripe t flows in
    let pcbs = Array.make n None in
    for s = 0 to Array.length t.stripes - 1 do
      let lo = first.(s) and hi = first.(s + 1) in
      if hi > lo then begin
        let stripe = t.stripes.(s) in
        with_stripe stripe (fun () ->
            Demux.Lookup_stats.note_batch (Demux.Sequent.stats stripe.store)
              ~size:(hi - lo);
            for k = lo to hi - 1 do
              let i = order.(k) in
              let flow, data = entries.(i) in
              pcbs.(i) <- Some (insert_locked t stripe flow data)
            done)
      end
    done;
    Array.map
      (function Some pcb -> pcb | None -> assert false (* every index visited *))
      pcbs
  end

let note_send _ _ = ()

let length t = Atomic.get t.population

let iter f t =
  Array.iter
    (fun stripe ->
      with_stripe stripe (fun () -> Demux.Sequent.iter f stripe.store))
    t.stripes

let stats t =
  Demux.Lookup_stats.merge_snapshots
    (Array.to_list
       (Array.map
          (fun stripe ->
            with_stripe stripe (fun () ->
                Demux.Lookup_stats.snapshot (Demux.Sequent.stats stripe.store)))
          t.stripes))
