(* IDs are handed out from [released], last released first, and then
   from [fresh], the lowest ID never used. *)
type 'a t = {
  slots : 'a Pcb.t option array;
  ids : Packed_table.Heap.t;
  mutable fresh : int;
  mutable released : int list;
  stats : Lookup_stats.t;
  mutable population : int;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Conn_id.create: capacity <= 0";
  { slots = Array.make capacity None;
    ids = Packed_table.Heap.create ~initial_capacity:64 ();
    fresh = 0; released = []; stats = Lookup_stats.create ();
    population = 0 }

let next_id t =
  match t.released with
  | id :: rest ->
    t.released <- rest;
    id
  | [] ->
    if t.fresh = Array.length t.slots then
      failwith "Conn_id.insert: connection-ID space exhausted";
    t.fresh <- t.fresh + 1;
    t.fresh - 1

let insert t flow data =
  let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
  if Packed_table.Heap.mem t.ids ~w0 ~w1 then
    invalid_arg "Conn_id.insert: duplicate flow";
  let id = next_id t in
  let pcb = Pcb.make ~id ~flow data in
  t.slots.(id) <- Some pcb;
  Packed_table.Heap.replace t.ids ~w0 ~w1 id;
  t.population <- t.population + 1;
  Lookup_stats.note_insert t.stats;
  pcb

let connection_id t flow =
  Packed_table.Heap.find_opt t.ids ~w0:(Packet.Flow.w0 flow)
    ~w1:(Packet.Flow.w1 flow)

let remove t flow =
  let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
  match Packed_table.Heap.find t.ids ~w0 ~w1 with
  | exception Not_found -> None
  | id ->
    let pcb = t.slots.(id) in
    t.slots.(id) <- None;
    Packed_table.Heap.remove t.ids ~w0 ~w1;
    t.released <- id :: t.released;
    t.population <- t.population - 1;
    Lookup_stats.note_remove t.stats;
    pcb

(* The ID travels in the packet header; translating the words to an ID
   here stands in for reading those header bits and is not charged.
   Indexing the slot array is the one examination. *)
let lookup t _ ~w0 ~w1 =
  Lookup_stats.begin_lookup t.stats;
  match Packed_table.Heap.find t.ids ~w0 ~w1 with
  | id -> (
    Lookup_stats.examine t.stats;
    (* The index and the slots move in lockstep. *)
    match t.slots.(id) with
    | Some pcb ->
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
      pcb
    | None -> assert false)
  | exception Not_found ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    raise Not_found

let note_send _ _ = ()

let stats t = t.stats
let length t = t.population

let iter f t =
  Array.iter (function Some pcb -> f pcb | None -> ()) t.slots
