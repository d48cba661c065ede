type 'a t = {
  slots : 'a Pcb.t option array;
  ids : Packed_table.Heap.t;
  mutable free : int list;
  stats : Lookup_stats.t;
  mutable population : int;
}


let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Conn_id.create: capacity <= 0";
  { slots = Array.make capacity None;
    ids = Packed_table.Heap.create ~initial_capacity:64 ();
    free = List.init capacity Fun.id; stats = Lookup_stats.create ();
    population = 0 }

let insert t flow data =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  if Packed_table.Heap.mem t.ids ~w0 ~w1 then
    invalid_arg "Conn_id.insert: duplicate flow";
  match t.free with
  | [] -> failwith "Conn_id.insert: connection-ID space exhausted"
  | id :: rest ->
    t.free <- rest;
    let pcb = Pcb.make ~id ~flow data in
    t.slots.(id) <- Some pcb;
    Packed_table.Heap.replace t.ids ~w0 ~w1 id;
    t.population <- t.population + 1;
    Lookup_stats.note_insert t.stats;
    pcb

let connection_id t flow =
  Packed_table.Heap.find_opt t.ids ~w0:(Flow_key.w0_of_flow flow)
    ~w1:(Flow_key.w1_of_flow flow)

let lookup_by_id t ?kind:_ id =
  Lookup_stats.begin_lookup t.stats;
  if id < 0 || id >= Array.length t.slots then begin
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None
  end
  else begin
    Lookup_stats.examine t.stats ();
    match t.slots.(id) with
    | Some pcb ->
      Pcb.note_rx pcb;
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
      Some pcb
    | None ->
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
      None
  end

let remove t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Packed_table.Heap.find t.ids ~w0 ~w1 with
  | exception Not_found -> None
  | id ->
    let pcb = t.slots.(id) in
    t.slots.(id) <- None;
    Packed_table.Heap.remove t.ids ~w0 ~w1;
    t.free <- id :: t.free;
    t.population <- t.population - 1;
    Lookup_stats.note_remove t.stats;
    pcb

let lookup t ?kind flow =
  (* The ID travels in the packet header; translating flow -> ID here
     stands in for reading those header bits and is not charged. *)
  match
    Packed_table.Heap.find t.ids ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow)
  with
  | id -> lookup_by_id t ?kind id
  | exception Not_found ->
    Lookup_stats.begin_lookup t.stats;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let note_send t flow =
  let id =
    Packed_table.Heap.get t.ids ~w0:(Flow_key.w0_of_flow flow)
      ~w1:(Flow_key.w1_of_flow flow) ~default:(-1)
  in
  if id >= 0 then
    match t.slots.(id) with Some pcb -> Pcb.note_tx pcb | None -> ()

let stats t = t.stats
let length t = t.population

let iter f t =
  Array.iter (function Some pcb -> f pcb | None -> ()) t.slots
