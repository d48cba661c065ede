(* Registry-facing demultiplexer over Cuckoo_table: the table maps
   packed flow words to an index into a growable PCB side store, the
   same split Conn_id uses (every table lane stays an immediate int,
   so kicks move entries without touching the GC write barrier).
   Lookup cost is charged in the table's probe units — buckets
   scanned plus stash entries examined — via [find_probed]'s
   [last_probes], so `tcpdemux` attack/check campaigns see the
   bounded-probe claim in the same "PCBs examined" ledger as every
   other algorithm. *)

module Table = Cuckoo_table.Heap

type 'a t = {
  table : Table.t;
  mutable slots : 'a Pcb.t option array;
  mutable free : int list;
  mutable next : int;
  stats : Lookup_stats.t;
}


let create () =
  { table = Table.create ();
    slots = Array.make 64 None;
    free = [];
    next = 0;
    stats = Lookup_stats.create () }

let alloc_slot t =
  match t.free with
  | id :: rest ->
    t.free <- rest;
    id
  | [] ->
    if t.next >= Array.length t.slots then begin
      let grown = Array.make (2 * Array.length t.slots) None in
      Array.blit t.slots 0 grown 0 (Array.length t.slots);
      t.slots <- grown
    end;
    let id = t.next in
    t.next <- id + 1;
    id

let insert t flow data =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  if Table.mem t.table ~w0 ~w1 then invalid_arg "Cuckoo.insert: duplicate flow";
  let id = alloc_slot t in
  let pcb = Pcb.make ~id ~flow data in
  t.slots.(id) <- Some pcb;
  Table.replace t.table ~w0 ~w1 id;
  Lookup_stats.note_insert t.stats;
  pcb

let lookup t ?kind:_ flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  Lookup_stats.begin_lookup t.stats;
  match Table.find t.table ~w0 ~w1 with
  | id ->
    Lookup_stats.examine t.stats ~count:(Table.last_probes t.table) ();
    (match t.slots.(id) with
    | Some pcb ->
      Pcb.note_rx pcb;
      Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
      Some pcb
    | None ->
      (* The table and the side store move in lockstep; a dangling
         index is a bug, not a miss. *)
      assert false)
  | exception Not_found ->
    Lookup_stats.examine t.stats ~count:(Table.last_probes t.table) ();
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let remove t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Table.find_opt t.table ~w0 ~w1 with
  | None -> None
  | Some id ->
    let pcb = t.slots.(id) in
    Table.remove t.table ~w0 ~w1;
    t.slots.(id) <- None;
    t.free <- id :: t.free;
    Lookup_stats.note_remove t.stats;
    pcb

let note_send t flow =
  let w0 = Flow_key.w0_of_flow flow and w1 = Flow_key.w1_of_flow flow in
  match Table.find_opt t.table ~w0 ~w1 with
  | Some id -> (
    match t.slots.(id) with Some pcb -> Pcb.note_tx pcb | None -> ())
  | None -> ()

let stats t = t.stats
let length t = Table.length t.table
let table t = t.table

let iter f t =
  Array.iter (function Some pcb -> f pcb | None -> ()) t.slots
