let sorted_contents pairs =
  List.sort (fun (a, _) (b, _) -> Packet.Flow.compare a b) pairs

let pcb_pair pcb = (pcb.Demux.Pcb.flow, pcb.Demux.Pcb.data)

type t = {
  name : string;
  insert : Packet.Flow.t -> int -> unit;
  remove : Packet.Flow.t -> (Packet.Flow.t * int) option;
  lookup :
    kind:Demux.Types.packet_kind -> Packet.Flow.t ->
    (Packet.Flow.t * int) option;
  note_send : Packet.Flow.t -> unit;
  stats : unit -> Demux.Lookup_stats.snapshot;
  length : unit -> int;
  contents : unit -> (Packet.Flow.t * int) list;
  guard : Demux.Guarded.config option;
}

let of_spec spec =
  let demux = Demux.Registry.create spec in
  { name = demux.Demux.Registry.name;
    insert = (fun flow v -> ignore (demux.Demux.Registry.insert flow v));
    remove =
      (fun flow -> Option.map pcb_pair (demux.Demux.Registry.remove flow));
    lookup =
      (fun ~kind flow ->
        Option.map pcb_pair (demux.Demux.Registry.lookup ~kind flow));
    note_send = demux.Demux.Registry.note_send;
    stats = (fun () -> Demux.Lookup_stats.snapshot demux.Demux.Registry.stats);
    length = demux.Demux.Registry.length;
    contents =
      (fun () ->
        let acc = ref [] in
        demux.Demux.Registry.iter (fun pcb -> acc := pcb_pair pcb :: !acc);
        sorted_contents !acc);
    guard = Demux.Registry.guard_config spec }

let striped ?(chains = Demux.Sequent.default_chains)
    ?(hasher = Hashing.Hashers.multiplicative) () =
  let table = Parallel.Striped.create ~chains ~hasher () in
  { name = Printf.sprintf "striped-sequent-%d" chains;
    insert = (fun flow v -> ignore (Parallel.Striped.insert table flow v));
    remove =
      (fun flow -> Option.map pcb_pair (Parallel.Striped.remove table flow));
    lookup =
      (fun ~kind flow ->
        Option.map pcb_pair (Parallel.Striped.lookup table ~kind flow));
    note_send = Parallel.Striped.note_send table;
    stats = (fun () -> Parallel.Striped.stats table);
    length = (fun () -> Parallel.Striped.length table);
    contents =
      (fun () ->
        let acc = ref [] in
        Parallel.Striped.iter (fun pcb -> acc := pcb_pair pcb :: !acc) table;
        sorted_contents !acc);
    guard = None }

module type PACKED = sig
  type t

  val length : t -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
end

let of_packed (type a) ~name (module M : PACKED with type t = a) (table : a) =
  (* Payloads live in the table's int value lane (no Pcb box).  Flows
     for [contents] are reconstructed from the stored words
     ([Flow_key.to_flow] is the packing's inverse), so this adapter
     also exercises the round-trip the boundary qcheck in
     test_demux.ml pins. *)
  let stats = Demux.Lookup_stats.create () in
  let words flow =
    (Demux.Flow_key.w0_of_flow flow, Demux.Flow_key.w1_of_flow flow)
  in
  { name;
    insert =
      (fun flow v ->
        let w0, w1 = words flow in
        if M.mem table ~w0 ~w1 then
          invalid_arg (name ^ ".insert: duplicate flow");
        M.replace table ~w0 ~w1 v;
        Demux.Lookup_stats.note_insert stats);
    remove =
      (fun flow ->
        let w0, w1 = words flow in
        match M.find_opt table ~w0 ~w1 with
        | None -> None
        | Some v ->
          M.remove table ~w0 ~w1;
          Demux.Lookup_stats.note_remove stats;
          Some (flow, v));
    lookup =
      (fun ~kind:_ flow ->
        let w0, w1 = words flow in
        Demux.Lookup_stats.begin_lookup stats;
        Demux.Lookup_stats.examine stats ();
        let result = M.find_opt table ~w0 ~w1 in
        Demux.Lookup_stats.end_lookup stats ~hit_cache:false
          ~found:(result <> None);
        Option.map (fun v -> (flow, v)) result);
    note_send = (fun _ -> ());
    stats = (fun () -> Demux.Lookup_stats.snapshot stats);
    length = (fun () -> M.length table);
    contents =
      (fun () ->
        let acc = ref [] in
        M.iter
          (fun ~w0 ~w1 v ->
            acc :=
              (Demux.Flow_key.to_flow (Demux.Flow_key.make ~w0 ~w1), v)
              :: !acc)
          table;
        sorted_contents !acc);
    guard = None }

let of_flat ?resize ~name () =
  let module M = struct
    type t = int Demux.Flat_table.t

    let length = Demux.Flat_table.length
    let find_opt = Demux.Flat_table.find_opt
    let mem = Demux.Flat_table.mem
    let replace = Demux.Flat_table.replace
    let remove = Demux.Flat_table.remove
    let iter = Demux.Flat_table.iter
  end in
  of_packed ~name (module M) (Demux.Flat_table.create ?resize ())

let flat_table () = of_flat ~name:"flat-table" ()

let flat_table_doubling () =
  of_flat ~resize:Demux.Flat_table.Doubling ~name:"flat-table-doubling" ()

let epoch_table () =
  of_packed ~name:"epoch-table" (module Epoch.Packed.Heap)
    (Epoch.Packed.Heap.create ())

let offheap_table () =
  of_packed ~name:"offheap-table" (module Demux.Packed_table.Offheap)
    (Demux.Packed_table.Offheap.create ())

(* Cuckoo_table's signature is a superset of PACKED, so the bare-table
   subject rides the same adapter: differential programs drive kicks,
   stash spills and the negative-lookup filter through exactly the
   oracle the flat tables answer to. *)
let cuckoo_table () =
  of_packed ~name:"cuckoo-table" (module Demux.Cuckoo_table.Heap)
    (Demux.Cuckoo_table.Heap.create ())

let guarded_flat_table ?(max_chain = 8) ?(max_total = 40) ?(chains = 4) () =
  let config = Demux.Guarded.config ~max_chain ~max_total ~chains () in
  let guard = Demux.Guarded.create config in
  (* Default (minimum) initial capacity: the guard's bounds sit above
     several incremental-resize boundaries, so evictions fire while a
     migration is in flight. *)
  let table : int Demux.Pcb.t Demux.Flat_table.t =
    Demux.Flat_table.create ()
  in
  let stats = Demux.Lookup_stats.create () in
  let next_id = ref 0 in
  let words flow =
    (Demux.Flow_key.w0_of_flow flow, Demux.Flow_key.w1_of_flow flow)
  in
  let remove_raw flow =
    let w0, w1 = words flow in
    match Demux.Flat_table.find_opt table ~w0 ~w1 with
    | None -> None
    | Some pcb ->
      Demux.Flat_table.remove table ~w0 ~w1;
      Some pcb
  in
  (* The same wiring as Registry.guard, so the shadow guard Diff runs
     over the oracle makes identical shed decisions: evict the guard's
     victims (each a remove + an eviction) before the admitted insert;
     a rejection mutates nothing. *)
  { name = "guarded-flat-table";
    insert =
      (fun flow v ->
        match Demux.Guarded.admit guard flow with
        | `Reject -> Demux.Lookup_stats.note_rejection stats
        | `Admit victims ->
          List.iter
            (fun victim ->
              match remove_raw victim with
              | Some _ ->
                Demux.Lookup_stats.note_remove stats;
                Demux.Lookup_stats.note_eviction stats
              | None ->
                invalid_arg
                  "guarded-flat-table: guard evicted an absent flow")
            victims;
          let w0, w1 = words flow in
          if Demux.Flat_table.mem table ~w0 ~w1 then
            invalid_arg "guarded-flat-table.insert: duplicate flow";
          let pcb = Demux.Pcb.make ~id:!next_id ~flow v in
          incr next_id;
          Demux.Flat_table.replace table ~w0 ~w1 pcb;
          Demux.Guarded.note_inserted guard flow;
          Demux.Lookup_stats.note_insert stats);
    remove =
      (fun flow ->
        match remove_raw flow with
        | None -> None
        | Some pcb ->
          Demux.Lookup_stats.note_remove stats;
          Demux.Guarded.note_removed guard flow;
          Some (pcb_pair pcb));
    lookup =
      (fun ~kind:_ flow ->
        let w0, w1 = words flow in
        Demux.Lookup_stats.begin_lookup stats;
        Demux.Lookup_stats.examine stats ();
        let result = Demux.Flat_table.find_opt table ~w0 ~w1 in
        if result <> None then Demux.Guarded.note_touched guard flow;
        Demux.Lookup_stats.end_lookup stats ~hit_cache:false
          ~found:(result <> None);
        Option.map pcb_pair result);
    note_send = (fun _ -> ());
    stats = (fun () -> Demux.Lookup_stats.snapshot stats);
    length = (fun () -> Demux.Flat_table.length table);
    contents =
      (fun () ->
        let acc = ref [] in
        Demux.Flat_table.iter
          (fun ~w0:_ ~w1:_ pcb -> acc := pcb_pair pcb :: !acc)
          table;
        sorted_contents !acc);
    guard = Some config }
