type 'a t = { mutex : Mutex.t; demux : 'a Demux.Registry.t }

let create spec = { mutex = Mutex.create (); demux = Demux.Registry.create spec }
let name t = "coarse:" ^ t.demux.Demux.Registry.name

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let insert t flow data = locked t (fun () -> t.demux.Demux.Registry.insert flow data)
let remove t flow = locked t (fun () -> t.demux.Demux.Registry.remove flow)

(* The table's one lookup is on words; a caller here holds flows. *)
let find t kind flow =
  t.demux.Demux.Registry.lookup kind ~w0:(Packet.Flow.w0 flow)
    ~w1:(Packet.Flow.w1 flow)

let lookup t ?(kind = Demux.Types.Data) flow =
  locked t (fun () ->
      match find t kind flow with
      | pcb -> Some pcb
      | exception Not_found -> None)

let lookup_batch t ?(kind = Demux.Types.Data) flows =
  if Array.length flows = 0 then 0
  else
    locked t (fun () ->
        Demux.Lookup_stats.note_batch t.demux.Demux.Registry.stats
          ~size:(Array.length flows);
        Array.fold_left
          (fun found flow ->
            match find t kind flow with
            | _ -> found + 1
            | exception Not_found -> found)
          0 flows)

let insert_batch t entries =
  if Array.length entries = 0 then [||]
  else
    locked t (fun () ->
        Demux.Lookup_stats.note_batch t.demux.Demux.Registry.stats
          ~size:(Array.length entries);
        Array.map
          (fun (flow, data) -> t.demux.Demux.Registry.insert flow data)
          entries)

let note_send t flow = locked t (fun () -> t.demux.Demux.Registry.note_send flow)
let length t = locked t (fun () -> t.demux.Demux.Registry.length ())

let stats t =
  locked t (fun () -> Demux.Lookup_stats.snapshot t.demux.Demux.Registry.stats)
