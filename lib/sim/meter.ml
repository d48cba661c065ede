type t = {
  demux : unit Demux.Registry.t;
  mutable entry : Numerics.Stats.t;
  mutable ack : Numerics.Stats.t;
  mutable measuring : bool;
}

let create ?obs ?tracer demux =
  (match obs with
  | Some obs -> Demux.Registry.observe obs demux
  | None -> ());
  (match tracer with
  | Some tracer ->
    Demux.Lookup_stats.set_tracer demux.Demux.Registry.stats tracer
  | None -> ());
  { demux; entry = Numerics.Stats.create (); ack = Numerics.Stats.create ();
    measuring = true }

let demux t = t.demux
let set_measuring t flag = t.measuring <- flag
let measuring t = t.measuring

let start_measuring t =
  Demux.Lookup_stats.reset t.demux.Demux.Registry.stats;
  t.entry <- Numerics.Stats.create ();
  t.ack <- Numerics.Stats.create ();
  t.measuring <- true

let accumulator t = function
  | Demux.Types.Data -> t.entry
  | Demux.Types.Pure_ack -> t.ack

(* A miss (a flow an overload guard shed) is charged to the ledger
   like a hit, and recorded the same way. *)
let lookup t ~kind flow =
  let stats = t.demux.Demux.Registry.stats in
  let before = Demux.Lookup_stats.pcbs_examined stats in
  (match
     t.demux.Demux.Registry.lookup kind ~w0:(Packet.Flow.w0 flow)
       ~w1:(Packet.Flow.w1 flow)
   with
  | _ | (exception Not_found) -> ());
  if t.measuring then
    Numerics.Stats.add (accumulator t kind)
      (float_of_int (Demux.Lookup_stats.pcbs_examined stats - before))

let note_send t flow = t.demux.Demux.Registry.note_send flow
let entry_examined t = t.entry
let ack_examined t = t.ack
