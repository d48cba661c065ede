(* A listener binding packed as one immediate int, so probing for a
   listener on the receive path allocates no constructor:

     wildcard (port only)  : port                      (bits 0-15)
     specific (addr, port) : 1 lsl 48 | Packet.Flow.word addr port

   The bit-48 discriminant keeps the two namespaces disjoint; 49
   significant bits fit an OCaml immediate int. *)
type binding = int

type ('conn, 'listener) t = {
  demux : 'conn Demux.Registry.t;
  listeners : (binding, 'listener) Hashtbl.t;
}

let create spec =
  { demux = Demux.Registry.create spec; listeners = Hashtbl.create 16 }

let demux t = t.demux

let specific_binding addr port = (1 lsl 48) lor Packet.Flow.word addr port

let binding_of ?addr port =
  match addr with
  | Some addr -> specific_binding addr port
  | None -> port

let listen ?addr t ~port listener =
  if port < 0 || port > 0xFFFF then invalid_arg "Conn_table.listen: bad port";
  let binding = binding_of ?addr port in
  if Hashtbl.mem t.listeners binding then
    invalid_arg "Conn_table.listen: port already has a listener";
  Hashtbl.replace t.listeners binding listener

let unlisten ?addr t ~port = Hashtbl.remove t.listeners (binding_of ?addr port)

(* The specific binding, then the wildcard one; raises [Not_found].
   [Hashtbl.find] answers without an option, so a probe allocates
   nothing. *)
let find_listener t addr port =
  match Hashtbl.find t.listeners (specific_binding addr port) with
  | listener -> listener
  | exception Not_found -> Hashtbl.find t.listeners port

let listener ?addr t ~port =
  match addr with
  | Some addr -> (
    match find_listener t addr port with
    | listener -> Some listener
    | exception Not_found -> None)
  | None -> Hashtbl.find_opt t.listeners port

let add_connection t flow conn = t.demux.Demux.Registry.insert flow conn

let remove_connection t flow =
  match t.demux.Demux.Registry.remove flow with
  | Some _ -> true
  | None -> false

type ('conn, 'listener) result =
  | Connection of 'conn Demux.Pcb.t
  | Listener of 'listener
  | No_match

(* The registry takes [kind] as an optional argument; handing it one of
   these preallocated cells keeps the receive path from boxing a
   [Some kind] per datagram. *)
let some_data = Some Demux.Types.Data
let some_pure_ack = Some Demux.Types.Pure_ack

let lookup t ~kind flow =
  let kind =
    match kind with
    | Demux.Types.Data -> some_data
    | Demux.Types.Pure_ack -> some_pure_ack
  in
  match t.demux.Demux.Registry.lookup ?kind flow with
  | Some pcb -> Connection pcb
  | None -> (
    let local = flow.Packet.Flow.local in
    match find_listener t local.Packet.Flow.addr local.Packet.Flow.port with
    | listener -> Listener listener
    | exception Not_found -> No_match)

let note_send t flow = t.demux.Demux.Registry.note_send flow
let connections t = t.demux.Demux.Registry.length ()
