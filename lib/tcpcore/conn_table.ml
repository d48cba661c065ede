(* A listener is its local port, whatever the local address. *)
type ('conn, 'listener) t = {
  demux : 'conn Demux.Registry.t;
  listeners : (int, 'listener) Hashtbl.t;
}

let create spec =
  { demux = Demux.Registry.create spec; listeners = Hashtbl.create 16 }

let demux t = t.demux

let listen t ~port listener =
  if port < 0 || port > 0xFFFF then invalid_arg "Conn_table.listen: bad port";
  if Hashtbl.mem t.listeners port then
    invalid_arg "Conn_table.listen: port already has a listener";
  Hashtbl.replace t.listeners port listener

let unlisten t ~port = Hashtbl.remove t.listeners port

(* The port is [w0]'s low 16 bits.  [Hashtbl.find] answers without an
   option, so a probe allocates nothing. *)
let find_listener t ~w0 = Hashtbl.find t.listeners (w0 land 0xFFFF)

let listener t ~port = Hashtbl.find_opt t.listeners port

let add_connection t flow conn = t.demux.Demux.Registry.insert flow conn

let remove_connection t flow =
  match t.demux.Demux.Registry.remove flow with
  | Some _ -> true
  | None -> false

type ('conn, 'listener) result =
  | Connection of 'conn Demux.Pcb.t
  | Listener of 'listener
  | No_match

let lookup t ~kind flow =
  let w0 = Packet.Flow.w0 flow in
  match
    t.demux.Demux.Registry.lookup kind ~w0 ~w1:(Packet.Flow.w1 flow)
  with
  | pcb -> Connection pcb
  | exception Not_found -> (
    match find_listener t ~w0 with
    | listener -> Listener listener
    | exception Not_found -> No_match)

let note_send t flow = t.demux.Demux.Registry.note_send flow
let connections t = t.demux.Demux.Registry.length ()
