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

let specific_binding word = (1 lsl 48) lor word

let binding_of ?addr port =
  match addr with
  | Some addr -> specific_binding (Packet.Flow.word addr port)
  | None -> port

let listen ?addr t ~port listener =
  if port < 0 || port > 0xFFFF then invalid_arg "Conn_table.listen: bad port";
  let binding = binding_of ?addr port in
  if Hashtbl.mem t.listeners binding then
    invalid_arg "Conn_table.listen: port already has a listener";
  Hashtbl.replace t.listeners binding listener

let unlisten ?addr t ~port = Hashtbl.remove t.listeners (binding_of ?addr port)

(* The specific binding of the local endpoint word [w0], then the
   wildcard one on its port; raises [Not_found].  [Hashtbl.find]
   answers without an option, so a probe allocates nothing. *)
let find_listener t ~w0 =
  match Hashtbl.find t.listeners (specific_binding w0) with
  | listener -> listener
  | exception Not_found -> Hashtbl.find t.listeners (w0 land 0xFFFF)

let listener ?addr t ~port =
  match addr with
  | Some addr -> (
    match find_listener t ~w0:(Packet.Flow.word addr port) with
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
