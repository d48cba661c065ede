type endpoint = { addr : Ipv4.addr; port : int }

let endpoint addr port =
  if port < 0 || port > 0xFFFF then invalid_arg "Flow.endpoint: bad port";
  { addr; port }

let pp_endpoint ppf e = Format.fprintf ppf "%a:%d" Ipv4.pp_addr e.addr e.port

type t = { local : endpoint; remote : endpoint }

let v ~local ~remote = { local; remote }

let of_headers (ip : Ipv4.t) (tcp : Tcp_header.t) =
  { local = { addr = ip.Ipv4.dst; port = tcp.Tcp_header.dst_port };
    remote = { addr = ip.Ipv4.src; port = tcp.Tcp_header.src_port } }

let equal_endpoint a b = Ipv4.equal_addr a.addr b.addr && a.port = b.port
let equal a b = equal_endpoint a.local b.local && equal_endpoint a.remote b.remote

let compare_endpoint a b =
  match Ipv4.compare_addr a.addr b.addr with
  | 0 -> Int.compare a.port b.port
  | c -> c

let compare a b =
  match compare_endpoint a.local b.local with
  | 0 -> compare_endpoint a.remote b.remote
  | c -> c

let reverse t = { local = t.remote; remote = t.local }

(* The packed words need 48 significant bits, and [word]'s
   [land 0xFFFFFFFF] cleanup of a negative [Int32] is right only when
   the native int is wider than 32 bits.  On a 32-bit or js_of_ocaml
   runtime the [lsl 16] would silently truncate the address, so
   refuse to start rather than mis-demultiplex. *)
let () =
  if Sys.int_size < 63 then
    failwith
      (Printf.sprintf
         "Packet.Flow: packed 48-bit flow words require 63-bit native ints, \
          but Sys.int_size = %d on this platform (32-bit and js_of_ocaml \
          runtimes are unsupported)"
         Sys.int_size)

(* [:>] rather than [Ipv4.addr_to_int32]: no call on the hot path. *)
let word addr port =
  ((Int32.to_int (addr : Ipv4.addr :> int32) land 0xFFFFFFFF) lsl 16) lor port

let w0 t = word t.local.addr t.local.port
let w1 t = word t.remote.addr t.remote.port

let endpoint_of_word w =
  { addr = Ipv4.addr_of_int32 (Int32.of_int (w lsr 16)); port = w land 0xFFFF }

let of_words ~w0 ~w1 =
  { local = endpoint_of_word w0; remote = endpoint_of_word w1 }

let key_bytes_of_words ~w0 ~w1 =
  let buf = Bytes.create 12 in
  Bytes.set_int32_be buf 0 (Int32.of_int (w0 lsr 16));
  Bytes.set_int32_be buf 4 (Int32.of_int (w1 lsr 16));
  Bytes.set_uint16_be buf 8 (w0 land 0xFFFF);
  Bytes.set_uint16_be buf 10 (w1 land 0xFFFF);
  buf

let to_key_bytes t = key_bytes_of_words ~w0:(w0 t) ~w1:(w1 t)

let pp ppf t =
  Format.fprintf ppf "%a <- %a" pp_endpoint t.local pp_endpoint t.remote

let to_string t = Format.asprintf "%a" pp t
