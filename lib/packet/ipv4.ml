type addr = int32

let addr_of_int32 x = x
let addr_to_int32 x = x

let addr_of_octets a b c d =
  let check o =
    if o < 0 || o > 255 then invalid_arg "Ipv4.addr_of_octets: octet out of range"
  in
  check a; check b; check c; check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let addr_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    let octet x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 && x <> "" -> Some v
      | Some _ | None -> None
    in
    match (octet a, octet b, octet c, octet d) with
    | Some a, Some b, Some c, Some d -> Ok (addr_of_octets a b c d)
    | _ -> Error (Printf.sprintf "invalid IPv4 address %S" s))
  | _ -> Error (Printf.sprintf "invalid IPv4 address %S" s)

let octet addr shift =
  Int32.to_int (Int32.logand (Int32.shift_right_logical addr shift) 0xFFl)

let addr_to_string addr =
  Printf.sprintf "%d.%d.%d.%d" (octet addr 24) (octet addr 16) (octet addr 8)
    (octet addr 0)

let pp_addr ppf addr = Format.pp_print_string ppf (addr_to_string addr)
let equal_addr = Int32.equal
let compare_addr = Int32.compare

(* The IPv4 protocol number of TCP: the only payload this library
   carries. *)
let tcp = 6

type t = {
  tos : int;
  identification : int;
  dont_fragment : bool;
  ttl : int;
  src : addr;
  dst : addr;
  payload_length : int;
}

let header_length = 20

let make ?(tos = 0) ?(identification = 0) ?(dont_fragment = true) ?(ttl = 64)
    ~src ~dst ~payload_length () =
  if tos < 0 || tos > 0xFF then invalid_arg "Ipv4.make: tos out of range";
  if identification < 0 || identification > 0xFFFF then
    invalid_arg "Ipv4.make: identification out of range";
  if ttl < 0 || ttl > 0xFF then invalid_arg "Ipv4.make: ttl out of range";
  if payload_length < 0 || payload_length + header_length > 0xFFFF then
    invalid_arg "Ipv4.make: payload_length out of range";
  { tos; identification; dont_fragment; ttl; src; dst; payload_length }

let serialize t buf ~off =
  if off < 0 || off + header_length > Bytes.length buf then
    invalid_arg "Ipv4.serialize: buffer too small";
  Bytes.set_uint8 buf off 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 buf (off + 1) t.tos;
  Bytes.set_uint16_be buf (off + 2) (header_length + t.payload_length);
  Bytes.set_uint16_be buf (off + 4) t.identification;
  (* DF, or nothing: never a fragment. *)
  Bytes.set_uint16_be buf (off + 6) (if t.dont_fragment then 0x4000 else 0);
  Bytes.set_uint8 buf (off + 8) t.ttl;
  Bytes.set_uint8 buf (off + 9) tcp;
  Bytes.set_uint16_be buf (off + 10) 0 (* checksum placeholder *);
  Bytes.set_int32_be buf (off + 12) t.src;
  Bytes.set_int32_be buf (off + 16) t.dst;
  let csum = Checksum.compute buf ~off ~len:header_length in
  Bytes.set_uint16_be buf (off + 10) csum

let pseudo_header_sum t =
  let hi32 a = Int32.to_int (Int32.shift_right_logical a 16) in
  let lo32 a = Int32.to_int (Int32.logand a 0xFFFFl) in
  hi32 t.src + lo32 t.src + hi32 t.dst + lo32 t.dst + tcp + t.payload_length

let pp ppf t =
  Format.fprintf ppf "@[<h>%a > %a tcp ttl=%d len=%d id=%d%s@]" pp_addr t.src
    pp_addr t.dst t.ttl t.payload_length t.identification
    (if t.dont_fragment then " DF" else "")
