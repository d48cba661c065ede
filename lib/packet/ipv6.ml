type addr = string (* exactly 16 bytes, network order *)

let addr_of_groups groups =
  if Array.length groups <> 8 then
    invalid_arg "Ipv6.addr_of_groups: need exactly 8 groups";
  let buf = Bytes.create 16 in
  Array.iteri
    (fun i g ->
      if g < 0 || g > 0xFFFF then
        invalid_arg "Ipv6.addr_of_groups: group out of range";
      Bytes.set_uint16_be buf (2 * i) g)
    groups;
  Bytes.to_string buf

let addr_to_groups addr =
  Array.init 8 (fun i -> Bytes.get_uint16_be (Bytes.of_string addr) (2 * i))

let unspecified = String.make 16 '\x00'
let loopback = String.make 15 '\x00' ^ "\x01"

let parse_group text =
  let n = String.length text in
  if n = 0 || n > 4 then None
  else
    let valid =
      String.for_all
        (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
        text
    in
    if valid then int_of_string_opt ("0x" ^ text) else None

let addr_of_string text =
  let fail () = Error (Printf.sprintf "invalid IPv6 address %S" text) in
  let split_double s =
    (* At most one "::". *)
    let rec find i =
      if i + 1 >= String.length s then None
      else if s.[i] = ':' && s.[i + 1] = ':' then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> `No_gap s
    | Some i ->
      let before = String.sub s 0 i in
      let after = String.sub s (i + 2) (String.length s - i - 2) in
      (match find (i + 1) with
      | Some j when j > i -> `Bad
      | _ -> `Gap (before, after))
  in
  let groups_of part =
    if part = "" then Some []
    else
      let pieces = String.split_on_char ':' part in
      let parsed = List.map parse_group pieces in
      if List.for_all Option.is_some parsed then
        Some (List.map Option.get parsed)
      else None
  in
  match split_double text with
  | `Bad -> fail ()
  | `No_gap s -> (
    match groups_of s with
    | Some groups when List.length groups = 8 ->
      Ok (addr_of_groups (Array.of_list groups))
    | Some _ | None -> fail ())
  | `Gap (before, after) -> (
    match (groups_of before, groups_of after) with
    | Some head, Some tail ->
      let missing = 8 - List.length head - List.length tail in
      (* "::" must stand for at least one zero group. *)
      if missing < 1 then fail ()
      else
        Ok
          (addr_of_groups
             (Array.of_list (head @ List.init missing (fun _ -> 0) @ tail)))
    | _ -> fail ())

let addr_to_string addr =
  let groups = addr_to_groups addr in
  (* RFC 5952: compress the longest (leftmost on ties) run of >= 2
     zero groups. *)
  let best = ref (0, 0) (* start, length *) in
  let current = ref (0, 0) in
  Array.iteri
    (fun i g ->
      if g = 0 then begin
        let start, len = !current in
        let start = if len = 0 then i else start in
        current := (start, len + 1);
        if snd !current > snd !best then best := !current
      end
      else current := (0, 0))
    groups;
  let start, len = !best in
  if len < 2 then
    String.concat ":"
      (Array.to_list (Array.map (Printf.sprintf "%x") groups))
  else
    let render lo hi =
      String.concat ":"
        (List.init (hi - lo) (fun i -> Printf.sprintf "%x" groups.(lo + i)))
    in
    render 0 start ^ "::" ^ render (start + len) 8

let pp_addr ppf addr = Format.pp_print_string ppf (addr_to_string addr)
let equal_addr = String.equal
let compare_addr = String.compare

type t = {
  traffic_class : int;
  flow_label : int;
  payload_length : int;
  next_header : Ipv4.protocol;
  hop_limit : int;
  src : addr;
  dst : addr;
}

let header_length = 40

let make ?(traffic_class = 0) ?(flow_label = 0) ?(hop_limit = 64) ~src ~dst
    ~next_header ~payload_length () =
  if traffic_class < 0 || traffic_class > 0xFF then
    invalid_arg "Ipv6.make: traffic_class out of range";
  if flow_label < 0 || flow_label > 0xFFFFF then
    invalid_arg "Ipv6.make: flow_label out of range";
  if hop_limit < 0 || hop_limit > 0xFF then
    invalid_arg "Ipv6.make: hop_limit out of range";
  if payload_length < 0 || payload_length > 0xFFFF then
    invalid_arg "Ipv6.make: payload_length out of range";
  { traffic_class; flow_label; payload_length; next_header; hop_limit; src;
    dst }

let serialize t buf ~off =
  if off < 0 || off + header_length > Bytes.length buf then
    invalid_arg "Ipv6.serialize: buffer too small";
  let word0 =
    Int32.logor
      (Int32.shift_left 6l 28)
      (Int32.logor
         (Int32.shift_left (Int32.of_int t.traffic_class) 20)
         (Int32.of_int t.flow_label))
  in
  Bytes.set_int32_be buf off word0;
  Bytes.set_uint16_be buf (off + 4) t.payload_length;
  Bytes.set_uint8 buf (off + 6) (Ipv4.protocol_to_int t.next_header);
  Bytes.set_uint8 buf (off + 7) t.hop_limit;
  Bytes.blit_string t.src 0 buf (off + 8) 16;
  Bytes.blit_string t.dst 0 buf (off + 24) 16

let parse buf ~off =
  if off < 0 || off > Bytes.length buf - header_length then
    Error "ipv6: truncated header"
  else
    let word0 = Bytes.get_int32_be buf off in
    let version =
      Int32.to_int (Int32.logand (Int32.shift_right_logical word0 28) 0xFl)
    in
    if version <> 6 then Error (Printf.sprintf "ipv6: bad version %d" version)
    else
      let payload_length = Bytes.get_uint16_be buf (off + 4) in
      if off + header_length + payload_length > Bytes.length buf then
        Error "ipv6: truncated payload"
      else
        Ok
          ( { traffic_class =
                Int32.to_int
                  (Int32.logand (Int32.shift_right_logical word0 20) 0xFFl);
              flow_label = Int32.to_int (Int32.logand word0 0xFFFFFl);
              payload_length;
              next_header = Ipv4.protocol_of_int (Bytes.get_uint8 buf (off + 6));
              hop_limit = Bytes.get_uint8 buf (off + 7);
              src = Bytes.sub_string buf (off + 8) 16;
              dst = Bytes.sub_string buf (off + 24) 16 },
            off + header_length )

let sum_address acc addr =
  let acc = ref acc in
  for i = 0 to 7 do
    acc := !acc + Char.code addr.[2 * i] * 256 + Char.code addr.[(2 * i) + 1]
  done;
  !acc

let pseudo_header_sum t =
  (* RFC 8200 section 8.1: src, dst, 32-bit upper-layer length,
     24 zero bits, next header. *)
  let acc = sum_address 0 t.src in
  let acc = sum_address acc t.dst in
  acc + t.payload_length + Ipv4.protocol_to_int t.next_header

let flow_key ~src ~src_port ~dst ~dst_port =
  if src_port < 0 || src_port > 0xFFFF || dst_port < 0 || dst_port > 0xFFFF
  then invalid_arg "Ipv6.flow_key: port out of range";
  (* Receiver's view: local (dst) first, mirroring Flow.to_key_bytes. *)
  let buf = Bytes.create 36 in
  Bytes.blit_string dst 0 buf 0 16;
  Bytes.blit_string src 0 buf 16 16;
  Bytes.set_uint16_be buf 32 dst_port;
  Bytes.set_uint16_be buf 34 src_port;
  buf

let pp ppf t =
  Format.fprintf ppf "@[<h>%a > %a %a hlim=%d len=%d@]" pp_addr t.src pp_addr
    t.dst Ipv4.pp_protocol t.next_header t.hop_limit t.payload_length
