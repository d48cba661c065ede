type t = { ip : Ipv4.t; tcp : Tcp_header.t; payload : string }

let make ?seq ?ack_number ?flags ?window ?options ?(payload = "") ?ttl
    ?identification ~(src : Flow.endpoint) ~(dst : Flow.endpoint) () =
  let tcp =
    Tcp_header.make ?seq ?ack_number ?flags ?window ?options
      ~src_port:src.Flow.port ~dst_port:dst.Flow.port ()
  in
  let tcp_len = Tcp_header.header_length tcp + String.length payload in
  let ip =
    Ipv4.make ?ttl ?identification ~src:src.Flow.addr ~dst:dst.Flow.addr
      ~payload_length:tcp_len ()
  in
  { ip; tcp; payload }

let flow t = Flow.of_headers t.ip t.tcp
let length t = Ipv4.header_length + t.ip.Ipv4.payload_length

let write t buf ~off =
  Ipv4.serialize t.ip buf ~off;
  let pseudo_sum = Ipv4.pseudo_header_sum t.ip in
  let tcp_len =
    Tcp_header.serialize t.tcp ~pseudo_sum ~payload:t.payload buf
      ~off:(off + Ipv4.header_length)
  in
  Ipv4.header_length + tcp_len

let to_bytes t =
  let buf = Bytes.create (length t) in
  let written = write t buf ~off:0 in
  assert (written = Bytes.length buf);
  buf

(* The steering reads check only the header fields that locate the
   4-tuple — version, IHL, protocol, length — without checksum
   verification or payload copying.  This is the work a NIC's RSS
   engine does per packet; full validation stays with [parse] on the
   owning core.  The check answers with the TCP header's offset, or
   with one of these negative codes. *)
let truncated = -1
let bad_version = -2
let short_header = -3
let not_tcp = -4

let peek_tcp buf ~off =
  let len = Bytes.length buf - off in
  if off < 0 || len < Ipv4.header_length + 4 then truncated
  else
    let first = Bytes.get_uint8 buf off in
    let ihl = (first land 0xF) * 4 in
    if first lsr 4 <> 4 then bad_version
    else if ihl < Ipv4.header_length then short_header
    else if len < ihl + 4 then truncated
    else if Bytes.get_uint8 buf (off + 9) <> 6 then not_tcp
    else off + ihl

let word buf ~addr ~port =
  (Bytes.get_uint16_be buf addr lsl 32)
  lor (Bytes.get_uint16_be buf (addr + 2) lsl 16)
  lor Bytes.get_uint16_be buf port

(* The receiver's key: local = destination, remote = source. *)
let peek_w0 buf ~off ~tcp = word buf ~addr:(off + 16) ~port:(tcp + 2)
let peek_w1 buf ~off ~tcp = word buf ~addr:(off + 12) ~port:tcp

let peek_flow buf ~off =
  let tcp = peek_tcp buf ~off in
  if tcp >= 0 then
    Ok (Flow.of_words ~w0:(peek_w0 buf ~off ~tcp) ~w1:(peek_w1 buf ~off ~tcp))
  else if tcp = bad_version then Error "ipv4: bad version"
  else if tcp = short_header then Error "ipv4: header too short"
  else if tcp = not_tcp then Error "segment: not TCP"
  else Error "segment: truncated datagram"

(* [check] makes every check, in place, and answers one code per error:
   the four above ([truncated] for a buffer too short for the fixed
   IPv4 header, [short_header] for an IHL below 5) and these, numbered
   in the order it looks for them. *)
let truncated_options = -5
let bad_header_checksum = -6
let short_total = -7
let truncated_payload = -8
let fragmented = -9
let truncated_tcp = -10
let short_data_offset = -11
let long_data_offset = -12
let bad_tcp_checksum = -13
let truncated_option = -14
let bad_option_length = -15

(* The option walk: a kind-0 byte ends the list, a kind-1 byte is one
   byte long, and every other option needs a length byte of at least 2
   that keeps it inside [stop].  0 when the block is well formed. *)
let rec option_walk buf i ~stop =
  if i >= stop then 0
  else
    match Bytes.get_uint8 buf i with
    | 0 -> 0
    | 1 -> option_walk buf (i + 1) ~stop
    | _ ->
      if i + 1 >= stop then truncated_option
      else
        let olen = Bytes.get_uint8 buf (i + 1) in
        if olen < 2 || i + olen > stop then bad_option_length
        else option_walk buf (i + olen) ~stop

(* The TCP header's length in bytes, options included. *)
let data_offset buf ~tcp = (Bytes.get_uint8 buf (tcp + 12) lsr 4) * 4

(* The one validation pass, [check] with the TCP checksum optional.
   Inlined into [check] with [verify] true, so the shipped path tests
   no flag, and into [parse]. *)
let[@inline] validate buf ~off ~verify =
  let len = Bytes.length buf in
  if off < 0 || off > len - Ipv4.header_length then truncated
  else
    let first = Bytes.get_uint8 buf off in
    let hlen = (first land 0xF) * 4 in
    if first lsr 4 <> 4 then bad_version
    else if hlen < Ipv4.header_length then short_header
    else if off + hlen > len then truncated_options
    else if not (Checksum.verify buf ~off ~len:hlen) then bad_header_checksum
    else
      let total = Bytes.get_uint16_be buf (off + 2) in
      if total < hlen then short_total
      else if off + total > len then truncated_payload
      else if Bytes.get_uint8 buf (off + 9) <> 6 then not_tcp
      (* more-fragments bit and fragment offset *)
      else if Bytes.get_uint16_be buf (off + 6) land 0x3FFF <> 0 then fragmented
      else
        let tcp = off + hlen and tcp_len = total - hlen in
        if tcp_len < 20 then truncated_tcp
        else
          let data_offset = data_offset buf ~tcp in
          if data_offset < 20 then short_data_offset
          else if data_offset > tcp_len then long_data_offset
          else if
            verify
            &&
            (* [Ipv4.pseudo_header_sum], summed from the bytes; added to
               the plain sum rather than passed as [~initial], which
               would box it. *)
            let pseudo =
              Bytes.get_uint16_be buf (off + 12)
              + Bytes.get_uint16_be buf (off + 14)
              + Bytes.get_uint16_be buf (off + 16)
              + Bytes.get_uint16_be buf (off + 18)
              + 6 + tcp_len
            in
            Checksum.finish
              (Checksum.ones_complement_sum buf ~off:tcp ~len:tcp_len + pseudo)
            <> 0
          then bad_tcp_checksum
          else
            let walk = option_walk buf (tcp + 20) ~stop:(tcp + data_offset) in
            if walk < 0 then walk else tcp

let check buf ~off = validate buf ~off ~verify:true

(* The error string of each code, as the record parsers this pass
   replaced named it.  The version and the IHL come from strings made
   once, so naming a rejection allocates nothing. *)
let bad_versions = Array.init 16 (Printf.sprintf "ipv4: bad version %d")
let bad_ihls = Array.init 5 (Printf.sprintf "ipv4: bad IHL %d")

let reason buf ~off code =
  if code = truncated then "ipv4: truncated header"
  else if code = bad_version then bad_versions.(Bytes.get_uint8 buf off lsr 4)
  else if code = short_header then bad_ihls.(Bytes.get_uint8 buf off land 0xF)
  else if code = truncated_options then "ipv4: truncated options"
  else if code = bad_header_checksum then "ipv4: header checksum mismatch"
  else if code = short_total then "ipv4: total length below header length"
  else if code = truncated_payload then "ipv4: truncated payload"
  else if code = not_tcp then "segment: not TCP"
  else if code = fragmented then "segment: fragmented datagram"
  else if code = truncated_tcp then "tcp: truncated header"
  else if code = short_data_offset then "tcp: data offset below 20"
  else if code = long_data_offset then "tcp: data offset beyond segment"
  else if code = bad_tcp_checksum then "tcp: checksum mismatch"
  else if code = truncated_option then "tcp: truncated option"
  else if code = bad_option_length then "tcp: bad option length"
  else invalid_arg "Segment.reason: not a rejection code"

(* The six flags [Tcp_header.flags] models; the two bits above them
   (ECE, CWR) are dropped, as [parse] drops them. *)
let flags buf ~tcp = Bytes.get_uint8 buf (tcp + 13) land 0x3F

let u32 buf i =
  (Bytes.get_uint16_be buf i lsl 16) lor Bytes.get_uint16_be buf (i + 2)

let seq buf ~tcp = u32 buf (tcp + 4)
let ack_number buf ~tcp = u32 buf (tcp + 8)
let payload_off buf ~tcp = tcp + data_offset buf ~tcp

let payload_length buf ~off ~tcp =
  off + Bytes.get_uint16_be buf (off + 2) - payload_off buf ~tcp

(* The options of a block the walk accepted, decoded where they lie;
   its rules hold, so nothing is checked again. *)
let rec read_options buf i ~stop acc =
  if i >= stop then List.rev acc
  else
    match Bytes.get_uint8 buf i with
    | 0 -> List.rev acc
    | 1 -> read_options buf (i + 1) ~stop (Tcp_header.Nop :: acc)
    | kind ->
      let olen = Bytes.get_uint8 buf (i + 1) in
      let option : Tcp_header.option_ =
        match (kind, olen) with
        | 2, 4 -> Mss (Bytes.get_uint16_be buf (i + 2))
        | 3, 3 -> Window_scale (Bytes.get_uint8 buf (i + 2))
        | 4, 2 -> Sack_permitted
        | 8, 10 ->
          Timestamps
            { value = Bytes.get_int32_be buf (i + 2);
              echo = Bytes.get_int32_be buf (i + 6) }
        | _ ->
          Unknown { kind; payload = Bytes.sub_string buf (i + 2) (olen - 2) }
      in
      read_options buf (i + olen) ~stop (option :: acc)

let parse ?(verify_checksum = true) buf ~off =
  let tcp = validate buf ~off ~verify:verify_checksum in
  if tcp < 0 then Error (reason buf ~off tcp)
  else
    let payload_off = payload_off buf ~tcp in
    let ip =
      { Ipv4.tos = Bytes.get_uint8 buf (off + 1);
        identification = Bytes.get_uint16_be buf (off + 4);
        dont_fragment = Bytes.get_uint8 buf (off + 6) land 0x40 <> 0;
        ttl = Bytes.get_uint8 buf (off + 8);
        src = Ipv4.addr_of_int32 (Bytes.get_int32_be buf (off + 12));
        dst = Ipv4.addr_of_int32 (Bytes.get_int32_be buf (off + 16));
        payload_length = off + Bytes.get_uint16_be buf (off + 2) - tcp }
    and header =
      { Tcp_header.src_port = Bytes.get_uint16_be buf tcp;
        dst_port = Bytes.get_uint16_be buf (tcp + 2);
        seq = Bytes.get_int32_be buf (tcp + 4);
        ack_number = Bytes.get_int32_be buf (tcp + 8);
        flags = Tcp_header.flags_of_int (flags buf ~tcp);
        window = Bytes.get_uint16_be buf (tcp + 14);
        urgent = Bytes.get_uint16_be buf (tcp + 18);
        options = read_options buf (tcp + 20) ~stop:payload_off [] }
    in
    Ok
      { ip; tcp = header;
        payload =
          Bytes.sub_string buf payload_off (payload_length buf ~off ~tcp) }

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a payload=%d bytes@]" Ipv4.pp t.ip
    Tcp_header.pp t.tcp (String.length t.payload)
