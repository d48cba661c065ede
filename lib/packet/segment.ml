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
      ~protocol:Ipv4.Tcp ~payload_length:tcp_len ()
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
    let endpoint ~addr ~port =
      { Flow.addr = Ipv4.addr_of_int32 (Bytes.get_int32_be buf addr);
        port = Bytes.get_uint16_be buf port }
    in
    Ok
      { Flow.local = endpoint ~addr:(off + 16) ~port:(tcp + 2);
        remote = endpoint ~addr:(off + 12) ~port:tcp }
  else if tcp = bad_version then Error "ipv4: bad version"
  else if tcp = short_header then Error "ipv4: header too short"
  else if tcp = not_tcp then Error "segment: not TCP"
  else Error "segment: truncated datagram"

(* [check] makes every check [parse] makes, in place.  Its own
   rejections continue the codes above. *)
let bad_checksum = -5
let bad_length = -6
let fragmented = -7
let bad_data_offset = -8
let bad_options = -9

(* The option walk of [Tcp_header.parse]: a kind-0 byte ends the
   list, a kind-1 byte is one byte long, and every other option needs
   a length byte of at least 2 that keeps it inside [stop]. *)
let rec options_ok buf i ~stop =
  if i >= stop then true
  else
    match Bytes.get_uint8 buf i with
    | 0 -> true
    | 1 -> options_ok buf (i + 1) ~stop
    | _ ->
      i + 1 < stop
      &&
      let olen = Bytes.get_uint8 buf (i + 1) in
      olen >= 2 && i + olen <= stop && options_ok buf (i + olen) ~stop

(* The TCP header's length in bytes, options included. *)
let data_offset buf ~tcp = (Bytes.get_uint8 buf (tcp + 12) lsr 4) * 4

let check buf ~off =
  let len = Bytes.length buf in
  if off < 0 || off > len - Ipv4.header_length then truncated
  else
    let first = Bytes.get_uint8 buf off in
    let hlen = (first land 0xF) * 4 in
    if first lsr 4 <> 4 then bad_version
    else if hlen < Ipv4.header_length then short_header
    else if off + hlen > len then truncated
    else if not (Checksum.verify buf ~off ~len:hlen) then bad_checksum
    else
      let total = Bytes.get_uint16_be buf (off + 2) in
      if total < hlen || off + total > len then bad_length
      else if Bytes.get_uint8 buf (off + 9) <> 6 then not_tcp
      (* more-fragments bit and fragment offset *)
      else if Bytes.get_uint16_be buf (off + 6) land 0x3FFF <> 0 then fragmented
      else
        let tcp = off + hlen and tcp_len = total - hlen in
        if tcp_len < 20 then truncated
        else
          let data_offset = data_offset buf ~tcp in
          if data_offset < 20 || data_offset > tcp_len then bad_data_offset
          else
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
            if
              Checksum.finish
                (Checksum.ones_complement_sum buf ~off:tcp ~len:tcp_len
                + pseudo)
              <> 0
            then bad_checksum
            else if not (options_ok buf (tcp + 20) ~stop:(tcp + data_offset))
            then bad_options
            else tcp

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

let parse ?(verify_checksum = true) buf ~off =
  match Ipv4.parse buf ~off with
  | Error _ as e -> e
  | Ok (ip, tcp_off) ->
    if ip.Ipv4.protocol <> Ipv4.Tcp then Error "segment: not TCP"
    else if ip.Ipv4.more_fragments || ip.Ipv4.fragment_offset <> 0 then
      Error "segment: fragmented datagram"
    else
      let pseudo_sum =
        if verify_checksum then Some (Ipv4.pseudo_header_sum ip) else None
      in
      let tcp_len = ip.Ipv4.payload_length in
      (match Tcp_header.parse ?pseudo_sum ~len:tcp_len buf ~off:tcp_off with
      | Error _ as e -> e
      | Ok (tcp, payload_off) ->
        let payload_len = tcp_off + tcp_len - payload_off in
        let payload = Bytes.sub_string buf payload_off payload_len in
        Ok { ip; tcp; payload })

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a payload=%d bytes@]" Ipv4.pp t.ip
    Tcp_header.pp t.tcp (String.length t.payload)
