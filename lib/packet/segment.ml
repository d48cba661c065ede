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
