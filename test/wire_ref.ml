(* The reference wire parser: the record parsers that validated
   datagrams before [Packet.Segment.parse] was built on
   [Packet.Segment.check], kept as an independent implementation of
   the same rules.  Each header is validated and built by its own
   parser, field by field.  It shares no validation code with the
   library; it calls only [Packet.Checksum], which test_packet checks
   against RFC 1071.  The properties compare the library's verdicts,
   error strings and records with these. *)

module Ipv4 = struct
  (* The whole header, with the fields the library's record drops
     because [Segment.parse] accepts one value of each. *)
  type t = {
    tos : int;
    identification : int;
    dont_fragment : bool;
    more_fragments : bool;
    fragment_offset : int;
    ttl : int;
    protocol : int;
    src : int32;
    dst : int32;
    payload_length : int;
  }

  let header_length = 20

  let parse buf ~off =
    let len = Bytes.length buf in
    if off < 0 || off > len - header_length then Error "ipv4: truncated header"
    else
      let vi = Bytes.get_uint8 buf off in
      let version = vi lsr 4 and ihl = vi land 0xF in
      if version <> 4 then Error (Printf.sprintf "ipv4: bad version %d" version)
      else if ihl < 5 then Error (Printf.sprintf "ipv4: bad IHL %d" ihl)
      else
        let hlen = ihl * 4 in
        if off + hlen > len then Error "ipv4: truncated options"
        else if not (Packet.Checksum.verify buf ~off ~len:hlen) then
          Error "ipv4: header checksum mismatch"
        else
          let total = Bytes.get_uint16_be buf (off + 2) in
          if total < hlen then Error "ipv4: total length below header length"
          else if off + total > len then Error "ipv4: truncated payload"
          else
            let flags = Bytes.get_uint16_be buf (off + 6) in
            let t =
              { tos = Bytes.get_uint8 buf (off + 1);
                identification = Bytes.get_uint16_be buf (off + 4);
                dont_fragment = flags land 0x4000 <> 0;
                more_fragments = flags land 0x2000 <> 0;
                fragment_offset = flags land 0x1FFF;
                ttl = Bytes.get_uint8 buf (off + 8);
                protocol = Bytes.get_uint8 buf (off + 9);
                src = Bytes.get_int32_be buf (off + 12);
                dst = Bytes.get_int32_be buf (off + 16);
                payload_length = total - hlen }
            in
            Ok (t, off + hlen)

  let pseudo_header_sum t =
    let hi32 a = Int32.to_int (Int32.shift_right_logical a 16) in
    let lo32 a = Int32.to_int (Int32.logand a 0xFFFFl) in
    hi32 t.src + lo32 t.src + hi32 t.dst + lo32 t.dst + t.protocol
    + t.payload_length
end

module Tcp_header = struct
  open Packet.Tcp_header

  let flags_of_int bits =
    { fin = bits land 0x01 <> 0;
      syn = bits land 0x02 <> 0;
      rst = bits land 0x04 <> 0;
      psh = bits land 0x08 <> 0;
      ack = bits land 0x10 <> 0;
      urg = bits land 0x20 <> 0 }

  let parse_options buf ~off ~stop =
    let rec loop acc off =
      if off >= stop then Ok (List.rev acc)
      else
        match Bytes.get_uint8 buf off with
        | 0 -> Ok (List.rev acc) (* end of option list *)
        | 1 -> loop (Nop :: acc) (off + 1)
        | kind ->
          if off + 1 >= stop then Error "tcp: truncated option"
          else
            let olen = Bytes.get_uint8 buf (off + 1) in
            if olen < 2 || off + olen > stop then
              Error "tcp: bad option length"
            else
              let opt =
                match (kind, olen) with
                | 2, 4 -> Mss (Bytes.get_uint16_be buf (off + 2))
                | 3, 3 -> Window_scale (Bytes.get_uint8 buf (off + 2))
                | 4, 2 -> Sack_permitted
                | 8, 10 ->
                  Timestamps
                    { value = Bytes.get_int32_be buf (off + 2);
                      echo = Bytes.get_int32_be buf (off + 6) }
                | _ ->
                  Unknown
                    { kind;
                      payload = Bytes.sub_string buf (off + 2) (olen - 2) }
              in
              loop (opt :: acc) (off + olen)
    in
    loop [] off

  (* The segment is [len] bytes at [off], inside the buffer. *)
  let parse ?pseudo_sum ~len buf ~off =
    if len < 20 then Error "tcp: truncated header"
    else
      let data_offset = (Bytes.get_uint8 buf (off + 12) lsr 4) * 4 in
      if data_offset < 20 then Error "tcp: data offset below 20"
      else if data_offset > len then Error "tcp: data offset beyond segment"
      else
        let checksum_ok =
          match pseudo_sum with
          | None -> true
          | Some initial -> Packet.Checksum.verify ~initial buf ~off ~len
        in
        if not checksum_ok then Error "tcp: checksum mismatch"
        else
          match parse_options buf ~off:(off + 20) ~stop:(off + data_offset) with
          | Error _ as e -> e
          | Ok options ->
            let t =
              { src_port = Bytes.get_uint16_be buf off;
                dst_port = Bytes.get_uint16_be buf (off + 2);
                seq = Bytes.get_int32_be buf (off + 4);
                ack_number = Bytes.get_int32_be buf (off + 8);
                flags = flags_of_int (Bytes.get_uint8 buf (off + 13));
                window = Bytes.get_uint16_be buf (off + 14);
                urgent = Bytes.get_uint16_be buf (off + 18);
                options }
            in
            Ok (t, off + data_offset)
end

module Segment = struct
  let parse ?(verify_checksum = true) buf ~off =
    match Ipv4.parse buf ~off with
    | Error _ as e -> e
    | Ok (ip, tcp_off) ->
      if ip.Ipv4.protocol <> 6 then Error "segment: not TCP"
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
          let ip =
            { Packet.Ipv4.tos = ip.Ipv4.tos;
              identification = ip.Ipv4.identification;
              dont_fragment = ip.Ipv4.dont_fragment;
              ttl = ip.Ipv4.ttl;
              src = Packet.Ipv4.addr_of_int32 ip.Ipv4.src;
              dst = Packet.Ipv4.addr_of_int32 ip.Ipv4.dst;
              payload_length = ip.Ipv4.payload_length }
          in
          Ok
            { Packet.Segment.ip; tcp;
              payload = Bytes.sub_string buf payload_off payload_len })
end
