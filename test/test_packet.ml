(* Tests for the packet substrate: checksums, IPv4 and TCP headers,
   flows, whole segments and pcap traces. *)

let addr = Packet.Ipv4.addr_of_octets

let endpoint a b c d port = Packet.Flow.endpoint (addr a b c d) port

(* ------------------------------------------------------------------ *)
(* Checksum                                                            *)

let test_checksum_rfc1071_example () =
  (* The worked example from RFC 1071 section 3: bytes 00 01 f2 03 f4
     f5 f6 f7 sum to ddf2 before complementing. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Packet.Checksum.ones_complement_sum data ~off:0 ~len:8 in
  let folded = lnot (Packet.Checksum.finish sum) land 0xFFFF in
  Alcotest.(check int) "running sum" 0xDDF2 folded

let test_checksum_odd_length () =
  (* A trailing odd byte is padded with zero on the right. *)
  let data = Bytes.of_string "\xAB" in
  Alcotest.(check int)
    "odd byte padded" (lnot 0xAB00 land 0xFFFF)
    (Packet.Checksum.compute data ~off:0 ~len:1)

let test_checksum_verify_roundtrip () =
  let data = Bytes.of_string "\x45\x00\x00\x1cdata with stuff \x00\x00" in
  let csum = Packet.Checksum.compute data ~off:0 ~len:(Bytes.length data) in
  (* Stuff the checksum into the last two bytes and re-verify. *)
  Bytes.set_uint16_be data (Bytes.length data - 2) csum;
  Alcotest.(check bool)
    "verifies" true
    (Packet.Checksum.verify data ~off:0 ~len:(Bytes.length data))

let test_checksum_bounds () =
  let data = Bytes.create 4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Checksum.ones_complement_sum: region out of range")
    (fun () -> ignore (Packet.Checksum.compute data ~off:2 ~len:4))

let test_checksum_zero_region () =
  let data = Bytes.make 8 '\x00' in
  Alcotest.(check int) "all-zero checksum" 0xFFFF
    (Packet.Checksum.compute data ~off:0 ~len:8)

(* ------------------------------------------------------------------ *)
(* IPv4 addresses                                                      *)

let test_addr_roundtrip () =
  List.iter
    (fun text ->
      match Packet.Ipv4.addr_of_string text with
      | Ok a -> Alcotest.(check string) text text (Packet.Ipv4.addr_to_string a)
      | Error e -> Alcotest.fail e)
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.1.1"; "127.0.0.1" ]

let test_addr_invalid () =
  List.iter
    (fun text ->
      match Packet.Ipv4.addr_of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "-1.0.0.0"; "a.b.c.d"; "1..2.3" ]

let test_addr_octets_invalid () =
  Alcotest.check_raises "octet 256"
    (Invalid_argument "Ipv4.addr_of_octets: octet out of range") (fun () ->
      ignore (addr 256 0 0 1))

let test_addr_compare () =
  let a = addr 10 0 0 1 and b = addr 10 0 0 2 in
  Alcotest.(check bool) "equal self" true (Packet.Ipv4.equal_addr a a);
  Alcotest.(check bool) "not equal" false (Packet.Ipv4.equal_addr a b);
  Alcotest.(check bool) "ordered" true (Packet.Ipv4.compare_addr a b < 0)

(* ------------------------------------------------------------------ *)
(* IPv4 header                                                         *)

let test_ipv4_roundtrip () =
  let header =
    Packet.Ipv4.make ~tos:0x10 ~identification:777 ~ttl:33 ~src:(addr 10 0 0 1)
      ~dst:(addr 192 168 1 1) ~protocol:Packet.Ipv4.Tcp ~payload_length:100 ()
  in
  let buf = Bytes.create (Packet.Ipv4.header_length + 100) in
  Packet.Ipv4.serialize header buf ~off:0;
  match Packet.Ipv4.parse buf ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok (parsed, payload_off) ->
    Alcotest.(check int) "payload offset" 20 payload_off;
    Alcotest.(check int) "tos" 0x10 parsed.Packet.Ipv4.tos;
    Alcotest.(check int) "id" 777 parsed.Packet.Ipv4.identification;
    Alcotest.(check int) "ttl" 33 parsed.Packet.Ipv4.ttl;
    Alcotest.(check int) "payload length" 100 parsed.Packet.Ipv4.payload_length;
    Alcotest.(check bool) "df" true parsed.Packet.Ipv4.dont_fragment;
    Alcotest.(check bool)
      "src" true
      (Packet.Ipv4.equal_addr parsed.Packet.Ipv4.src (addr 10 0 0 1));
    Alcotest.(check bool)
      "dst" true
      (Packet.Ipv4.equal_addr parsed.Packet.Ipv4.dst (addr 192 168 1 1))

let test_ipv4_rejects_corruption () =
  let header =
    Packet.Ipv4.make ~src:(addr 1 2 3 4) ~dst:(addr 5 6 7 8)
      ~protocol:Packet.Ipv4.Tcp ~payload_length:0 ()
  in
  let buf = Bytes.create Packet.Ipv4.header_length in
  Packet.Ipv4.serialize header buf ~off:0;
  Bytes.set_uint8 buf 8 (Bytes.get_uint8 buf 8 lxor 0xFF) (* flip TTL *);
  (match Packet.Ipv4.parse buf ~off:0 with
  | Ok _ -> Alcotest.fail "accepted corrupted header"
  | Error e ->
    Alcotest.(check string) "checksum error" "ipv4: header checksum mismatch" e)

let test_ipv4_rejects_truncation () =
  match Packet.Ipv4.parse (Bytes.create 10) ~off:0 with
  | Ok _ -> Alcotest.fail "accepted truncated header"
  | Error e -> Alcotest.(check string) "error" "ipv4: truncated header" e

let test_ipv4_rejects_bad_version () =
  let buf = Bytes.make 20 '\x00' in
  Bytes.set_uint8 buf 0 0x65 (* version 6 *);
  match Packet.Ipv4.parse buf ~off:0 with
  | Ok _ -> Alcotest.fail "accepted version 6"
  | Error e -> Alcotest.(check string) "error" "ipv4: bad version 6" e

let test_ipv4_validation () =
  Alcotest.check_raises "ttl range"
    (Invalid_argument "Ipv4.make: ttl out of range") (fun () ->
      ignore
        (Packet.Ipv4.make ~ttl:300 ~src:(addr 1 1 1 1) ~dst:(addr 2 2 2 2)
           ~protocol:Packet.Ipv4.Tcp ~payload_length:0 ()))

let test_protocol_codes () =
  Alcotest.(check int) "tcp" 6 (Packet.Ipv4.protocol_to_int Packet.Ipv4.Tcp);
  Alcotest.(check int) "udp" 17 (Packet.Ipv4.protocol_to_int Packet.Ipv4.Udp);
  Alcotest.(check bool)
    "roundtrip other" true
    (Packet.Ipv4.protocol_of_int 89 = Packet.Ipv4.Other 89)

(* ------------------------------------------------------------------ *)
(* TCP header                                                          *)

let test_tcp_roundtrip_plain () =
  let header =
    Packet.Tcp_header.make ~seq:0x01020304l ~ack_number:0x0A0B0C0Dl
      ~flags:Packet.Tcp_header.flag_psh_ack ~window:4096 ~src_port:1234
      ~dst_port:80 ()
  in
  let buf = Bytes.create 64 in
  let written = Packet.Tcp_header.serialize header buf ~off:0 in
  Alcotest.(check int) "plain header is 20 bytes" 20 written;
  match Packet.Tcp_header.parse buf ~off:0 ~len:written with
  | Error e -> Alcotest.fail e
  | Ok (parsed, payload_off) ->
    Alcotest.(check int) "payload offset" 20 payload_off;
    Alcotest.(check int) "src port" 1234 parsed.Packet.Tcp_header.src_port;
    Alcotest.(check int) "dst port" 80 parsed.Packet.Tcp_header.dst_port;
    Alcotest.(check int32) "seq" 0x01020304l parsed.Packet.Tcp_header.seq;
    Alcotest.(check int32) "ack" 0x0A0B0C0Dl parsed.Packet.Tcp_header.ack_number;
    Alcotest.(check bool) "psh" true parsed.Packet.Tcp_header.flags.Packet.Tcp_header.psh;
    Alcotest.(check bool) "ack flag" true parsed.Packet.Tcp_header.flags.Packet.Tcp_header.ack;
    Alcotest.(check bool) "syn" false parsed.Packet.Tcp_header.flags.Packet.Tcp_header.syn;
    Alcotest.(check int) "window" 4096 parsed.Packet.Tcp_header.window

let test_tcp_roundtrip_options () =
  let options =
    Packet.Tcp_header.
      [ Mss 1460; Nop; Window_scale 7; Sack_permitted;
        Timestamps { value = 123456l; echo = 654321l } ]
  in
  let header =
    Packet.Tcp_header.make ~flags:Packet.Tcp_header.flag_syn ~options
      ~src_port:5555 ~dst_port:8888 ()
  in
  let buf = Bytes.create 64 in
  let written = Packet.Tcp_header.serialize header buf ~off:0 in
  Alcotest.(check int)
    "header length = 20 + padded options"
    (Packet.Tcp_header.header_length header)
    written;
  Alcotest.(check int) "4-byte aligned" 0 (written mod 4);
  match Packet.Tcp_header.parse buf ~off:0 ~len:written with
  | Error e -> Alcotest.fail e
  | Ok (parsed, _) ->
    let opts = parsed.Packet.Tcp_header.options in
    Alcotest.(check int) "option count" 5 (List.length opts);
    (match opts with
    | [ Packet.Tcp_header.Mss 1460; Packet.Tcp_header.Nop;
        Packet.Tcp_header.Window_scale 7; Packet.Tcp_header.Sack_permitted;
        Packet.Tcp_header.Timestamps { value = 123456l; echo = 654321l } ] ->
      ()
    | _ -> Alcotest.fail "options did not round-trip in order")

let test_tcp_unknown_option () =
  let header =
    Packet.Tcp_header.make
      ~options:[ Packet.Tcp_header.Unknown { kind = 42; payload = "xy" } ]
      ~src_port:1 ~dst_port:2 ()
  in
  let buf = Bytes.create 64 in
  let written = Packet.Tcp_header.serialize header buf ~off:0 in
  match Packet.Tcp_header.parse buf ~off:0 ~len:written with
  | Error e -> Alcotest.fail e
  | Ok (parsed, _) -> (
    match parsed.Packet.Tcp_header.options with
    | [ Packet.Tcp_header.Unknown { kind = 42; payload = "xy" } ] -> ()
    | _ -> Alcotest.fail "unknown option mangled")

let test_tcp_checksum_with_pseudo_header () =
  let ip =
    Packet.Ipv4.make ~src:(addr 10 0 0 1) ~dst:(addr 10 0 0 2)
      ~protocol:Packet.Ipv4.Tcp ~payload_length:25 ()
  in
  let pseudo_sum = Packet.Ipv4.pseudo_header_sum ip in
  let header = Packet.Tcp_header.make ~src_port:1 ~dst_port:2 () in
  let buf = Bytes.create 64 in
  let written =
    Packet.Tcp_header.serialize header ~pseudo_sum ~payload:"hello" buf ~off:0
  in
  Alcotest.(check int) "20 + 5" 25 written;
  (match Packet.Tcp_header.parse ~pseudo_sum ~len:written buf ~off:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Flip a payload byte: checksum must catch it. *)
  Bytes.set_uint8 buf 22 (Bytes.get_uint8 buf 22 lxor 1);
  match Packet.Tcp_header.parse ~pseudo_sum ~len:written buf ~off:0 with
  | Ok _ -> Alcotest.fail "accepted corrupt payload"
  | Error e -> Alcotest.(check string) "checksum error" "tcp: checksum mismatch" e

let test_tcp_rejects_bad_offset () =
  let buf = Bytes.make 20 '\x00' in
  Bytes.set_uint8 buf 12 (3 lsl 4) (* data offset 12 bytes < 20 *);
  (match Packet.Tcp_header.parse buf ~off:0 with
  | Ok _ -> Alcotest.fail "accepted offset 3"
  | Error e -> Alcotest.(check string) "error" "tcp: data offset below 20" e);
  Bytes.set_uint8 buf 12 (15 lsl 4) (* 60 bytes > segment *);
  match Packet.Tcp_header.parse buf ~off:0 with
  | Ok _ -> Alcotest.fail "accepted oversized offset"
  | Error e -> Alcotest.(check string) "error" "tcp: data offset beyond segment" e

let test_tcp_validation () =
  Alcotest.check_raises "port range"
    (Invalid_argument "Tcp_header.make: src_port out of range") (fun () ->
      ignore (Packet.Tcp_header.make ~src_port:70000 ~dst_port:1 ()));
  let too_many =
    List.init 11 (fun _ -> Packet.Tcp_header.Mss 1460)
  in
  Alcotest.check_raises "options too long"
    (Invalid_argument "Tcp_header.make: options exceed 40 bytes") (fun () ->
      ignore (Packet.Tcp_header.make ~options:too_many ~src_port:1 ~dst_port:2 ()))

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)

let test_flow_of_headers () =
  let ip =
    Packet.Ipv4.make ~src:(addr 10 0 0 9) ~dst:(addr 192 168 1 1)
      ~protocol:Packet.Ipv4.Tcp ~payload_length:20 ()
  in
  let tcp = Packet.Tcp_header.make ~src_port:4000 ~dst_port:80 () in
  let flow = Packet.Flow.of_headers ip tcp in
  (* Receiver's view: local = destination of the packet. *)
  Alcotest.(check int) "local port" 80 flow.Packet.Flow.local.Packet.Flow.port;
  Alcotest.(check int) "remote port" 4000 flow.Packet.Flow.remote.Packet.Flow.port;
  Alcotest.(check bool)
    "local addr" true
    (Packet.Ipv4.equal_addr flow.Packet.Flow.local.Packet.Flow.addr
       (addr 192 168 1 1))

let test_flow_reverse_involution () =
  let flow =
    Packet.Flow.v ~local:(endpoint 1 2 3 4 80) ~remote:(endpoint 5 6 7 8 4000)
  in
  Alcotest.(check bool)
    "reverse . reverse = id" true
    (Packet.Flow.equal flow (Packet.Flow.reverse (Packet.Flow.reverse flow)));
  Alcotest.(check bool)
    "reverse differs" false
    (Packet.Flow.equal flow (Packet.Flow.reverse flow))

let test_flow_key_bytes_layout () =
  let flow =
    Packet.Flow.v ~local:(endpoint 1 2 3 4 0x1234)
      ~remote:(endpoint 5 6 7 8 0x5678)
  in
  let key = Packet.Flow.to_key_bytes flow in
  Alcotest.(check int) "96 bits" 12 (Bytes.length key);
  Alcotest.(check string) "layout"
    "\x01\x02\x03\x04\x05\x06\x07\x08\x12\x34\x56\x78"
    (Bytes.to_string key)

let test_flow_compare_total_order () =
  let flows =
    [ Packet.Flow.v ~local:(endpoint 1 1 1 1 1) ~remote:(endpoint 2 2 2 2 2);
      Packet.Flow.v ~local:(endpoint 1 1 1 1 1) ~remote:(endpoint 2 2 2 2 3);
      Packet.Flow.v ~local:(endpoint 1 1 1 1 2) ~remote:(endpoint 2 2 2 2 2) ]
  in
  List.iter
    (fun f ->
      Alcotest.(check int) "compare self" 0 (Packet.Flow.compare f f))
    flows;
  let sorted = List.sort Packet.Flow.compare flows in
  Alcotest.(check int) "stable size" 3 (List.length sorted)

let test_endpoint_validation () =
  Alcotest.check_raises "port out of range"
    (Invalid_argument "Flow.endpoint: bad port") (fun () ->
      ignore (Packet.Flow.endpoint (addr 1 2 3 4) 65536))

(* ------------------------------------------------------------------ *)
(* Segment                                                             *)

let test_segment_roundtrip () =
  let segment =
    Packet.Segment.make ~seq:42l ~ack_number:77l
      ~flags:Packet.Tcp_header.flag_psh_ack ~payload:"SELECT * FROM accounts"
      ~src:(endpoint 10 0 0 1 4000) ~dst:(endpoint 192 168 1 1 8888) ()
  in
  let wire = Packet.Segment.to_bytes segment in
  Alcotest.(check int) "wire length" (Packet.Segment.length segment)
    (Bytes.length wire);
  match Packet.Segment.parse wire ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    Alcotest.(check string) "payload" "SELECT * FROM accounts"
      parsed.Packet.Segment.payload;
    Alcotest.(check int32) "seq" 42l parsed.Packet.Segment.tcp.Packet.Tcp_header.seq;
    Alcotest.(check bool)
      "flow" true
      (Packet.Flow.equal (Packet.Segment.flow segment)
         (Packet.Segment.flow parsed))

let test_segment_detects_any_corruption () =
  let segment =
    Packet.Segment.make ~payload:"payload under test"
      ~src:(endpoint 10 0 0 1 4000) ~dst:(endpoint 192 168 1 1 8888) ()
  in
  let wire = Packet.Segment.to_bytes segment in
  let rejected = ref 0 in
  for i = 0 to Bytes.length wire - 1 do
    let copy = Bytes.copy wire in
    Bytes.set_uint8 copy i (Bytes.get_uint8 copy i lxor 0x01);
    match Packet.Segment.parse copy ~off:0 with
    | Error _ -> incr rejected
    | Ok reparsed ->
      (* A flip in the checksum-covered region must not parse equal. *)
      if
        reparsed.Packet.Segment.payload = segment.Packet.Segment.payload
        && Packet.Flow.equal
             (Packet.Segment.flow reparsed)
             (Packet.Segment.flow segment)
      then Alcotest.failf "undetected corruption at byte %d" i
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most flips rejected (%d)" !rejected)
    true
    (!rejected >= Bytes.length wire - 2)

let test_segment_rejects_fragment () =
  let segment =
    Packet.Segment.make ~src:(endpoint 1 1 1 1 1) ~dst:(endpoint 2 2 2 2 2) ()
  in
  let wire = Packet.Segment.to_bytes segment in
  (* Set MF bit and fix the IP checksum by recomputing it. *)
  let flags = Bytes.get_uint16_be wire 6 in
  Bytes.set_uint16_be wire 6 (flags lor 0x2000);
  Bytes.set_uint16_be wire 10 0;
  let csum = Packet.Checksum.compute wire ~off:0 ~len:20 in
  Bytes.set_uint16_be wire 10 csum;
  match Packet.Segment.parse wire ~off:0 with
  | Ok _ -> Alcotest.fail "accepted fragment"
  | Error e -> Alcotest.(check string) "error" "segment: fragmented datagram" e

let test_segment_skip_checksum () =
  let segment =
    Packet.Segment.make ~payload:"x" ~src:(endpoint 1 1 1 1 1)
      ~dst:(endpoint 2 2 2 2 2) ()
  in
  let wire = Packet.Segment.to_bytes segment in
  (* Corrupt the TCP checksum itself; parse with verification off. *)
  Bytes.set_uint16_be wire (20 + 16) 0xDEAD;
  match Packet.Segment.parse ~verify_checksum:false wire ~off:0 with
  | Ok parsed ->
    Alcotest.(check string) "payload still there" "x"
      parsed.Packet.Segment.payload
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Pcap                                                                *)

let with_temp_file f =
  let path = Filename.temp_file "tcpdemux_test" ".pcap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_pcap_roundtrip () =
  with_temp_file (fun path ->
      let segments =
        List.init 5 (fun i ->
            Packet.Segment.make
              ~payload:(Printf.sprintf "packet %d" i)
              ~src:(endpoint 10 0 0 (i + 1) (1000 + i))
              ~dst:(endpoint 192 168 1 1 8888) ())
      in
      let oc = open_out_bin path in
      let writer = Packet.Pcap.create_writer oc in
      List.iteri
        (fun i s ->
          Packet.Pcap.write_packet writer
            ~time:(1000.0 +. (float_of_int i *. 0.5))
            (Packet.Segment.to_bytes s))
        segments;
      close_out oc;
      Alcotest.(check int) "count" 5 (Packet.Pcap.packet_count writer);
      let ic = open_in_bin path in
      let records =
        match Packet.Pcap.read_all ic with
        | Ok records -> records
        | Error e -> Alcotest.fail e
      in
      close_in ic;
      Alcotest.(check int) "read back" 5 (List.length records);
      List.iteri
        (fun i record ->
          Alcotest.(check (float 1e-5))
            "timestamp"
            (1000.0 +. (float_of_int i *. 0.5))
            record.Packet.Pcap.time;
          match Packet.Segment.parse record.Packet.Pcap.data ~off:0 with
          | Ok parsed ->
            Alcotest.(check string)
              "payload"
              (Printf.sprintf "packet %d" i)
              parsed.Packet.Segment.payload
          | Error e -> Alcotest.fail e)
        records)

let test_pcap_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "this is not a pcap file at all.........";
      close_out oc;
      let ic = open_in_bin path in
      (match Packet.Pcap.read_all ic with
      | Ok _ -> Alcotest.fail "accepted garbage"
      | Error e -> Alcotest.(check string) "error" "pcap: bad magic" e);
      close_in ic)

(* Corrupted-fixture tests: write a valid capture, damage it at a
   known byte, and check [read_all] reports the damage (with its
   offset) instead of raising. *)

let valid_capture_bytes ?(packets = 2) () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let writer = Packet.Pcap.create_writer oc in
      for i = 1 to packets do
        Packet.Pcap.write_packet writer ~time:(float_of_int i)
          (Packet.Segment.to_bytes
             (Packet.Segment.make ~payload:"payload"
                ~src:(endpoint 10 0 0 i (1000 + i))
                ~dst:(endpoint 192 168 1 1 8888) ()))
      done;
      close_out oc;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      close_in ic;
      buf)

let read_all_of_bytes buf =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_bytes oc buf;
      close_out oc;
      let ic = open_in_bin path in
      let result = Packet.Pcap.read_all ic in
      close_in ic;
      result)

let expect_error ~substrings buf =
  match read_all_of_bytes buf with
  | Ok records ->
    Alcotest.failf "damaged capture read back as %d records"
      (List.length records)
  | Error message ->
    List.iter
      (fun affix ->
        let nh = String.length message and nn = String.length affix in
        let rec at i =
          i + nn <= nh && (String.sub message i nn = affix || at (i + 1))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" message affix)
          true (at 0))
      substrings

let test_pcap_truncated_global_header () =
  let buf = valid_capture_bytes () in
  expect_error
    ~substrings:[ "truncated global header"; "10 of 24" ]
    (Bytes.sub buf 0 10);
  expect_error ~substrings:[ "truncated global header"; "0 of 24" ]
    Bytes.empty

let test_pcap_truncated_record_header () =
  let buf = valid_capture_bytes ~packets:1 () in
  (* Cut inside the (only) record header: 24-byte global header plus 7
     of the 16 record-header bytes. *)
  expect_error
    ~substrings:[ "truncated record header at byte 24"; "7 of 16" ]
    (Bytes.sub buf 0 31)

let test_pcap_absurd_record_length () =
  let buf = valid_capture_bytes ~packets:1 () in
  (* incl_len lives at record offset 8 (byte 32 of the file),
     little-endian.  Claim 2 GiB. *)
  let damaged = Bytes.copy buf in
  Bytes.set_uint8 damaged 32 0xFF;
  Bytes.set_uint8 damaged 33 0xFF;
  Bytes.set_uint8 damaged 34 0xFF;
  Bytes.set_uint8 damaged 35 0x7F;
  expect_error ~substrings:[ "absurd record length"; "at byte 24" ] damaged;
  (* A negative incl_len is equally absurd. *)
  Bytes.set_uint8 damaged 35 0xFF;
  expect_error ~substrings:[ "absurd record length"; "at byte 24" ] damaged

let test_pcap_truncated_record_body () =
  let buf = valid_capture_bytes ~packets:2 () in
  (* Keep record 1 intact, cut record 2's body short by 5 bytes.  The
     error names the body's own offset. *)
  let record_bytes = (Bytes.length buf - 24) / 2 in
  let second_body = 24 + record_bytes + 16 in
  expect_error
    ~substrings:
      [ Printf.sprintf "truncated record body at byte %d" second_body ]
    (Bytes.sub buf 0 (Bytes.length buf - 5))

let test_pcap_empty_capture_is_ok () =
  let buf = valid_capture_bytes ~packets:1 () in
  (* Just the global header: zero records is a fine capture. *)
  match read_all_of_bytes (Bytes.sub buf 0 24) with
  | Ok [] -> ()
  | Ok records -> Alcotest.failf "read %d records" (List.length records)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Checksum coverage of the whole datagram                             *)

(* Every byte of a serialized segment is covered by a checksum: the IP
   header by the header checksum, everything past it by the TCP
   checksum (whose pseudo-header also re-covers the addresses).  A
   one's-complement sum changes whenever a single bit of a summand
   changes, so {e every} single-bit flip must make [parse] fail —
   there is no uncovered byte for an attacker (or a flaky NIC) to
   twiddle undetected.  Exhaustive over all bits of the datagram. *)
let test_every_single_bit_flip_rejected () =
  let wire =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~payload:"covered by the TCP checksum"
         ~seq:7l ~flags:Packet.Tcp_header.flag_psh_ack
         ~src:(endpoint 10 0 0 1 1234)
         ~dst:(endpoint 192 168 1 1 8888) ())
  in
  (match Packet.Segment.parse wire ~off:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pristine segment rejected: %s" e);
  let flips = ref 0 in
  for byte = 0 to Bytes.length wire - 1 do
    for bit = 0 to 7 do
      let flip () =
        Bytes.set_uint8 wire byte (Bytes.get_uint8 wire byte lxor (1 lsl bit))
      in
      flip ();
      (match Packet.Segment.parse wire ~off:0 with
      | Ok _ -> Alcotest.failf "accepted flip of byte %d bit %d" byte bit
      | Error _ -> incr flips);
      flip ()
    done
  done;
  Alcotest.(check int) "every flip tried" (8 * Bytes.length wire) !flips;
  (* The buffer was restored after each flip: it still parses. *)
  match Packet.Segment.parse wire ~off:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restoration failed: %s" e

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let arbitrary_endpoint =
  QCheck.Gen.(
    map2
      (fun ip port ->
        Packet.Flow.endpoint
          (Packet.Ipv4.addr_of_int32 (Int32.of_int ip))
          port)
      (int_bound 0xFFFFFF) (int_bound 0xFFFF))

let arbitrary_segment =
  let gen =
    QCheck.Gen.(
      map2
        (fun (src, dst) (payload, (seq, window)) ->
          Packet.Segment.make
            ~seq:(Int32.of_int seq)
            ~flags:Packet.Tcp_header.flag_psh_ack ~window ~payload ~src ~dst ())
        (pair arbitrary_endpoint arbitrary_endpoint)
        (pair (string_size (int_bound 100)) (pair nat (int_bound 0xFFFF))))
  in
  QCheck.make gen

let prop_segment_roundtrip =
  QCheck.Test.make ~count:300 ~name:"segment serialize/parse round-trips"
    arbitrary_segment (fun segment ->
      match Packet.Segment.parse (Packet.Segment.to_bytes segment) ~off:0 with
      | Error _ -> false
      | Ok parsed ->
        parsed.Packet.Segment.payload = segment.Packet.Segment.payload
        && Packet.Flow.equal
             (Packet.Segment.flow parsed)
             (Packet.Segment.flow segment)
        && Int32.equal parsed.Packet.Segment.tcp.Packet.Tcp_header.seq
             segment.Packet.Segment.tcp.Packet.Tcp_header.seq)

let prop_flow_key_injective_on_reverse =
  QCheck.Test.make ~count:300 ~name:"flow key distinguishes flow from reverse"
    (QCheck.make QCheck.Gen.(pair arbitrary_endpoint arbitrary_endpoint))
    (fun (a, b) ->
      let flow = Packet.Flow.v ~local:a ~remote:b in
      let same_endpoints =
        Packet.Ipv4.equal_addr a.Packet.Flow.addr b.Packet.Flow.addr
        && a.Packet.Flow.port = b.Packet.Flow.port
      in
      same_endpoints
      || Bytes.compare
           (Packet.Flow.to_key_bytes flow)
           (Packet.Flow.to_key_bytes (Packet.Flow.reverse flow))
         <> 0)

(* Fuzzing: parsers must totalise — any byte string yields Ok or Error,
   never an exception. *)

let arbitrary_bytes =
  QCheck.map Bytes.of_string QCheck.(string_of_size (QCheck.Gen.int_range 0 200))

let no_exception f =
  match f () with
  | (_ : (_, string) result) -> true
  | exception _ -> false

let prop_ipv4_parse_total =
  QCheck.Test.make ~count:1000 ~name:"Ipv4.parse never raises on garbage"
    arbitrary_bytes (fun bytes ->
      no_exception (fun () -> Packet.Ipv4.parse bytes ~off:0))

let prop_tcp_parse_total =
  QCheck.Test.make ~count:1000 ~name:"Tcp_header.parse never raises on garbage"
    arbitrary_bytes (fun bytes ->
      no_exception (fun () -> Packet.Tcp_header.parse bytes ~off:0))

let prop_segment_parse_total =
  QCheck.Test.make ~count:1000 ~name:"Segment.parse never raises on garbage"
    arbitrary_bytes (fun bytes ->
      no_exception (fun () -> Packet.Segment.parse bytes ~off:0))

let prop_segment_parse_total_on_mutated_valid =
  (* Mutation fuzzing: start from a valid datagram, flip a few bytes. *)
  QCheck.Test.make ~count:500 ~name:"Segment.parse never raises on mutations"
    QCheck.(pair arbitrary_segment (list_of_size (Gen.int_range 1 8) (pair small_nat small_nat)))
    (fun (segment, flips) ->
      let wire = Packet.Segment.to_bytes segment in
      List.iter
        (fun (position, value) ->
          let i = position mod Bytes.length wire in
          Bytes.set_uint8 wire i (value land 0xFF))
        flips;
      no_exception (fun () -> Packet.Segment.parse wire ~off:0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_segment_roundtrip; prop_flow_key_injective_on_reverse;
      prop_ipv4_parse_total; prop_tcp_parse_total; prop_segment_parse_total;
      prop_segment_parse_total_on_mutated_valid ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "packet"
    [ ( "checksum",
        [ Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "verify roundtrip" `Quick test_checksum_verify_roundtrip;
          Alcotest.test_case "bounds" `Quick test_checksum_bounds;
          Alcotest.test_case "all zero" `Quick test_checksum_zero_region ] );
      ( "ipv4-addr",
        [ Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "invalid strings" `Quick test_addr_invalid;
          Alcotest.test_case "invalid octets" `Quick test_addr_octets_invalid;
          Alcotest.test_case "compare" `Quick test_addr_compare ] );
      ( "ipv4-header",
        [ Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "rejects corruption" `Quick test_ipv4_rejects_corruption;
          Alcotest.test_case "rejects truncation" `Quick test_ipv4_rejects_truncation;
          Alcotest.test_case "rejects bad version" `Quick test_ipv4_rejects_bad_version;
          Alcotest.test_case "validation" `Quick test_ipv4_validation;
          Alcotest.test_case "protocol codes" `Quick test_protocol_codes ] );
      ( "tcp-header",
        [ Alcotest.test_case "roundtrip plain" `Quick test_tcp_roundtrip_plain;
          Alcotest.test_case "roundtrip options" `Quick test_tcp_roundtrip_options;
          Alcotest.test_case "unknown option" `Quick test_tcp_unknown_option;
          Alcotest.test_case "pseudo-header checksum" `Quick
            test_tcp_checksum_with_pseudo_header;
          Alcotest.test_case "bad data offset" `Quick test_tcp_rejects_bad_offset;
          Alcotest.test_case "validation" `Quick test_tcp_validation ] );
      ( "flow",
        [ Alcotest.test_case "of_headers" `Quick test_flow_of_headers;
          Alcotest.test_case "reverse involution" `Quick test_flow_reverse_involution;
          Alcotest.test_case "key layout" `Quick test_flow_key_bytes_layout;
          Alcotest.test_case "total order" `Quick test_flow_compare_total_order;
          Alcotest.test_case "endpoint validation" `Quick test_endpoint_validation ] );
      ( "segment",
        [ Alcotest.test_case "roundtrip" `Quick test_segment_roundtrip;
          Alcotest.test_case "detects corruption" `Quick
            test_segment_detects_any_corruption;
          Alcotest.test_case "rejects fragments" `Quick test_segment_rejects_fragment;
          Alcotest.test_case "skip checksum option" `Quick test_segment_skip_checksum ] );
      ( "pcap",
        [ Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
          Alcotest.test_case "truncated global header" `Quick
            test_pcap_truncated_global_header;
          Alcotest.test_case "truncated record header" `Quick
            test_pcap_truncated_record_header;
          Alcotest.test_case "absurd record length" `Quick
            test_pcap_absurd_record_length;
          Alcotest.test_case "truncated record body" `Quick
            test_pcap_truncated_record_body;
          Alcotest.test_case "empty capture" `Quick
            test_pcap_empty_capture_is_ok ] );
      ( "hardening",
        [ Alcotest.test_case "every single-bit flip rejected" `Quick
            test_every_single_bit_flip_rejected ] );
      ("properties", qcheck_cases) ]
