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
    (fun () -> ignore (Packet.Checksum.compute data ~off:2 ~len:4));
  (* [off + len] wraps to a negative int here; the check must not. *)
  Alcotest.check_raises "wrapping length"
    (Invalid_argument "Checksum.ones_complement_sum: region out of range")
    (fun () -> ignore (Packet.Checksum.compute data ~off:1 ~len:max_int))

let test_checksum_zero_region () =
  let data = Bytes.make 8 '\x00' in
  Alcotest.(check int) "all-zero checksum" 0xFFFF
    (Packet.Checksum.compute data ~off:0 ~len:8)

(* The RFC 1071 reference: one big-endian 16-bit word per iteration,
   carries folded only by [reference_finish].  The property below
   checks the word-at-a-time kernel against it. *)
let reference_sum ?(initial = 0) buf ~off ~len =
  let sum = ref initial in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 buf !i lsl 8);
  !sum

let reference_finish sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

(* A full-size Ethernet datagram.  A kernel that boxed its [Int64]
   loads would allocate about 3 words per 8 bytes, ~560 per call. *)
let test_checksum_zero_alloc () =
  let data = Bytes.init 1_500 (fun i -> Char.chr (i * 7 land 0xFF)) in
  ignore (Packet.Checksum.compute data ~off:0 ~len:1_500);
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    ignore (Sys.opaque_identity (Packet.Checksum.compute data ~off:0 ~len:1_500))
  done;
  Alcotest.(check (float 0.0))
    "compute over 1,500 bytes allocates nothing (minor words)" 0.0
    (Gc.minor_words () -. before)

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

(* Header cases run whole datagrams through [Segment.parse]: the
   library reads headers only there. *)
let parse_error what wire =
  match Packet.Segment.parse wire ~off:0 with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> e

let sample_wire ?payload () =
  Packet.Segment.to_bytes
    (Packet.Segment.make ?payload ~src:(endpoint 1 2 3 4 1000)
       ~dst:(endpoint 5 6 7 8 80) ())

(* Rewrite the IPv4 header checksum after a header edit. *)
let refix_ip_checksum wire =
  Bytes.set_uint16_be wire 10 0;
  Bytes.set_uint16_be wire 10 (Packet.Checksum.compute wire ~off:0 ~len:20)

let test_ipv4_roundtrip () =
  let ip =
    Packet.Ipv4.make ~tos:0x10 ~identification:777 ~ttl:33 ~src:(addr 10 0 0 1)
      ~dst:(addr 192 168 1 1) ~payload_length:100 ()
  in
  let segment =
    { Packet.Segment.ip;
      tcp = Packet.Tcp_header.make ~src_port:1 ~dst_port:2 ();
      payload = String.make 80 'p' }
  in
  match Packet.Segment.parse (Packet.Segment.to_bytes segment) ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok { Packet.Segment.ip = parsed; _ } ->
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
  let wire = sample_wire () in
  Bytes.set_uint8 wire 8 (Bytes.get_uint8 wire 8 lxor 0xFF) (* flip TTL *);
  Alcotest.(check string) "checksum error" "ipv4: header checksum mismatch"
    (parse_error "corrupted header" wire)

let test_ipv4_rejects_truncation () =
  Alcotest.(check string) "error" "ipv4: truncated header"
    (parse_error "truncated header" (Bytes.sub (sample_wire ()) 0 10))

let test_ipv4_rejects_bad_version () =
  let wire = sample_wire () in
  Bytes.set_uint8 wire 0 0x65 (* version 6 *);
  Alcotest.(check string) "error" "ipv4: bad version 6"
    (parse_error "version 6" wire)

let test_ipv4_validation () =
  Alcotest.check_raises "ttl range"
    (Invalid_argument "Ipv4.make: ttl out of range") (fun () ->
      ignore
        (Packet.Ipv4.make ~ttl:300 ~src:(addr 1 1 1 1) ~dst:(addr 2 2 2 2)
           ~payload_length:0 ()))

(* TCP is protocol 6 on the wire; any other protocol is refused, with
   a valid header checksum. *)
let test_protocol_codes () =
  Alcotest.(check int) "tcp" 6 (Bytes.get_uint8 (sample_wire ()) 9);
  List.iter
    (fun (name, code) ->
      let wire = sample_wire () in
      Bytes.set_uint8 wire 9 code;
      refix_ip_checksum wire;
      Alcotest.(check string) name "segment: not TCP" (parse_error name wire))
    [ ("udp", 17); ("icmp", 1); ("ospf", 89) ]

(* ------------------------------------------------------------------ *)
(* TCP header                                                          *)

let parse_tcp wire =
  match Packet.Segment.parse wire ~off:0 with
  | Error e -> Alcotest.fail e
  | Ok segment -> segment.Packet.Segment.tcp

let test_tcp_roundtrip_plain () =
  let wire =
    Packet.Segment.to_bytes
      (Packet.Segment.make ~seq:0x01020304l ~ack_number:0x0A0B0C0Dl
         ~flags:Packet.Tcp_header.flag_psh_ack ~window:4096
         ~src:(endpoint 10 0 0 1 1234) ~dst:(endpoint 10 0 0 2 80) ())
  in
  Alcotest.(check int) "plain TCP header is 20 bytes" 40 (Bytes.length wire);
  let parsed = parse_tcp wire in
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
  let segment =
    Packet.Segment.make ~flags:Packet.Tcp_header.flag_syn ~options
      ~src:(endpoint 10 0 0 1 5555) ~dst:(endpoint 10 0 0 2 8888) ()
  in
  let wire = Packet.Segment.to_bytes segment in
  let data_offset = (Bytes.get_uint8 wire 32 lsr 4) * 4 in
  Alcotest.(check int)
    "data offset = 20 + padded options"
    (20 + Packet.Tcp_header.options_length options)
    data_offset;
  Alcotest.(check int) "4-byte aligned" 0 (data_offset mod 4);
  let opts = (parse_tcp wire).Packet.Tcp_header.options in
  Alcotest.(check int) "option count" 5 (List.length opts);
  match opts with
  | [ Packet.Tcp_header.Mss 1460; Packet.Tcp_header.Nop;
      Packet.Tcp_header.Window_scale 7; Packet.Tcp_header.Sack_permitted;
      Packet.Tcp_header.Timestamps { value = 123456l; echo = 654321l } ] ->
    ()
  | _ -> Alcotest.fail "options did not round-trip in order"

let test_tcp_unknown_option () =
  let wire =
    Packet.Segment.to_bytes
      (Packet.Segment.make
         ~options:[ Packet.Tcp_header.Unknown { kind = 42; payload = "xy" } ]
         ~src:(endpoint 10 0 0 1 1) ~dst:(endpoint 10 0 0 2 2) ())
  in
  match (parse_tcp wire).Packet.Tcp_header.options with
  | [ Packet.Tcp_header.Unknown { kind = 42; payload = "xy" } ] -> ()
  | _ -> Alcotest.fail "unknown option mangled"

let test_tcp_checksum_with_pseudo_header () =
  let wire = sample_wire ~payload:"hello" () in
  Alcotest.(check int) "20 + 20 + 5" 45 (Bytes.length wire);
  ignore (parse_tcp wire);
  (* Flip a payload byte: checksum must catch it. *)
  Bytes.set_uint8 wire 42 (Bytes.get_uint8 wire 42 lxor 1);
  Alcotest.(check string) "checksum error" "tcp: checksum mismatch"
    (parse_error "corrupt payload" wire);
  (* The pseudo-header is covered too: a destination moved with the
     IPv4 header checksum made right again. *)
  let wire = sample_wire ~payload:"hello" () in
  Bytes.set_uint8 wire 19 (Bytes.get_uint8 wire 19 lxor 1);
  refix_ip_checksum wire;
  Alcotest.(check string) "pseudo-header error" "tcp: checksum mismatch"
    (parse_error "moved destination" wire)

let test_tcp_rejects_bad_offset () =
  let wire = sample_wire () in
  Bytes.set_uint8 wire 32 (3 lsl 4) (* data offset 12 bytes < 20 *);
  Alcotest.(check string) "error" "tcp: data offset below 20"
    (parse_error "offset 3" wire);
  Bytes.set_uint8 wire 32 (15 lsl 4) (* 60 bytes > segment *);
  Alcotest.(check string) "error" "tcp: data offset beyond segment"
    (parse_error "oversized offset" wire)

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
      ~payload_length:20 ()
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

(* Seeds well past any pseudo-header sum: sixteen address words (an
   IPv6 pseudo-header's; IPv4's has four), a 16-bit length and a
   protocol byte. *)
let max_pseudo_sum = (17 * 0xFFFF) + 0xFF

type fill = Random_bytes | All_zero | All_ones | Stuffed

(* A region of 0–1,600 bytes at every start offset mod 8, followed by
   0–7 bytes it does not cover.  All-0xFF sums to one's-complement -0;
   [Stuffed] carries a valid checksum in its first word, so [verify]
   also sees regions that pass. *)
let arbitrary_checksum_region =
  let gen =
    QCheck.Gen.(
      int_range 0 1_600 >>= fun len ->
      int_range 0 7 >>= fun off ->
      int_range 0 7 >>= fun tail ->
      frequency [ (1, return 0); (3, int_range 0 max_pseudo_sum) ]
      >>= fun initial ->
      oneofl [ Random_bytes; All_zero; All_ones; Stuffed ] >>= fun fill ->
      string_size (return (off + len + tail)) >|= fun s ->
      let buf =
        match fill with
        | All_zero -> Bytes.make (String.length s) '\x00'
        | All_ones -> Bytes.make (String.length s) '\xFF'
        | Random_bytes | Stuffed -> Bytes.of_string s
      in
      if fill = Stuffed && len >= 2 then begin
        Bytes.set_uint16_be buf off 0;
        Bytes.set_uint16_be buf off
          (reference_finish (reference_sum ~initial buf ~off ~len))
      end;
      (buf, off, len, initial))
  in
  QCheck.make gen ~print:(fun (buf, off, len, initial) ->
      Printf.sprintf "off=%d len=%d initial=%d %S" off len initial
        (Bytes.to_string buf))

let prop_checksum_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"checksum agrees with the RFC 1071 reference"
    arbitrary_checksum_region (fun (buf, off, len, initial) ->
      let reference = reference_sum ~initial buf ~off ~len in
      let expected = reference_finish reference in
      let sum = Packet.Checksum.ones_complement_sum ~initial buf ~off ~len in
      sum mod 0xFFFF = reference mod 0xFFFF
      && sum <= 0xFFFF + initial
      && Packet.Checksum.finish sum = expected
      && Packet.Checksum.compute ~initial buf ~off ~len = expected
      && Packet.Checksum.verify ~initial buf ~off ~len = (expected = 0))

(* Fuzzing: parsers must totalise — any byte string at any offset
   yields Ok or Error, never an exception. *)

(* Garbage and an offset into it: 0, anywhere in or just past the
   buffer, negative, or within 64 of [max_int], where [off + length]
   wraps. *)
let arbitrary_garbage_at =
  let gen =
    QCheck.Gen.(
      string_size (int_range 0 200) >>= fun s ->
      let n = String.length s in
      frequency
        [ (2, return 0); (3, int_range 0 (n + 8)); (1, int_range (-64) (-1));
          (1, int_range min_int (-1)); (2, int_range (max_int - 64) max_int) ]
      >|= fun off -> (Bytes.of_string s, off))
  in
  QCheck.make gen ~print:(fun (bytes, off) ->
      Printf.sprintf "off=%d %S" off (Bytes.to_string bytes))

let no_exception f =
  match f () with
  | (_ : (_, string) result) -> true
  | exception _ -> false

let prop_segment_parse_total =
  QCheck.Test.make ~count:1000 ~name:"Segment.parse never raises on garbage"
    arbitrary_garbage_at (fun (bytes, off) ->
      no_exception (fun () -> Packet.Segment.parse bytes ~off))

(* A rejection is named as [check] names it: [reason] of [peek_tcp]'s
   code. *)
let prop_peek_flow_total =
  QCheck.Test.make ~count:1000
    ~name:"Segment.peek_flow never raises, rejects off outside the buffer"
    arbitrary_garbage_at (fun (bytes, off) ->
      match Packet.Segment.peek_flow bytes ~off with
      | Ok _ -> off >= 0 && off <= Bytes.length bytes
      | Error e ->
        e
        = Packet.Segment.reason bytes ~off (Packet.Segment.peek_tcp bytes ~off)
      | exception _ -> false)

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

(* The packed words are the key: [of_words] inverts them, so equal
   words mean equal flows. *)
let prop_flow_words_round_trip =
  QCheck.Test.make ~count:500 ~name:"Flow.of_words inverts w0/w1"
    (QCheck.make ~print:Packet.Flow.to_string Flow_gen.full_range)
    (fun f ->
      Packet.Flow.equal f
        (Packet.Flow.of_words ~w0:(Packet.Flow.w0 f) ~w1:(Packet.Flow.w1 f)))

let prop_flow_words_equality =
  QCheck.Test.make ~count:500 ~name:"Flow words equal iff flows equal"
    (QCheck.make
       ~print:(fun (a, b) ->
         Packet.Flow.to_string a ^ " / " ^ Packet.Flow.to_string b)
       QCheck.Gen.(pair Flow_gen.full_range Flow_gen.full_range))
    (fun (a, b) ->
      (Packet.Flow.w0 a = Packet.Flow.w0 b && Packet.Flow.w1 a = Packet.Flow.w1 b)
      = Packet.Flow.equal a b)

(* The 12-byte key written field by field, without the words. *)
let reference_key_bytes (f : Packet.Flow.t) =
  let buf = Bytes.create 12 in
  Bytes.set_int32_be buf 0 (Packet.Ipv4.addr_to_int32 f.local.addr);
  Bytes.set_int32_be buf 4 (Packet.Ipv4.addr_to_int32 f.remote.addr);
  Bytes.set_uint16_be buf 8 f.local.port;
  Bytes.set_uint16_be buf 10 f.remote.port;
  buf

(* Companion to Flow's 63-bit startup guard: at the corners of the
   4-tuple space the words stay non-negative immediates, round-trip,
   and encode the key bytes the fields do. *)
let prop_flow_words_corners =
  QCheck.Test.make ~count:300 ~name:"Flow words round-trip at corners"
    (QCheck.make ~print:Packet.Flow.to_string Flow_gen.boundary)
    (fun f ->
      let w0 = Packet.Flow.w0 f and w1 = Packet.Flow.w1 f in
      w0 >= 0 && w1 >= 0
      && Packet.Flow.equal f (Packet.Flow.of_words ~w0 ~w1)
      && Bytes.equal (Packet.Flow.to_key_bytes f) (reference_key_bytes f))

(* The in-place read accepts exactly what [peek_flow] accepts, and
   reads the same key as [Flow.w0]/[Flow.w1]. *)
let prop_peek_words_match_peek_flow =
  QCheck.Test.make ~count:1000
    ~name:"Segment.peek_tcp and peek_w0/w1 agree with peek_flow"
    QCheck.(
      pair arbitrary_segment
        (list_of_size (Gen.int_range 0 4) (pair small_nat small_nat)))
    (fun (segment, flips) ->
      let wire = Packet.Segment.to_bytes segment in
      List.iter
        (fun (position, value) ->
          Bytes.set_uint8 wire (position mod Bytes.length wire) (value land 0xFF))
        flips;
      let tcp = Packet.Segment.peek_tcp wire ~off:0 in
      match Packet.Segment.peek_flow wire ~off:0 with
      | Error e -> tcp < 0 && e = Packet.Segment.reason wire ~off:0 tcp
      | Ok flow ->
        tcp >= 0
        && Packet.Segment.peek_w0 wire ~off:0 ~tcp = Packet.Flow.w0 flow
        && Packet.Segment.peek_w1 wire ~off:0 ~tcp = Packet.Flow.w1 flow)

let show = function
  | Ok segment -> Format.asprintf "Ok %a" Packet.Segment.pp segment
  | Error e -> Printf.sprintf "Error %S" e

(* A host to hand rejected datagrams to: a rejection moves only its
   drop counters. *)
let rejecting_stack =
  lazy (Tcpcore.Stack.create ~local_addr:(addr 192 168 1 1) ())

(* The library against [Wire_ref] on any bytes at any offset:
   [parse]'s result with and without the TCP checksum (every record
   field, or the error string) and [check]'s verdict; on acceptance
   the in-place readers give the record's fields, and on rejection
   [handle_bytes] answers the reference's error for the datagram at
   [off], which it takes as a whole buffer. *)
let agrees_with_reference buf ~off =
  let same what ours reference =
    ours = reference
    || QCheck.Test.fail_reportf "%s: %s, reference %s" what (show ours)
         (show reference)
  in
  let reference = Wire_ref.Segment.parse buf ~off in
  let tcp = Packet.Segment.check buf ~off in
  same "parse" (Packet.Segment.parse buf ~off) reference
  && same "parse ~verify_checksum:false"
       (Packet.Segment.parse ~verify_checksum:false buf ~off)
       (Wire_ref.Segment.parse ~verify_checksum:false buf ~off)
  &&
  match reference with
  | Error reason ->
    (tcp < 0 || QCheck.Test.fail_reportf "check accepted: reference %S" reason)
    && (off < 0 || off > Bytes.length buf
       ||
       let datagram = Bytes.sub buf off (Bytes.length buf - off) in
       match Tcpcore.Stack.handle_bytes (Lazy.force rejecting_stack) datagram with
       | Error e when e = reason -> true
       | Ok () -> QCheck.Test.fail_reportf "handle_bytes Ok, reference %S" reason
       | Error e ->
         QCheck.Test.fail_reportf "handle_bytes %S, reference %S" e reason)
  | Ok s ->
    let u32 x = Int32.to_int x land 0xFFFFFFFF in
    let flow = Packet.Segment.flow s and h = s.Packet.Segment.tcp in
    tcp >= 0
    && Packet.Segment.peek_w0 buf ~off ~tcp = Packet.Flow.w0 flow
    && Packet.Segment.peek_w1 buf ~off ~tcp = Packet.Flow.w1 flow
    && Packet.Segment.flags buf ~tcp
       = Packet.Tcp_header.flags_to_int h.Packet.Tcp_header.flags
    && Packet.Segment.seq buf ~tcp = u32 h.Packet.Tcp_header.seq
    && Packet.Segment.ack_number buf ~tcp = u32 h.Packet.Tcp_header.ack_number
    && Bytes.sub_string buf
         (Packet.Segment.payload_off buf ~tcp)
         (Packet.Segment.payload_length buf ~off ~tcp)
       = s.Packet.Segment.payload

(* Rewrite the checksum of the TCP segment in the datagram at [off]
   so that only the field under test can make [parse] reject it. *)
let refix_tcp_checksum buf ~off =
  let hlen = (Bytes.get_uint8 buf off land 0xF) * 4 in
  let tcp = off + hlen
  and tcp_len = Bytes.get_uint16_be buf (off + 2) - hlen in
  if tcp_len >= 18 && tcp + tcp_len <= Bytes.length buf then begin
    let pseudo =
      Bytes.get_uint16_be buf (off + 12) + Bytes.get_uint16_be buf (off + 14)
      + Bytes.get_uint16_be buf (off + 16) + Bytes.get_uint16_be buf (off + 18)
      + 6 + tcp_len
    in
    Bytes.set_uint16_be buf (tcp + 16) 0;
    Bytes.set_uint16_be buf (tcp + 16)
      (Packet.Checksum.compute ~initial:pseudo buf ~off:tcp ~len:tcp_len)
  end

(* IP options: [words] 4-byte words of [filler] after the fixed
   header, with the IHL, total length and header checksum updated. *)
let with_ip_options wire ~words ~filler =
  let extra = 4 * words in
  let buf = Bytes.make (Bytes.length wire + extra) '\000' in
  Bytes.blit wire 0 buf 0 20;
  Bytes.blit_string (String.sub filler 0 extra) 0 buf 20 extra;
  Bytes.blit wire 20 buf (20 + extra) (Bytes.length wire - 20);
  Bytes.set_uint8 buf 0 (0x40 lor (5 + words));
  Bytes.set_uint16_be buf 2 (Bytes.length buf);
  Bytes.set_uint16_be buf 10 0;
  Bytes.set_uint16_be buf 10
    (Packet.Checksum.compute buf ~off:0 ~len:(20 + extra));
  buf

(* One datagram per error, in [check]'s order: each gets its own code
   and its own string, and [parse], [handle_bytes] and [Wire_ref] all
   name it alike. *)
let test_each_rejection_named () =
  let edit f =
    let wire = sample_wire ~payload:"hello" () in
    f wire;
    wire
  and header f wire =
    f wire;
    refix_ip_checksum wire
  and options bytes wire =
    Bytes.blit_string bytes 0 wire 40 4;
    refix_tcp_checksum wire ~off:0
  in
  let with_option f =
    let wire =
      Packet.Segment.to_bytes
        (Packet.Segment.make ~options:[ Packet.Tcp_header.Mss 1460 ]
           ~src:(endpoint 1 2 3 4 1000) ~dst:(endpoint 5 6 7 8 80) ())
    in
    f wire;
    wire
  in
  let flip i wire = Bytes.set_uint8 wire i (Bytes.get_uint8 wire i lxor 1) in
  let cases =
    [ ("ipv4: truncated header", Bytes.sub (sample_wire ()) 0 19);
      ("ipv4: bad version 6", edit (fun w -> Bytes.set_uint8 w 0 0x65));
      ("ipv4: bad IHL 3", edit (fun w -> Bytes.set_uint8 w 0 0x43));
      ("ipv4: truncated options", edit (fun w -> Bytes.set_uint8 w 0 0x4F));
      ("ipv4: header checksum mismatch", edit (flip 8));
      ("ipv4: total length below header length",
       edit (header (fun w -> Bytes.set_uint16_be w 2 10)));
      ("ipv4: truncated payload",
       edit (header (fun w -> Bytes.set_uint16_be w 2 200)));
      ("segment: not TCP", edit (header (fun w -> Bytes.set_uint8 w 9 17)));
      ("segment: fragmented datagram",
       edit (header (fun w -> Bytes.set_uint8 w 6 0x20)));
      ("tcp: truncated header",
       edit (header (fun w -> Bytes.set_uint16_be w 2 30)));
      ("tcp: data offset below 20", edit (fun w -> Bytes.set_uint8 w 32 0x30));
      ("tcp: data offset beyond segment",
       edit (fun w -> Bytes.set_uint8 w 32 0xF0));
      ("tcp: checksum mismatch", edit (flip 42));
      ("tcp: truncated option", with_option (options "\001\001\001\002"));
      ("tcp: bad option length", with_option (options "\002\001\000\000")) ]
  in
  let codes =
    List.map
      (fun (want, wire) ->
        let code = Packet.Segment.check wire ~off:0 in
        Alcotest.(check bool) (want ^ ": rejected") true (code < 0);
        Alcotest.(check string) (want ^ ": reason") want
          (Packet.Segment.reason wire ~off:0 code);
        List.iter
          (fun (what, got) ->
            Alcotest.(check string) (want ^ ": " ^ what) ("Error " ^ want)
              (match got with Ok _ -> "Ok" | Error e -> "Error " ^ e))
          [ ("parse", Result.map ignore (Packet.Segment.parse wire ~off:0));
            ("reference", Result.map ignore (Wire_ref.Segment.parse wire ~off:0));
            ("handle_bytes",
             Tcpcore.Stack.handle_bytes (Lazy.force rejecting_stack) wire) ];
        code)
      cases
  in
  Alcotest.(check int) "one code per error" (List.length cases)
    (List.length (List.sort_uniq compare codes));
  (* The steering peek refuses what hides the 4-tuple, under the same
     names. *)
  List.iter
    (fun (want, wire) ->
      Alcotest.(check string) (want ^ ": peek_flow") ("Error " ^ want)
        (match Packet.Segment.peek_flow wire ~off:0 with
        | Ok _ -> "Ok"
        | Error e -> "Error " ^ e))
    [ ("ipv4: truncated header", Bytes.sub (sample_wire ()) 0 10);
      ("ipv4: bad version 6", edit (fun w -> Bytes.set_uint8 w 0 0x65));
      ("ipv4: bad IHL 3", edit (fun w -> Bytes.set_uint8 w 0 0x43));
      ("segment: not TCP", edit (header (fun w -> Bytes.set_uint8 w 9 17))) ]

let arbitrary_tcp_option =
  QCheck.Gen.(
    oneof
      [ map (fun v -> Packet.Tcp_header.Mss v) (int_bound 0xFFFF);
        map (fun v -> Packet.Tcp_header.Window_scale v) (int_bound 14);
        return Packet.Tcp_header.Sack_permitted;
        map2
          (fun value echo ->
            Packet.Tcp_header.Timestamps
              { value = Int32.of_int value; echo = Int32.of_int echo })
          nat nat;
        return Packet.Tcp_header.Nop;
        map2
          (fun kind payload -> Packet.Tcp_header.Unknown { kind; payload })
          (int_range 2 255)
          (string_size (int_bound 6)) ])

(* The longest prefix of [options] that fits the 40-byte limit. *)
let fitting options =
  let rec go acc = function
    | [] -> List.rev acc
    | o :: rest ->
      let acc' = o :: acc in
      if Packet.Tcp_header.options_length acc' > 40 then List.rev acc
      else go acc' rest
  in
  go [] options

type mangle =
  | Intact
  | Option_bytes of string  (* the option area overwritten *)
  | Offset_byte of int  (* data offset and reserved bits rewritten *)
  | Ip_word of int * int  (* the IPv4 header word at an offset rewritten *)
  | Flips of (int * int) list  (* bytes overwritten, checksums stale *)
  | Cut of int  (* cut short, with its total length and checksums right *)

(* A valid datagram with random flags, options and payload, maybe IP
   options, then one mangling, behind a 0-3 byte prefix. *)
let arbitrary_datagram_at =
  let gen =
    QCheck.Gen.(
      pair arbitrary_endpoint arbitrary_endpoint >>= fun (src, dst) ->
      pair nat nat >>= fun (seq, ack) ->
      int_bound 0xFF >>= fun flag_bits ->
      list_size (int_bound 12) arbitrary_tcp_option >>= fun options ->
      string_size (int_bound 80) >>= fun payload ->
      frequency [ (3, return 0); (1, int_range 1 10) ] >>= fun ip_words ->
      string_size (return 40) >>= fun filler ->
      frequency
        [ (2, return Intact);
          (2, map (fun s -> Option_bytes s) (string_size (return 40)));
          (1, map (fun b -> Offset_byte b) (int_bound 0xFF));
          (1,
           map2
             (fun at v -> Ip_word (at, v))
             (oneofl [ 0; 2; 6; 8 ])
             (frequency
                [ (1, int_bound 0xFFFF);
                  (1,
                   oneofl
                     [ 0x0001; 0x2000; 0x4000; 0x4300; 0x4506; 0x4511 ]) ]));
          (1,
           map
             (fun l -> Flips l)
             (list_size (int_range 1 4) (pair nat (int_bound 0xFF))));
          (1, map (fun n -> Cut n) nat) ]
      >>= fun mangle ->
      int_range 0 3 >|= fun prefix ->
      let flags =
        { Packet.Tcp_header.fin = flag_bits land 0x01 <> 0;
          syn = flag_bits land 0x02 <> 0; rst = flag_bits land 0x04 <> 0;
          psh = flag_bits land 0x08 <> 0; ack = flag_bits land 0x10 <> 0;
          urg = flag_bits land 0x20 <> 0 }
      in
      let wire =
        Packet.Segment.to_bytes
          (Packet.Segment.make ~seq:(Int32.of_int seq)
             ~ack_number:(Int32.of_int ack) ~flags ~options:(fitting options)
             ~payload ~src ~dst ())
      in
      let wire =
        if ip_words = 0 then wire
        else with_ip_options wire ~words:ip_words ~filler
      in
      let tcp = (Bytes.get_uint8 wire 0 land 0xF) * 4 in
      let wire =
        match mangle with
        | Cut n -> Bytes.sub wire 0 (n mod (Bytes.length wire + 1))
        | _ -> wire
      in
      (match mangle with
      | Intact -> ()
      | Cut _ ->
        if Bytes.length wire >= tcp then begin
          Bytes.set_uint16_be wire 2 (Bytes.length wire);
          Bytes.set_uint16_be wire 10 0;
          Bytes.set_uint16_be wire 10
            (Packet.Checksum.compute wire ~off:0 ~len:tcp);
          refix_tcp_checksum wire ~off:0
        end
      | Option_bytes s ->
        let data_offset = (Bytes.get_uint8 wire (tcp + 12) lsr 4) * 4 in
        Bytes.blit_string s 0 wire (tcp + 20) (data_offset - 20);
        refix_tcp_checksum wire ~off:0
      | Offset_byte b ->
        Bytes.set_uint8 wire (tcp + 12) b;
        refix_tcp_checksum wire ~off:0
      | Ip_word (at, v) ->
        (* Version and IHL, total length, fragment field, or TTL and
           protocol, with both checksums made right again. *)
        Bytes.set_uint16_be wire at v;
        Bytes.set_uint16_be wire 10 0;
        let hlen =
          min ((Bytes.get_uint8 wire 0 land 0xF) * 4) (Bytes.length wire)
        in
        Bytes.set_uint16_be wire 10
          (Packet.Checksum.compute wire ~off:0 ~len:hlen);
        refix_tcp_checksum wire ~off:0
      | Flips flips ->
        List.iter
          (fun (i, v) -> Bytes.set_uint8 wire (i mod Bytes.length wire) v)
          flips);
      (Bytes.cat (Bytes.make prefix '\xAB') wire, prefix))
  in
  QCheck.make gen ~print:(fun (bytes, off) ->
      Printf.sprintf "off=%d %S" off (Bytes.to_string bytes))

(* The three properties hold [check] and [parse] to one reference:
   each compares both with [Wire_ref] (and [handle_bytes] on what the
   reference rejects). *)
let prop_check_on_garbage =
  QCheck.Test.make ~count:1000
    ~name:"Segment.check agrees with parse on garbage"
    arbitrary_garbage_at (fun (bytes, off) ->
      agrees_with_reference bytes ~off)

let prop_check_on_datagrams =
  QCheck.Test.make ~count:3000
    ~name:"Segment.check agrees with parse on (malformed) datagrams"
    arbitrary_datagram_at (fun (bytes, off) ->
      agrees_with_reference bytes ~off)

(* What the fault injector's corruption, truncation and tuple flips
   make of valid datagrams. *)
let prop_check_on_injected_faults =
  QCheck.Test.make ~count:300
    ~name:"Segment.check agrees with parse on injected faults"
    QCheck.(
      pair small_nat (list_of_size (Gen.int_range 1 10) arbitrary_segment))
    (fun (seed, segments) ->
      let injector =
        Fault.Injector.create ~seed
          (Fault.Plan.v ~corrupt:0.4 ~truncate:0.3 ~tuple_flip:0.4 ())
      in
      List.for_all
        (fun d -> agrees_with_reference d ~off:0)
        (Fault.Injector.feed_all injector
           (List.map Packet.Segment.to_bytes segments)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_checksum_matches_reference; prop_segment_roundtrip;
      prop_flow_key_injective_on_reverse; prop_segment_parse_total;
      prop_peek_flow_total; prop_segment_parse_total_on_mutated_valid;
      prop_flow_words_round_trip; prop_flow_words_equality;
      prop_flow_words_corners; prop_peek_words_match_peek_flow;
      prop_check_on_garbage; prop_check_on_datagrams;
      prop_check_on_injected_faults ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "packet"
    [ ( "checksum",
        [ Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071_example;
          Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
          Alcotest.test_case "verify roundtrip" `Quick test_checksum_verify_roundtrip;
          Alcotest.test_case "bounds" `Quick test_checksum_bounds;
          Alcotest.test_case "all zero" `Quick test_checksum_zero_region;
          Alcotest.test_case "zero allocation" `Quick test_checksum_zero_alloc ] );
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
          Alcotest.test_case "skip checksum option" `Quick test_segment_skip_checksum;
          Alcotest.test_case "each rejection named" `Quick
            test_each_rejection_named ] );
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
