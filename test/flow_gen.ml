(* QCheck generators of flows shared by the test suites. *)

(* Random flows over the {e full} 32-bit address space — including
   addresses whose Int32 representation is negative, the case the
   unsigned packing of [Packet.Flow.word] must mask correctly. *)
let full_range =
  let open QCheck.Gen in
  let word16 = int_bound 0xFFFF in
  let endpoint =
    map3
      (fun hi lo port ->
        Packet.Flow.endpoint
          (Packet.Ipv4.addr_of_int32 (Int32.of_int ((hi lsl 16) lor lo)))
          port)
      word16 word16 word16
  in
  map2
    (fun local remote -> Packet.Flow.v ~local ~remote)
    endpoint endpoint

(* The extreme corners of the 4-tuple space: 0.0.0.0 and
   255.255.255.255, ports 0 and 65535.  The all-ones address with port
   65535 is the pattern that would spill into the sign bit if the
   48-bit layout were off by one. *)
let boundary =
  let open QCheck.Gen in
  let addr =
    oneofl [ 0l; 0xFFFFFFFFl; 0x7FFFFFFFl; 0x80000000l; 1l; 0xFFFFFFFEl ]
  in
  let port = oneofl [ 0; 1; 32767; 32768; 65534; 65535 ] in
  let endpoint =
    map2
      (fun a p -> Packet.Flow.endpoint (Packet.Ipv4.addr_of_int32 a) p)
      addr port
  in
  map2 (fun local remote -> Packet.Flow.v ~local ~remote) endpoint endpoint
