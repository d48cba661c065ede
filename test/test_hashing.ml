(* Tests for the protocol-address hash suite and chain-balance
   metrics. *)

let key s = Bytes.of_string s

(* ------------------------------------------------------------------ *)
(* Known vectors                                                       *)

let test_crc32_known_vectors () =
  (* The classic zlib check value. *)
  Alcotest.(check int32)
    "crc32(123456789)" 0xCBF43926l
    (Hashing.Hashers.crc32_digest (key "123456789"));
  Alcotest.(check int32) "crc32(empty)" 0l (Hashing.Hashers.crc32_digest (key ""));
  Alcotest.(check int32)
    "crc32(a)" 0xE8B7BE43l
    (Hashing.Hashers.crc32_digest (key "a"))

let test_crc32_chaining () =
  (* Chained CRC over two halves differs from the simple concat only
     via the initial value contract we expose; check self-consistency:
     digest(ab) computed in one go is deterministic. *)
  let one_shot = Hashing.Hashers.crc32_digest (key "hello world") in
  let again = Hashing.Hashers.crc32_digest (key "hello world") in
  Alcotest.(check int32) "deterministic" one_shot again

let test_xor_fold_by_hand () =
  (* 16-bit big-endian words of "\x12\x34\x56\x78" are 0x1234, 0x5678. *)
  Alcotest.(check int)
    "xor fold" (0x1234 lxor 0x5678)
    (Hashing.Hashers.hash Hashing.Hashers.xor_fold (key "\x12\x34\x56\x78"))

let test_xor_fold_odd_tail () =
  (* Trailing odd byte contributes its raw value. *)
  Alcotest.(check int)
    "odd tail" (0x1234 lxor 0x56)
    (Hashing.Hashers.hash Hashing.Hashers.xor_fold (key "\x12\x34\x56"))

let test_add_fold_by_hand () =
  Alcotest.(check int)
    "add fold" (0x1234 + 0x5678)
    (Hashing.Hashers.hash Hashing.Hashers.add_fold (key "\x12\x34\x56\x78"))

let test_crc16_ccitt_known_vector () =
  (* CRC-16/CCITT-FALSE check value. *)
  Alcotest.(check int)
    "crc16(123456789)" 0x29B1
    (Hashing.Hashers.hash Hashing.Hashers.crc16_ccitt (key "123456789"));
  Alcotest.(check int)
    "crc16(empty) = init" 0xFFFF
    (Hashing.Hashers.hash Hashing.Hashers.crc16_ccitt (key ""))

let test_pearson_properties () =
  (* 16-bit range, deterministic, sensitive to single-byte changes. *)
  let h1 = Hashing.Hashers.hash Hashing.Hashers.pearson (key "flow-key-a") in
  let h2 = Hashing.Hashers.hash Hashing.Hashers.pearson (key "flow-key-b") in
  Alcotest.(check bool) "16-bit" true (h1 >= 0 && h1 <= 0xFFFF);
  Alcotest.(check bool) "sensitive" true (h1 <> h2)

let test_fnv1a_known_vector () =
  (* FNV-1a 64-bit of "a" is 0xAF63DC4C8601EC8C; we expose it shifted
     right by 2. *)
  Alcotest.(check int)
    "fnv1a(a)"
    (Int64.to_int (Int64.shift_right_logical 0xAF63DC4C8601EC8CL 2))
    (Hashing.Hashers.hash Hashing.Hashers.fnv1a (key "a"))

(* ------------------------------------------------------------------ *)
(* Generic behaviour                                                   *)

let test_all_non_negative () =
  let flows = Sim.Topology.flows 200 in
  List.iter
    (fun hasher ->
      Array.iter
        (fun flow ->
          let h = Hashing.Hashers.hash_flow hasher flow in
          if h < 0 then
            Alcotest.failf "%s produced negative hash"
              (Hashing.Hashers.name hasher))
        flows)
    Hashing.Hashers.all

let test_deterministic () =
  let flow = Sim.Topology.flow_of_client 17 in
  List.iter
    (fun hasher ->
      Alcotest.(check int)
        (Hashing.Hashers.name hasher)
        (Hashing.Hashers.hash_flow hasher flow)
        (Hashing.Hashers.hash_flow hasher flow))
    Hashing.Hashers.all

let test_flow_fast_path_matches_bytes () =
  (* The allocation-free flow hash must be bit-identical to hashing
     the flow's 12-byte key, for every hasher — with or without a
     word-folded definition — and [bucket_flow] must agree with
     [bucket] over the key bytes. *)
  let flows = Sim.Topology.flows 500 in
  List.iter
    (fun hasher ->
      Array.iter
        (fun flow ->
          let via_bytes =
            Hashing.Hashers.hash hasher (Packet.Flow.to_key_bytes flow)
          in
          Alcotest.(check int)
            (Hashing.Hashers.name hasher ^ " flow = bytes")
            via_bytes
            (Hashing.Hashers.hash_flow hasher flow);
          Alcotest.(check int)
            (Hashing.Hashers.name hasher ^ " bucket_flow = bucket")
            (Hashing.Hashers.bucket hasher ~buckets:19
               (Packet.Flow.to_key_bytes flow))
            (Hashing.Hashers.bucket_flow hasher ~buckets:19 flow))
        flows)
    Hashing.Hashers.all

let test_words_fast_path_matches_bytes () =
  (* Same bit-identity bar for the packed-word entry points: hashing
     the two [Packet.Flow] words must equal hashing the canonical
     12-byte key, for every hasher — whether it has a direct
     [run_words] path or falls back to serialising the words. *)
  let flows = Sim.Topology.flows 500 in
  List.iter
    (fun hasher ->
      Array.iter
        (fun flow ->
          let w0 = Packet.Flow.w0 flow and w1 = Packet.Flow.w1 flow in
          Alcotest.(check int)
            (Hashing.Hashers.name hasher ^ " words = bytes")
            (Hashing.Hashers.hash hasher (Packet.Flow.to_key_bytes flow))
            (Hashing.Hashers.hash_words hasher w0 w1);
          Alcotest.(check int)
            (Hashing.Hashers.name hasher ^ " bucket_words = bucket")
            (Hashing.Hashers.bucket hasher ~buckets:19
               (Packet.Flow.to_key_bytes flow))
            (Hashing.Hashers.bucket_words hasher ~buckets:19 w0 w1))
        flows)
    Hashing.Hashers.all

(* [Gc.minor_words] delta across [iterations] calls; the counter is
   read unboxed, so a path that allocates nothing reads exactly 0. *)
let minor_words iterations f =
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    f ()
  done;
  Gc.minor_words () -. before

let test_flow_hash_zero_alloc () =
  (* The packing helpers and the word-folded hashes sit on the
     per-packet receive path: a single boxed intermediate would read
     10k words here. *)
  let flow = Sim.Topology.flow_of_client 17 in
  let check what f =
    f ();
    Alcotest.(check (float 0.0)) (what ^ " allocates nothing") 0.0
      (minor_words 10_000 f)
  in
  check "Flow.w0" (fun () -> ignore (Packet.Flow.w0 flow));
  check "Flow.w1" (fun () -> ignore (Packet.Flow.w1 flow));
  List.iter
    (fun hasher ->
      let name = Hashing.Hashers.name hasher in
      check (name ^ " hash_flow") (fun () ->
          ignore (Hashing.Hashers.hash_flow hasher flow));
      check (name ^ " bucket_flow") (fun () ->
          ignore (Hashing.Hashers.bucket_flow hasher ~buckets:19 flow)))
    Hashing.Hashers.[ xor_fold; add_fold; multiplicative ]

let test_bucket_range_and_validation () =
  let k = key "any key" in
  List.iter
    (fun hasher ->
      let b = Hashing.Hashers.bucket hasher ~buckets:19 k in
      Alcotest.(check bool) "in range" true (b >= 0 && b < 19))
    Hashing.Hashers.all;
  Alcotest.check_raises "buckets 0"
    (Invalid_argument "Hashers.bucket: buckets <= 0") (fun () ->
      ignore (Hashing.Hashers.bucket Hashing.Hashers.crc32 ~buckets:0 k))

let test_of_name () =
  List.iter
    (fun hasher ->
      match Hashing.Hashers.of_name (Hashing.Hashers.name hasher) with
      | Ok found ->
        Alcotest.(check string) "name roundtrip" (Hashing.Hashers.name hasher)
          (Hashing.Hashers.name found)
      | Error e -> Alcotest.fail e)
    Hashing.Hashers.all;
  match Hashing.Hashers.of_name "nonsense" with
  | Ok _ -> Alcotest.fail "accepted nonsense"
  | Error _ -> ()

let test_spreads_real_flows () =
  (* Each hash must spread the simulated client population reasonably:
     with 2000 flows over 19 chains, no chain may exceed 2x the mean. *)
  let flows = Array.to_list (Sim.Topology.flows 2000) in
  List.iter
    (fun hasher ->
      let report = Hashing.Quality.evaluate_hash hasher ~buckets:19 flows in
      if report.Hashing.Quality.max_load > 211 then
        Alcotest.failf "%s skewed: max load %d (mean 105)"
          (Hashing.Hashers.name hasher)
          report.Hashing.Quality.max_load)
    Hashing.Hashers.all

(* ------------------------------------------------------------------ *)
(* Quality                                                             *)

let test_quality_perfect_balance () =
  (* 12 keys into 4 buckets, 3 each. *)
  let assignments = List.concat_map (fun b -> [ b; b; b ]) [ 0; 1; 2; 3 ] in
  let report = Hashing.Quality.evaluate ~buckets:4 assignments in
  Alcotest.(check int) "keys" 12 report.Hashing.Quality.keys;
  Alcotest.(check int) "max" 3 report.Hashing.Quality.max_load;
  Alcotest.(check int) "min" 3 report.Hashing.Quality.min_load;
  Alcotest.(check (float 1e-12)) "cv" 0.0
    report.Hashing.Quality.coefficient_of_variation;
  Alcotest.(check (float 1e-12)) "chi2" 0.0 report.Hashing.Quality.chi_square;
  (* Every key scans a 3-PCB chain: mean (3+1)/2 = 2. *)
  Alcotest.(check (float 1e-12)) "search cost" 2.0
    report.Hashing.Quality.expected_search_cost

let test_quality_worst_case () =
  (* Everything in one of 4 buckets. *)
  let report = Hashing.Quality.evaluate ~buckets:4 [ 2; 2; 2; 2; 2; 2; 2; 2 ] in
  Alcotest.(check int) "max" 8 report.Hashing.Quality.max_load;
  Alcotest.(check int) "min" 0 report.Hashing.Quality.min_load;
  (* All keys scan the 8-chain: (8+1)/2 = 4.5. *)
  Alcotest.(check (float 1e-12)) "search cost" 4.5
    report.Hashing.Quality.expected_search_cost;
  (* chi2 = sum (obs - 2)^2 / 2 = (36 + 3*4)/2 = 24. *)
  Alcotest.(check (float 1e-9)) "chi2" 24.0 report.Hashing.Quality.chi_square

let test_quality_empty () =
  let report = Hashing.Quality.evaluate ~buckets:5 [] in
  Alcotest.(check int) "keys" 0 report.Hashing.Quality.keys;
  Alcotest.(check (float 1e-12)) "search cost" 0.0
    report.Hashing.Quality.expected_search_cost

let test_quality_validation () =
  Alcotest.check_raises "bucket out of range"
    (Invalid_argument "Quality.evaluate: bucket index out of range") (fun () ->
      ignore (Hashing.Quality.evaluate ~buckets:3 [ 0; 3 ]));
  Alcotest.check_raises "no buckets"
    (Invalid_argument "Quality.evaluate: buckets <= 0") (fun () ->
      ignore (Hashing.Quality.evaluate ~buckets:0 []))

(* ------------------------------------------------------------------ *)
(* Avalanche                                                           *)

let test_avalanche_separates_families () =
  (* Byte-serial mixers approach the ideal 0.5 flip rate; folding
     schemes sit far below — the diagnostic behind the structured-key
     collapses. *)
  let rate h = (Hashing.Avalanche.measure h).Hashing.Avalanche.mean_flip_rate in
  List.iter
    (fun h ->
      let r = rate h in
      if r < 0.40 then
        Alcotest.failf "%s mixes poorly: %.3f" (Hashing.Hashers.name h) r)
    Hashing.Hashers.[ fnv1a; jenkins_oaat; crc32; crc16_ccitt; pearson ];
  List.iter
    (fun h ->
      let r = rate h in
      if r > 0.25 then
        Alcotest.failf "%s unexpectedly strong: %.3f" (Hashing.Hashers.name h) r)
    Hashing.Hashers.[ xor_fold; add_fold; multiplicative ]

let test_avalanche_report_sanity () =
  let r = Hashing.Avalanche.measure ~keys:8 ~key_length:4 ~output_bits:8
      Hashing.Hashers.jenkins_oaat
  in
  Alcotest.(check int) "trials" (8 * 32) r.Hashing.Avalanche.trials;
  Alcotest.(check bool) "rates within [0,1]" true
    (r.Hashing.Avalanche.mean_flip_rate >= 0.0
    && r.Hashing.Avalanche.mean_flip_rate <= 1.0
    && r.Hashing.Avalanche.worst_bit_rate <= r.Hashing.Avalanche.mean_flip_rate);
  Alcotest.check_raises "bad sizes"
    (Invalid_argument "Avalanche.measure: bad sizes") (fun () ->
      ignore (Hashing.Avalanche.measure ~output_bits:0 Hashing.Hashers.crc32))

let test_avalanche_deterministic () =
  let a = Hashing.Avalanche.measure Hashing.Hashers.crc32 in
  let b = Hashing.Avalanche.measure Hashing.Hashers.crc32 in
  Alcotest.(check (float 0.0)) "deterministic" a.Hashing.Avalanche.mean_flip_rate
    b.Hashing.Avalanche.mean_flip_rate

(* ------------------------------------------------------------------ *)
(* 288-bit keys: Jain's structured-key weakness                        *)

(* An IPv6 server's demultiplexing key for [n] clients, laid out as the
   IPv4 key is (local address, remote address, local port, remote
   port) in 36 bytes: the server 2001:db8::2 port 8888, client [i] at
   2001:db8::[i] port 1024 + i mod 60000.  Only the client's interface
   id and port vary, and they move together. *)
let v6_population n =
  let prefix = "\x20\x01\x0d\xb8" ^ String.make 8 '\x00' in
  List.init n (fun i ->
      let key = Bytes.make 36 '\x00' in
      Bytes.blit_string prefix 0 key 0 12;
      Bytes.set_int32_be key 12 2l;
      Bytes.blit_string prefix 0 key 16 12;
      Bytes.set_int32_be key 28 (Int32.of_int i);
      Bytes.set_uint16_be key 32 8888;
      Bytes.set_uint16_be key 34 (1024 + (i mod 60000));
      key)

let test_v6_keys_hash_evenly () =
  (* Mixing hashes spread 2000 structured v6 keys across 19 chains
     about as well as v4 keys — the widened key needs no new
     machinery.  xor-fold, however, collapses: the only two varying
     16-bit words (interface id and port) are correlated, so their XOR
     concentrates — exactly the structured-key weakness Jain's study
     warned about, asserted below as expected behaviour. *)
  let keys = v6_population 2000 in
  let report_for hasher =
    Hashing.Quality.evaluate ~buckets:19
      (List.map (fun key -> Hashing.Hashers.bucket hasher ~buckets:19 key) keys)
  in
  (* Byte-serial hashes are immune to the correlation. *)
  List.iter
    (fun hasher ->
      let report = report_for hasher in
      if report.Hashing.Quality.max_load > 220 then
        Alcotest.failf "%s skewed on v6 keys: max %d"
          (Hashing.Hashers.name hasher)
          report.Hashing.Quality.max_load)
    Hashing.Hashers.[ fnv1a; jenkins_oaat; crc32; crc16_ccitt; pearson ];
  (* XOR-prefolding hashes collapse — including multiplicative, whose
     32-bit XOR fold cancels the correlated words before the multiply
     can mix them.  (The reason production v6 stacks hash the whole
     tuple byte-serially.) *)
  List.iter
    (fun hasher ->
      let report = report_for hasher in
      Alcotest.(check bool)
        (Printf.sprintf "%s collapses as predicted (max %d)"
           (Hashing.Hashers.name hasher)
           report.Hashing.Quality.max_load)
        true
        (report.Hashing.Quality.max_load > 400))
    Hashing.Hashers.[ xor_fold; multiplicative ]

let test_v6_keys_distinct () =
  let keys = v6_population 1000 in
  let module SS = Set.Make (String) in
  let set =
    List.fold_left (fun s k -> SS.add (Bytes.to_string k) s) SS.empty keys
  in
  Alcotest.(check int) "all distinct" 1000 (SS.cardinal set)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let arbitrary_key =
  QCheck.map Bytes.of_string QCheck.(string_of_size (QCheck.Gen.int_range 0 64))

let prop_bucket_in_range =
  QCheck.Test.make ~count:500 ~name:"bucket always within range"
    QCheck.(pair arbitrary_key (int_range 1 1000))
    (fun (k, buckets) ->
      List.for_all
        (fun hasher ->
          let b = Hashing.Hashers.bucket hasher ~buckets k in
          b >= 0 && b < buckets)
        Hashing.Hashers.all)

let prop_hash_deterministic =
  QCheck.Test.make ~count:300 ~name:"hash(k) = hash(copy k)" arbitrary_key
    (fun k ->
      List.for_all
        (fun hasher ->
          Hashing.Hashers.hash hasher k
          = Hashing.Hashers.hash hasher (Bytes.copy k))
        Hashing.Hashers.all)

(* The bit-identity bar over the full address space, where an
   address's [Int32] may be negative, and at its corners. *)
let prop_flow_hashes_match_key_bytes =
  QCheck.Test.make ~count:500 ~name:"flow and word hashes = key bytes"
    (QCheck.make ~print:Packet.Flow.to_string
       QCheck.Gen.(oneof [ Flow_gen.boundary; Flow_gen.full_range ]))
    (fun flow ->
      let key = Packet.Flow.to_key_bytes flow in
      List.for_all
        (fun hasher ->
          let expected = Hashing.Hashers.hash hasher key in
          Hashing.Hashers.hash_flow hasher flow = expected
          && Hashing.Hashers.hash_words hasher (Packet.Flow.w0 flow)
               (Packet.Flow.w1 flow)
             = expected)
        Hashing.Hashers.all)

let prop_search_cost_at_least_ideal =
  QCheck.Test.make ~count:200
    ~name:"uneven chains never beat the even-split scan cost"
    QCheck.(pair (int_range 1 20) (list_of_size (Gen.int_range 1 200) (int_range 0 19)))
    (fun (buckets, raw) ->
      let assignments = List.map (fun b -> b mod buckets) raw in
      let report = Hashing.Quality.evaluate ~buckets assignments in
      let keys = float_of_int report.Hashing.Quality.keys in
      let even = ((keys /. float_of_int buckets) +. 1.0) /. 2.0 in
      report.Hashing.Quality.expected_search_cost >= even -. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bucket_in_range; prop_hash_deterministic;
      prop_flow_hashes_match_key_bytes; prop_search_cost_at_least_ideal ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "hashing"
    [ ( "vectors",
        [ Alcotest.test_case "crc32 known" `Quick test_crc32_known_vectors;
          Alcotest.test_case "crc32 deterministic" `Quick test_crc32_chaining;
          Alcotest.test_case "xor-fold by hand" `Quick test_xor_fold_by_hand;
          Alcotest.test_case "xor-fold odd tail" `Quick test_xor_fold_odd_tail;
          Alcotest.test_case "add-fold by hand" `Quick test_add_fold_by_hand;
          Alcotest.test_case "crc16-ccitt known" `Quick test_crc16_ccitt_known_vector;
          Alcotest.test_case "pearson properties" `Quick test_pearson_properties;
          Alcotest.test_case "fnv1a known" `Quick test_fnv1a_known_vector ] );
      ( "behaviour",
        [ Alcotest.test_case "non-negative" `Quick test_all_non_negative;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "flow fast path = key bytes" `Quick
            test_flow_fast_path_matches_bytes;
          Alcotest.test_case "packed words = key bytes" `Quick
            test_words_fast_path_matches_bytes;
          Alcotest.test_case "flow hashes allocate nothing" `Quick
            test_flow_hash_zero_alloc;
          Alcotest.test_case "bucket range" `Quick test_bucket_range_and_validation;
          Alcotest.test_case "of_name" `Quick test_of_name;
          Alcotest.test_case "spreads real flows" `Quick test_spreads_real_flows ] );
      ( "avalanche",
        [ Alcotest.test_case "separates families" `Quick
            test_avalanche_separates_families;
          Alcotest.test_case "report sanity" `Quick test_avalanche_report_sanity;
          Alcotest.test_case "deterministic" `Quick test_avalanche_deterministic ] );
      ( "quality",
        [ Alcotest.test_case "perfect balance" `Quick test_quality_perfect_balance;
          Alcotest.test_case "worst case" `Quick test_quality_worst_case;
          Alcotest.test_case "empty" `Quick test_quality_empty;
          Alcotest.test_case "validation" `Quick test_quality_validation ] );
      ( "flow-keys",
        [ Alcotest.test_case "hash evenly" `Quick test_v6_keys_hash_evenly;
          Alcotest.test_case "distinct" `Quick test_v6_keys_distinct ] );
      ("properties", qcheck_cases) ]
