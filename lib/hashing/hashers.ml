type t = {
  name : string;
  run : bytes -> int;
  (* Allocation-free specialisation over the packed key words of
     [Packet.Flow.w0]/[w1], for hashers whose byte-serial definition
     folds cleanly over the 96-bit key.  Must agree exactly with [run]
     over the corresponding 12-byte key (asserted by a qcheck property
     in test_hashing.ml). *)
  run_words : (int -> int -> int) option;
}

let name t = t.name
let hash t key = t.run key

let bucket t ~buckets key =
  if buckets <= 0 then invalid_arg "Hashers.bucket: buckets <= 0";
  hash t key mod buckets

let hash_words t w0 w1 =
  match t.run_words with
  | Some run -> run w0 w1
  | None -> hash t (Packet.Flow.key_bytes_of_words ~w0 ~w1)

let bucket_words t ~buckets w0 w1 =
  if buckets <= 0 then invalid_arg "Hashers.bucket_words: buckets <= 0";
  hash_words t w0 w1 mod buckets

let hash_flow t flow = hash_words t (Packet.Flow.w0 flow) (Packet.Flow.w1 flow)

let bucket_flow t ~buckets flow =
  bucket_words t ~buckets (Packet.Flow.w0 flow) (Packet.Flow.w1 flow)

(* [fold32] of the canonical key: its three big-endian 32-bit words
   are (local addr), (remote addr), (local port << 16 | remote port).
   Pure int arithmetic on purpose — boxed [Int32] intermediates would
   allocate on the per-packet receive path (the zero-allocation bar of
   DESIGN.md section 10). *)
let fold32_words w0 w1 =
  (w0 lsr 16) lxor (w1 lsr 16)
  lxor (((w0 land 0xFFFF) lsl 16) lor (w1 land 0xFFFF))

let fold_words16 key combine init =
  let acc = ref init in
  let len = Bytes.length key in
  let i = ref 0 in
  while !i + 1 < len do
    acc := combine !acc (Bytes.get_uint16_be key !i);
    i := !i + 2
  done;
  if !i < len then acc := combine !acc (Bytes.get_uint8 key !i);
  !acc

(* The 16-bit words of the canonical key, from the packed words: the
   key-byte order is local addr, remote addr, local port, remote
   port. *)
let fold_words16_words w0 w1 combine init =
  let acc = combine init (w0 lsr 32) in
  let acc = combine acc ((w0 lsr 16) land 0xFFFF) in
  let acc = combine acc (w1 lsr 32) in
  let acc = combine acc ((w1 lsr 16) land 0xFFFF) in
  let acc = combine acc (w0 land 0xFFFF) in
  combine acc (w1 land 0xFFFF)

let xor_fold =
  { name = "xor-fold"; run = (fun k -> fold_words16 k ( lxor ) 0);
    run_words = Some (fun w0 w1 -> fold_words16_words w0 w1 ( lxor ) 0) }

let add_fold =
  let step a w = (a + w) land 0x3FFFFFFF in
  { name = "add-fold"; run = (fun k -> fold_words16 k step 0);
    run_words = Some (fun w0 w1 -> fold_words16_words w0 w1 step 0) }

let fold32 key =
  (* Fold the key into 32 bits by XOR of big-endian 32-bit words. *)
  let len = Bytes.length key in
  let acc = ref 0l in
  let i = ref 0 in
  while !i + 3 < len do
    acc := Int32.logxor !acc (Bytes.get_int32_be key !i);
    i := !i + 4
  done;
  while !i < len do
    acc :=
      Int32.logxor !acc
        (Int32.shift_left (Int32.of_int (Bytes.get_uint8 key !i)) (8 * (!i land 3)));
    incr i
  done;
  !acc

(* The pure-int equivalent of [Int32.mul] then logical shift right by
   2: the product is taken mod 2^32 (OCaml int multiplication wraps
   mod 2^63 and 2^32 divides 2^63, so the low 32 bits agree), matching
   the boxed Int32 byte path bit for bit. *)
let golden_int = 0x9E3779B1 (* 2654435761 = 2^32 / phi *)
let multiply_golden f32 = ((f32 * golden_int) land 0xFFFFFFFF) lsr 2

let multiplicative =
  let golden = 0x9E3779B1l in
  { name = "multiplicative";
    run =
      (fun k ->
        let product = Int32.mul (fold32 k) golden in
        (* Take the high 30 bits: multiplicative hashing concentrates
           its mixing in the high half of the product. *)
        Int32.to_int (Int32.shift_right_logical product 2));
    run_words = Some (fun w0 w1 -> multiply_golden (fold32_words w0 w1)) }

let fnv1a =
  let offset_basis = 0xCBF29CE484222325L and prime = 0x100000001B3L in
  { name = "fnv1a"; run_words = None;
    run =
      (fun k ->
        let h = ref offset_basis in
        Bytes.iter
          (fun c ->
            h := Int64.logxor !h (Int64.of_int (Char.code c));
            h := Int64.mul !h prime)
          k;
        Int64.to_int (Int64.shift_right_logical !h 2)) }

let jenkins_oaat =
  { name = "jenkins-oaat"; run_words = None;
    run =
      (fun k ->
        let h = ref 0l in
        Bytes.iter
          (fun c ->
            h := Int32.add !h (Int32.of_int (Char.code c));
            h := Int32.add !h (Int32.shift_left !h 10);
            h := Int32.logxor !h (Int32.shift_right_logical !h 6))
          k;
        h := Int32.add !h (Int32.shift_left !h 3);
        h := Int32.logxor !h (Int32.shift_right_logical !h 11);
        h := Int32.add !h (Int32.shift_left !h 15);
        Int32.to_int (Int32.shift_right_logical !h 2)) }

let crc32_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let crc32_digest ?(initial = 0l) key =
  let table = Lazy.force crc32_table in
  let crc = ref (Int32.logxor initial 0xFFFFFFFFl) in
  Bytes.iter
    (fun c ->
      let index =
        Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code c))) 0xFFl)
      in
      crc := Int32.logxor table.(index) (Int32.shift_right_logical !crc 8))
    key;
  Int32.logxor !crc 0xFFFFFFFFl

let crc32 =
  { name = "crc32"; run_words = None;
    run = (fun k -> Int32.to_int (Int32.shift_right_logical (crc32_digest k) 2)) }

let crc16_ccitt_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (n lsl 8) in
         for _ = 0 to 7 do
           if !c land 0x8000 <> 0 then c := ((!c lsl 1) lxor 0x1021) land 0xFFFF
           else c := (!c lsl 1) land 0xFFFF
         done;
         !c))

let crc16_ccitt =
  { name = "crc16-ccitt"; run_words = None;
    run =
      (fun k ->
        let table = Lazy.force crc16_ccitt_table in
        let crc = ref 0xFFFF in
        Bytes.iter
          (fun c ->
            let index = ((!crc lsr 8) lxor Char.code c) land 0xFF in
            crc := ((!crc lsl 8) lxor table.(index)) land 0xFFFF)
          k;
        !crc) }

(* Pearson's permutation table: the digits-of-pi permutation would do;
   a fixed xorshift-generated permutation of 0..255 is equivalent. *)
let pearson_table =
  lazy
    (let table = Array.init 256 Fun.id in
     let state = ref 0x2545F4914F6CDD1DL in
     let next_bounded bound =
       state := Int64.logxor !state (Int64.shift_left !state 13);
       state := Int64.logxor !state (Int64.shift_right_logical !state 7);
       state := Int64.logxor !state (Int64.shift_left !state 17);
       Int64.to_int (Int64.rem (Int64.logand !state Int64.max_int)
                       (Int64.of_int bound))
     in
     for i = 255 downto 1 do
       let j = next_bounded (i + 1) in
       let tmp = table.(i) in
       table.(i) <- table.(j);
       table.(j) <- tmp
     done;
     table)

let pearson =
  { name = "pearson"; run_words = None;
    run =
      (fun k ->
        let table = Lazy.force pearson_table in
        let pass seed =
          let h = ref seed in
          Bytes.iter (fun c -> h := table.(!h lxor Char.code c)) k;
          !h
        in
        (* Two independent passes give a 16-bit result. *)
        (pass 0 lsl 8) lor pass 1) }

let all =
  [ xor_fold; add_fold; multiplicative; fnv1a; jenkins_oaat; crc32;
    crc16_ccitt; pearson ]

let of_name wanted =
  match List.find_opt (fun t -> t.name = wanted) all with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown hash %S (expected one of: %s)" wanted
         (String.concat ", " (List.map (fun t -> t.name) all)))
