external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* Carries are deferred across at most this many bytes, then the sum is
   folded to 33 bits: 2^28 loads of two halves below 2^32 each keep the
   accumulator below 2^62.  A datagram is one block. *)
let block_bytes = 1 lsl 31

let fold16 sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let ones_complement_sum ?(initial = 0) buf ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length buf - off then
    invalid_arg "Checksum.ones_complement_sum: region out of range";
  let sum = ref 0 in
  let i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    let block_end =
      if !i + block_bytes < words_end then !i + block_bytes else words_end
    in
    while !i < block_end do
      (* A big-endian 64-bit load is four 16-bit words in wire order;
         its two 32-bit halves are each congruent, modulo 0xFFFF, to the
         sum of their two words (RFC 1071 section 2). *)
      let w =
        if Sys.big_endian then get64u buf !i else bswap64 (get64u buf !i)
      in
      sum := !sum + Int64.to_int (Int64.shift_right_logical w 32)
             + (Int64.to_int w land 0xFFFF_FFFF);
      i := !i + 8
    done;
    sum := (!sum land 0xFFFF_FFFF) + (!sum lsr 32)
  done;
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 buf !i lsl 8);
  fold16 !sum + initial

let finish sum = lnot (fold16 sum) land 0xFFFF

let compute ?initial buf ~off ~len =
  finish (ones_complement_sum ?initial buf ~off ~len)

let verify ?initial buf ~off ~len =
  finish (ones_complement_sum ?initial buf ~off ~len) = 0
