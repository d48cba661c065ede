(** RFC 1071 Internet checksum (16-bit one's-complement sum).

    The sum is taken a word at a time (RFC 1071 section 2): the region
    is read as unchecked 64-bit big-endian loads, the two 32-bit halves
    of each load are added into a native int with the carries deferred,
    the last 0–7 bytes are added as 16-bit words (an odd last byte is
    padded with zero on the right), and the total is folded once to 16
    bits.  As [2^16 = 1 (mod 0xFFFF)], a 32-bit half is congruent to the
    sum of its two 16-bit words, so the fold gives the same checksum as
    adding the region one 16-bit word at a time. *)

val ones_complement_sum : ?initial:int -> bytes -> off:int -> len:int -> int
(** Running one's-complement sum (not yet complemented) of [len] bytes
    starting at [off], plus [initial] (default 0), which chains partial
    sums such as a pseudo-header's.  For a non-negative [initial] the
    result is congruent modulo 0xFFFF to the sum of the region's 16-bit
    big-endian words plus [initial], is at most [0xFFFF + initial], and
    is 0 only when that sum is 0; so [finish] gives the same checksum
    for it as for the plain word sum.
    @raise Invalid_argument unless [0 <= off], [0 <= len] and
    [off + len <= Bytes.length buf].  The check is written so that it
    cannot overflow, and it is the only guard on the kernel's unchecked
    loads. *)

val finish : int -> int
(** Fold carries and complement a running sum into the on-wire 16-bit
    checksum value. *)

val compute : ?initial:int -> bytes -> off:int -> len:int -> int
(** [finish (ones_complement_sum ...)]. *)

val verify : ?initial:int -> bytes -> off:int -> len:int -> bool
(** True when the region (which must include its embedded checksum
    field) sums to the all-ones pattern, i.e. the checksum is valid. *)
