(** Hash functions for protocol addresses.

    The Sequent algorithm's only costs over BSD are "the memory
    required for the hash-chain headers and the computation of the
    hash function itself", and the paper points at Jain's DEC-TR-593
    comparison of address-hashing schemes.  This module implements the
    candidates that study (and 1990s practice) considered, all over the
    canonical 12-byte flow key of {!Packet.Flow.to_key_bytes}. *)

type t
(** A named hash function from bytes to a non-negative int. *)

val name : t -> string

val hash : t -> bytes -> int
(** Hash a byte string to a non-negative integer (full width;
    reduce with {!bucket}). *)

val bucket : t -> buckets:int -> bytes -> int
(** [bucket t ~buckets key] is [hash t key mod buckets].
    @raise Invalid_argument if [buckets <= 0]. *)

val hash_words : t -> int -> int -> int
(** [hash_words t w0 w1] hashes a flow key packed as the two
    immediate words of {!Packet.Flow.w0}/{!Packet.Flow.w1}.  Equal to
    [hash t (Packet.Flow.key_bytes_of_words ~w0 ~w1)]; hashers whose
    definition folds cleanly over the key's words (xor-fold, add-fold,
    multiplicative) compute it without building the 12-byte key, so
    they do not allocate. *)

val bucket_words : t -> buckets:int -> int -> int -> int
(** [bucket_words t ~buckets w0 w1] is [hash_words t w0 w1 mod buckets].
    @raise Invalid_argument if [buckets <= 0]. *)

val hash_flow : t -> Packet.Flow.t -> int
(** [hash_words] over the flow's words: equal to
    [hash t (Packet.Flow.to_key_bytes flow)], and allocation-free
    where {!hash_words} is. *)

val bucket_flow : t -> buckets:int -> Packet.Flow.t -> int
(** [bucket_words] over the flow's words.
    @raise Invalid_argument if [buckets <= 0]. *)

val xor_fold : t
(** XOR the key's 16-bit words together — the cheapest scheme and the
    one early stacks used. *)

val add_fold : t
(** Sum the key's 16-bit words (mod 2^30). *)

val multiplicative : t
(** Knuth multiplicative hashing: fold to 32 bits, multiply by
    2654435761 (the golden-ratio constant), take the high bits.
    Caveat (asserted in test_hashing's "flow-keys"): the 32-bit XOR pre-fold
    can cancel correlated words in wider keys — on structured 36-byte
    IPv6 tuples it collapses like {!xor_fold}; prefer a byte-serial
    hash there. *)

val fnv1a : t
(** FNV-1a over bytes, 64-bit folded to 62 bits. *)

val jenkins_oaat : t
(** Bob Jenkins' one-at-a-time hash. *)

val crc32 : t
(** CRC-32 (IEEE 802.3 polynomial, table-driven) — Jain's report found
    CRCs give the most uniform chain occupancy. *)

val crc16_ccitt : t
(** CRC-16-CCITT (polynomial 0x1021, init 0xFFFF, unreflected) — the
    16-bit CRC of Jain's study; cheaper than CRC-32 with nearly the
    same spreading. *)

val pearson : t
(** Pearson (1990) byte-substitution hash, 16-bit variant (two passes
    over the key with different starting bytes). *)

val all : t list
(** Every hash above, for sweep experiments. *)

val of_name : string -> (t, string) result
(** Look a hash up by {!name}. *)

val crc32_digest : ?initial:int32 -> bytes -> int32
(** Raw CRC-32 value (standard reflected algorithm, as produced by
    zlib's [crc32]); exposed for testing against known vectors. *)
