(* Slot storage backends for packed flow tables.  See storage.mli for
   the layout contract and packed_table.ml for the probing machinery
   that runs over it. *)

module type S = sig
  type t

  val backend : string
  val bytes_per_slot : int
  val create : capacity:int -> t
  val mask : t -> int
  val capacity : t -> int
  val bytes : t -> int
  val tag : t -> int -> int
  val set_tag : t -> int -> int -> unit
  val hash : t -> int -> int
  val set_hash : t -> int -> int -> unit
  val w0 : t -> int -> int
  val w1 : t -> int -> int
  val set_words : t -> int -> w0:int -> w1:int -> unit
  val value : t -> int -> int
  val set_value : t -> int -> int -> unit
  val copy : t -> t
  val reset : t -> unit
  val scrub : t -> unit
  val free : t -> unit
  val find_slot : t -> hash:int -> tag:int -> w0:int -> w1:int -> int
end

(* Tag values shared with Packed_table: 0 = empty, 255 = dead. *)
let dead_tag = 255

let check_capacity capacity =
  if capacity <= 0 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Storage.create: capacity must be a positive power of two"

(* -------------------------------------------------------------------
   Heap backend: Bytes + int arrays.  Everything stored is an
   immediate, so set_* never hits the write barrier, but the arrays
   themselves are major-heap blocks the GC must mark on every cycle. *)

module Heap = struct
  type t = {
    mutable tags : Bytes.t;
    mutable hs : int array;
    mutable w0s : int array;
    mutable w1s : int array;
    mutable vals : int array;
    mutable mask : int;
  }

  let backend = "heap"

  (* 1 tag byte + hash, w0, w1, value words. *)
  let bytes_per_slot = 1 + (4 * 8)

  let create ~capacity =
    check_capacity capacity;
    {
      tags = Bytes.make capacity '\000';
      hs = Array.make capacity 0;
      w0s = Array.make capacity 0;
      w1s = Array.make capacity 0;
      vals = Array.make capacity 0;
      mask = capacity - 1;
    }

  let mask t = t.mask
  let capacity t = t.mask + 1
  let bytes t = if t.mask = 0 then 0 else capacity t * bytes_per_slot
  let[@inline] tag t i = Char.code (Bytes.unsafe_get t.tags i)

  let[@inline] set_tag t i v =
    Bytes.unsafe_set t.tags i (Char.unsafe_chr v)

  let[@inline] hash t i = Array.unsafe_get t.hs i
  let[@inline] set_hash t i v = Array.unsafe_set t.hs i v
  let[@inline] w0 t i = Array.unsafe_get t.w0s i
  let[@inline] w1 t i = Array.unsafe_get t.w1s i

  let[@inline] set_words t i ~w0 ~w1 =
    Array.unsafe_set t.w0s i w0;
    Array.unsafe_set t.w1s i w1

  let[@inline] value t i = Array.unsafe_get t.vals i
  let[@inline] set_value t i v = Array.unsafe_set t.vals i v

  (* The lookup probe, written out in each backend so its slot reads
     are direct array loads: a caller in a functor (no flambda) pays
     one indirect call per lookup instead of one per slot read. *)
  let rec probe t mask tg k0 k1 slot dist =
    let resident = tag t slot in
    if resident = 0 then lnot dist
    else if resident = tg && w0 t slot = k0 && w1 t slot = k1 then slot
    else if (slot - hash t slot) land mask < dist then lnot dist
    else probe t mask tg k0 k1 ((slot + 1) land mask) (dist + 1)

  let find_slot t ~hash ~tag ~w0 ~w1 =
    probe t t.mask tag w0 w1 (hash land t.mask) 0

  let copy t =
    {
      tags = Bytes.copy t.tags;
      hs = Array.copy t.hs;
      w0s = Array.copy t.w0s;
      w1s = Array.copy t.w1s;
      vals = Array.copy t.vals;
      mask = t.mask;
    }

  let reset t = Bytes.fill t.tags 0 (Bytes.length t.tags) '\000'

  let scrub t =
    Bytes.fill t.tags 0 (Bytes.length t.tags) (Char.chr dead_tag);
    Array.fill t.hs 0 (Array.length t.hs) 0;
    Array.fill t.w0s 0 (Array.length t.w0s) 0;
    Array.fill t.w1s 0 (Array.length t.w1s) 0;
    Array.fill t.vals 0 (Array.length t.vals) 0

  (* The shared sentinel's single slot stays empty (tag 0): a probe of
     freed storage computes [h land 0 = 0], reads tag 0, and misses. *)
  let sentinel =
    {
      tags = Bytes.make 1 '\000';
      hs = [| 0 |];
      w0s = [| 0 |];
      w1s = [| 0 |];
      vals = [| 0 |];
      mask = 0;
    }

  let free t =
    if t.mask <> 0 || t.tags != sentinel.tags then begin
      scrub t;
      t.tags <- sentinel.tags;
      t.hs <- sentinel.hs;
      t.w0s <- sentinel.w0s;
      t.w1s <- sentinel.w1s;
      t.vals <- sentinel.vals;
      t.mask <- 0
    end
end

(* -------------------------------------------------------------------
   Offheap backend: Bigarray.Array1 buffers.  Custom blocks whose
   payload lives outside the OCaml heap — the GC marks one small
   header per buffer regardless of capacity, and dropping the last
   reference releases the payload immediately (caml_ba_finalize runs
   free(3) from the custom-block finaliser, no sweep phase needed for
   the payload itself). *)

module Offheap = struct
  open Bigarray

  type tags_buf = (int, int8_unsigned_elt, c_layout) Array1.t
  type lane_buf = (int, int_elt, c_layout) Array1.t

  type t = {
    mutable tags : tags_buf;
    mutable hs : lane_buf;
    mutable w0s : lane_buf;
    mutable w1s : lane_buf;
    mutable vals : lane_buf;
    mutable mask : int;
  }

  let backend = "offheap"
  let bytes_per_slot = 1 + (4 * 8)

  let make_tags capacity : tags_buf =
    let b = Array1.create int8_unsigned c_layout capacity in
    Array1.fill b 0;
    b

  let make_lane capacity : lane_buf =
    let b = Array1.create int c_layout capacity in
    Array1.fill b 0;
    b

  let create ~capacity =
    check_capacity capacity;
    {
      tags = make_tags capacity;
      hs = make_lane capacity;
      w0s = make_lane capacity;
      w1s = make_lane capacity;
      vals = make_lane capacity;
      mask = capacity - 1;
    }

  let mask t = t.mask
  let capacity t = t.mask + 1
  let bytes t = if t.mask = 0 then 0 else capacity t * bytes_per_slot
  let[@inline] tag t i = Array1.unsafe_get t.tags i
  let[@inline] set_tag t i v = Array1.unsafe_set t.tags i v
  let[@inline] hash t i = Array1.unsafe_get t.hs i
  let[@inline] set_hash t i v = Array1.unsafe_set t.hs i v
  let[@inline] w0 t i = Array1.unsafe_get t.w0s i
  let[@inline] w1 t i = Array1.unsafe_get t.w1s i

  let[@inline] set_words t i ~w0 ~w1 =
    Array1.unsafe_set t.w0s i w0;
    Array1.unsafe_set t.w1s i w1

  let[@inline] value t i = Array1.unsafe_get t.vals i
  let[@inline] set_value t i v = Array1.unsafe_set t.vals i v

  (* Same probe as [Heap.find_slot], over this backend's accessors. *)
  let rec probe t mask tg k0 k1 slot dist =
    let resident = tag t slot in
    if resident = 0 then lnot dist
    else if resident = tg && w0 t slot = k0 && w1 t slot = k1 then slot
    else if (slot - hash t slot) land mask < dist then lnot dist
    else probe t mask tg k0 k1 ((slot + 1) land mask) (dist + 1)

  let find_slot t ~hash ~tag ~w0 ~w1 =
    probe t t.mask tag w0 w1 (hash land t.mask) 0

  let copy t =
    let c = capacity t in
    let copy_tags () =
      let b = Array1.create int8_unsigned c_layout c in
      Array1.blit t.tags b;
      b
    in
    let copy_lane (src : lane_buf) =
      let b = Array1.create int c_layout c in
      Array1.blit src b;
      b
    in
    {
      tags = copy_tags ();
      hs = copy_lane t.hs;
      w0s = copy_lane t.w0s;
      w1s = copy_lane t.w1s;
      vals = copy_lane t.vals;
      mask = t.mask;
    }

  let reset t = Array1.fill t.tags 0

  let scrub t =
    Array1.fill t.tags dead_tag;
    Array1.fill t.hs 0;
    Array1.fill t.w0s 0;
    Array1.fill t.w1s 0;
    Array1.fill t.vals 0

  let sentinel_tags : tags_buf = make_tags 1
  let sentinel_lane : lane_buf = make_lane 1

  let free t =
    if t.mask <> 0 || t.tags != sentinel_tags then begin
      scrub t;
      (* Severing these references is the eager part: the retired
         buffers' custom blocks lose their last root here, so the
         off-heap payload is returned to the allocator at the next
         collection of five small headers — not of [capacity] slots. *)
      t.tags <- sentinel_tags;
      t.hs <- sentinel_lane;
      t.w0s <- sentinel_lane;
      t.w1s <- sentinel_lane;
      t.vals <- sentinel_lane;
      t.mask <- 0
    end
end

let by_name = function
  | "heap" -> Some (module Heap : S)
  | "offheap" -> Some (module Offheap : S)
  | _ -> None
