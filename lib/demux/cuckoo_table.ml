(* Bucketized cuckoo hashing over Storage.S — see the .mli and
   DESIGN.md section 15 for the layout and the bounded-probe
   argument.  Hot-path discipline matches Packed_table: every lane
   holds immediates, lookups allocate nothing (the probe accumulator
   is a mutable int field, not a ref cell), and all slot indexing is
   [bucket lsl 3 + i] with the bucket taken [land bmask]. *)

let slots_per_bucket = 8
let stash_capacity = 16
let bfs_budget = 170
let dead_tag = Storage.dead_tag
let min_buckets = 2
let max_grow_retries = 3

let default_hash1 = Hashing.Hashers.(hash_words multiplicative)

(* Independent secondary hash: distinct odd multipliers over the raw
   packed words (not the 32-bit fold the multiplicative primary
   starts from, so a crafted fold32 collision family does not collide
   here), xor-shift finisher, masked non-negative.  Pure int
   arithmetic — no allocation on the per-packet path. *)
let default_hash2 w0 w1 =
  let x = (w0 * 0x2545F4914F6CDD1D) lxor (w1 * 0x369DEA0F31A53F85) in
  let x = x lxor (x lsr 31) in
  let x = x * 0x27D4EB2F165667C5 in
  (x lxor (x lsr 29)) land max_int

let tag_of_hash h =
  let tag = (h lsr 16) land 0xFF in
  if tag = 0 || tag = dead_tag then 1 else tag

let buckets_for n =
  let rec fit buckets =
    if n * 16 <= buckets * slots_per_bucket * 15 then buckets
    else fit (buckets * 2)
  in
  fit min_buckets

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

module type S = sig
  type t

  val backend : string

  val create :
    ?hash1:(int -> int -> int) -> ?hash2:(int -> int -> int) ->
    ?initial_capacity:int -> unit -> t

  val length : t -> int
  val capacity : t -> int
  val resizes : t -> int
  val bytes : t -> int
  val find : t -> w0:int -> w1:int -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b
  val clear : t -> unit
  val max_probe_length : t -> int
  val buckets : t -> int
  val stash_len : t -> int
  val kicks : t -> int
  val stash_spills : t -> int
  val last_probes : t -> int
  val probe_count : t -> w0:int -> w1:int -> int
end

module Make (St : Storage.S) : S = struct
  type t = {
    mutable store : St.t;
    mutable nbuckets : int;
    mutable bmask : int;
    mutable count : int;             (* keys resident in bucket slots *)
    (* Per-bucket negative-lookup filter: eight 7-bit saturating
       counters packed at 8-bit stride (bits 0..62 of one int — the
       8th bit of each lane is never set, so the packing fits a
       63-bit immediate).  Counter [tag land 7] of bucket [b] counts
       keys whose primary bucket is [b] but which live in their
       secondary bucket or the stash. *)
    mutable ovf : int array;
    (* Bucket-visited stamps for BFS dedup (epoch-tagged so the array
       is never cleared between inserts). *)
    mutable visited : int array;
    mutable visit_epoch : int;
    (* Stash: parallel immediates, scanned last. *)
    stash_h : int array;
    stash_w0 : int array;
    stash_w1 : int array;
    stash_v : int array;
    mutable stash_len : int;
    (* BFS scratch: bucket / parent queue index / slot in parent's
       bucket whose resident leads here. *)
    bfs_bucket : int array;
    bfs_parent : int array;
    bfs_slot : int array;
    mutable resizes : int;
    mutable kicks : int;
    mutable stash_spills : int;
    mutable last_probes : int;
    hash1 : int -> int -> int;
    hash2 : int -> int -> int;
  }

  let backend = St.backend

  let create ?(hash1 = default_hash1) ?(hash2 = default_hash2)
      ?(initial_capacity = min_buckets * slots_per_bucket) () =
    if initial_capacity < 0 then
      invalid_arg "Cuckoo_table.create: initial_capacity < 0";
    let nbuckets =
      pow2_at_least
        ((max initial_capacity (min_buckets * slots_per_bucket)
          + slots_per_bucket - 1)
         / slots_per_bucket)
        min_buckets
    in
    { store = St.create ~capacity:(nbuckets * slots_per_bucket);
      nbuckets;
      bmask = nbuckets - 1;
      count = 0;
      ovf = Array.make nbuckets 0;
      visited = Array.make nbuckets 0;
      visit_epoch = 0;
      stash_h = Array.make stash_capacity 0;
      stash_w0 = Array.make stash_capacity 0;
      stash_w1 = Array.make stash_capacity 0;
      stash_v = Array.make stash_capacity 0;
      stash_len = 0;
      bfs_bucket = Array.make bfs_budget 0;
      bfs_parent = Array.make bfs_budget (-1);
      bfs_slot = Array.make bfs_budget (-1);
      resizes = 0;
      kicks = 0;
      stash_spills = 0;
      last_probes = 0;
      hash1;
      hash2 }

  let length t = t.count + t.stash_len
  let capacity t = t.nbuckets * slots_per_bucket
  let resizes t = t.resizes
  let buckets t = t.nbuckets
  let stash_len t = t.stash_len
  let kicks t = t.kicks
  let stash_spills t = t.stash_spills
  let last_probes t = t.last_probes

  let bytes t =
    St.bytes t.store
    + (8 * (2 * t.nbuckets + 3 * bfs_budget + 4 * stash_capacity))

  (* --- filter ------------------------------------------------------ *)

  let[@inline] filter_get t b cls = (t.ovf.(b) lsr (cls lsl 3)) land 0x7F

  let filter_incr t b cls =
    if filter_get t b cls < 0x7F then
      t.ovf.(b) <- t.ovf.(b) + (1 lsl (cls lsl 3))

  let filter_decr t b cls =
    let c = filter_get t b cls in
    if c = 0 then
      invalid_arg
        "Cuckoo_table: overflow-filter underflow (a secondary/stash \
         resident was never counted — accounting bug)";
    (* Saturated counters stick: a stale positive costs one extra
       bucket probe, a false negative would lose a key. *)
    if c < 0x7F then t.ovf.(b) <- t.ovf.(b) - (1 lsl (cls lsl 3))

  (* --- bucket scans ------------------------------------------------ *)

  (* Tag vector first: the eight contiguous tag bytes of the bucket
     are compared before any key word is loaded.  Top-level recursion
     with every parameter explicit — an inner [go] would close over
     the scan state and allocate a closure per lookup, blowing the
     zero-minor-words warm-hit budget. *)
  let rec scan_slots st s stop tag w0 w1 =
    if s = stop then -1
    else if St.tag st s = tag && St.w0 st s = w0 && St.w1 st s = w1 then s
    else scan_slots st (s + 1) stop tag w0 w1

  let[@inline] scan_bucket st base tag w0 w1 =
    scan_slots st base (base + slots_per_bucket) tag w0 w1

  let rec free_from st s stop =
    if s = stop then -1
    else if St.tag st s = 0 then s
    else free_from st (s + 1) stop

  let[@inline] free_slot st base = free_from st base (base + slots_per_bucket)

  (* --- lookup ------------------------------------------------------ *)

  let rec stash_scan t w0 w1 i =
    if i >= t.stash_len then -1
    else begin
      t.last_probes <- t.last_probes + 1;
      if t.stash_w0.(i) = w0 && t.stash_w1.(i) = w1 then -2 - i
      else stash_scan t w0 w1 (i + 1)
    end

  (* Result encoding: slot index (>= 0) for a bucket hit, [-2 - i]
     for stash entry [i], -1 for a miss.  [t.last_probes] accumulates
     probe units (buckets scanned + stash entries examined) without a
     heap-allocated ref. *)
  let lookup t ~w0 ~w1 =
    let h1 = t.hash1 w0 w1 in
    let tag = tag_of_hash h1 in
    let b1 = h1 land t.bmask in
    t.last_probes <- 1;
    let s = scan_bucket t.store (b1 lsl 3) tag w0 w1 in
    if s >= 0 then s
    else if filter_get t b1 (tag land 7) = 0 then -1
    else begin
      let b2 = t.hash2 w0 w1 land t.bmask in
      let s2 =
        if b2 = b1 then -1
        else begin
          t.last_probes <- t.last_probes + 1;
          scan_bucket t.store (b2 lsl 3) tag w0 w1
        end
      in
      if s2 >= 0 then s2 else stash_scan t w0 w1 0
    end

  let find t ~w0 ~w1 =
    let r = lookup t ~w0 ~w1 in
    if r >= 0 then St.value t.store r
    else if r = -1 then raise Not_found
    else t.stash_v.(-2 - r)

  let find_opt t ~w0 ~w1 =
    match find t ~w0 ~w1 with v -> Some v | exception Not_found -> None

  let mem t ~w0 ~w1 = lookup t ~w0 ~w1 <> -1

  let probe_count t ~w0 ~w1 =
    let (_ : int) = lookup t ~w0 ~w1 in
    t.last_probes

  (* --- placement --------------------------------------------------- *)

  let write_slot t slot h1 tag w0 w1 v =
    let st = t.store in
    St.set_tag st slot tag;
    St.set_hash st slot h1;
    St.set_words st slot ~w0 ~w1;
    St.set_value st slot v

  (* Move a resident one hop to its other candidate bucket, keeping
     the primary bucket's filter counter in step with whether the key
     is currently displaced from home. *)
  let move_slot t src dst =
    let st = t.store in
    let h = St.hash st src in
    let tg = St.tag st src in
    let p = h land t.bmask in
    let was_out = src lsr 3 <> p and now_out = dst lsr 3 <> p in
    St.set_tag st dst tg;
    St.set_hash st dst h;
    St.set_words st dst ~w0:(St.w0 st src) ~w1:(St.w1 st src);
    St.set_value st dst (St.value st src);
    St.set_tag st src 0;
    St.set_value st src 0;
    if was_out && not now_out then filter_decr t p (tg land 7)
    else if now_out && not was_out then filter_incr t p (tg land 7)

  let alt_bucket t slot =
    let st = t.store in
    let p = St.hash st slot land t.bmask in
    if slot lsr 3 = p then t.hash2 (St.w0 st slot) (St.w1 st slot) land t.bmask
    else p

  (* BFS over kick paths.  Each bucket enters the queue at most once
     (epoch-stamped visited array), so the slots along any root path
     are distinct and the unwind below moves each resident exactly
     once.  Bounded by [bfs_budget] queue entries. *)
  let bfs_place t h1 tag w0 w1 v b1 b2 =
    t.visit_epoch <- t.visit_epoch + 1;
    let epoch = t.visit_epoch in
    let qb = t.bfs_bucket and qp = t.bfs_parent and qs = t.bfs_slot in
    qb.(0) <- b1;
    qp.(0) <- -1;
    qs.(0) <- -1;
    t.visited.(b1) <- epoch;
    let len = ref 1 in
    if b2 <> b1 then begin
      qb.(1) <- b2;
      qp.(1) <- -1;
      qs.(1) <- -1;
      t.visited.(b2) <- epoch;
      len := 2
    end;
    let head = ref 0 in
    let placed = ref false in
    while (not !placed) && !head < !len do
      let b = qb.(!head) in
      let fs = free_slot t.store (b lsl 3) in
      if fs >= 0 then begin
        (* Unwind: walk parents moving each chain resident into the
           slot freed below it; the root's freed slot takes the new
           key. *)
        let rec unwind qi free_s =
          if qp.(qi) < 0 then free_s
          else begin
            let ps = qs.(qi) in
            move_slot t ps free_s;
            t.kicks <- t.kicks + 1;
            unwind qp.(qi) ps
          end
        in
        let root_free = unwind !head fs in
        write_slot t root_free h1 tag w0 w1 v;
        if root_free lsr 3 <> b1 then filter_incr t b1 (tag land 7);
        t.count <- t.count + 1;
        placed := true
      end
      else begin
        let base = b lsl 3 in
        let i = ref 0 in
        while !len < bfs_budget && !i < slots_per_bucket do
          let alt = alt_bucket t (base + !i) in
          if t.visited.(alt) <> epoch then begin
            t.visited.(alt) <- epoch;
            qb.(!len) <- alt;
            qp.(!len) <- !head;
            qs.(!len) <- base + !i;
            incr len
          end;
          incr i
        done
      end;
      incr head
    done;
    !placed

  (* Place a key known to be absent; false if both buckets, every
     BFS path, and the stash are exhausted. *)
  let try_place t h1 tag w0 w1 v =
    let b1 = h1 land t.bmask in
    let b2 = t.hash2 w0 w1 land t.bmask in
    let fs1 = free_slot t.store (b1 lsl 3) in
    if fs1 >= 0 then begin
      write_slot t fs1 h1 tag w0 w1 v;
      t.count <- t.count + 1;
      true
    end
    else begin
      let fs2 = if b2 = b1 then -1 else free_slot t.store (b2 lsl 3) in
      if fs2 >= 0 then begin
        write_slot t fs2 h1 tag w0 w1 v;
        t.count <- t.count + 1;
        filter_incr t b1 (tag land 7);
        true
      end
      else if bfs_place t h1 tag w0 w1 v b1 b2 then true
      else if t.stash_len < stash_capacity then begin
        let i = t.stash_len in
        t.stash_h.(i) <- h1;
        t.stash_w0.(i) <- w0;
        t.stash_w1.(i) <- w1;
        t.stash_v.(i) <- v;
        t.stash_len <- i + 1;
        t.stash_spills <- t.stash_spills + 1;
        filter_incr t b1 (tag land 7);
        true
      end
      else false
    end

  (* Stop-the-world doubling rehash.  Stash entries re-insert first —
     they were the overflow, so they get first pick of the doubled
     space.  If even repeated doubling cannot re-place the residents
     (possible only with degenerate hash pairs) we fail loudly. *)
  let grow t =
    let n = t.count + t.stash_len in
    let eh = Array.make (max n 1) 0 in
    let e0 = Array.make (max n 1) 0 in
    let e1 = Array.make (max n 1) 0 in
    let ev = Array.make (max n 1) 0 in
    let k = ref 0 in
    for i = 0 to t.stash_len - 1 do
      eh.(!k) <- t.stash_h.(i);
      e0.(!k) <- t.stash_w0.(i);
      e1.(!k) <- t.stash_w1.(i);
      ev.(!k) <- t.stash_v.(i);
      incr k
    done;
    let old_store = t.store in
    for s = 0 to (t.nbuckets * slots_per_bucket) - 1 do
      if St.tag old_store s <> 0 then begin
        eh.(!k) <- St.hash old_store s;
        e0.(!k) <- St.w0 old_store s;
        e1.(!k) <- St.w1 old_store s;
        ev.(!k) <- St.value old_store s;
        incr k
      end
    done;
    assert (!k = n);
    let rec attempt nbuckets retries =
      if retries > max_grow_retries then
        invalid_arg
          "Cuckoo_table: rehash failed after repeated doubling \
           (degenerate hash pair — residents exceed 2 buckets + stash)";
      t.nbuckets <- nbuckets;
      t.bmask <- nbuckets - 1;
      t.store <- St.create ~capacity:(nbuckets * slots_per_bucket);
      t.ovf <- Array.make nbuckets 0;
      t.visited <- Array.make nbuckets 0;
      t.visit_epoch <- 0;
      t.count <- 0;
      t.stash_len <- 0;
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < n do
        if not (try_place t eh.(!i) (tag_of_hash eh.(!i)) e0.(!i) e1.(!i) ev.(!i))
        then ok := false;
        incr i
      done;
      if not !ok then attempt (nbuckets * 2) (retries + 1)
    in
    attempt (t.nbuckets * 2) 1;
    t.resizes <- t.resizes + 1;
    St.free old_store

  let replace t ~w0 ~w1 v =
    let r = lookup t ~w0 ~w1 in
    if r >= 0 then St.set_value t.store r v
    else if r <= -2 then t.stash_v.(-2 - r) <- v
    else begin
      if (t.count + t.stash_len + 1) * 16 > capacity t * 15 then grow t;
      let h1 = t.hash1 w0 w1 in
      let tag = tag_of_hash h1 in
      if not (try_place t h1 tag w0 w1 v) then begin
        grow t;
        if not (try_place t h1 tag w0 w1 v) then begin
          grow t;
          if not (try_place t h1 tag w0 w1 v) then
            invalid_arg
              "Cuckoo_table: insert failed after repeated growth \
               (more keys collide on one bucket pair than 2 buckets \
                + stash can hold)"
        end
      end
    end

  let remove t ~w0 ~w1 =
    let r = lookup t ~w0 ~w1 in
    if r >= 0 then begin
      let st = t.store in
      let p = St.hash st r land t.bmask in
      if r lsr 3 <> p then filter_decr t p (St.tag st r land 7);
      St.set_tag st r 0;
      St.set_value st r 0;
      t.count <- t.count - 1
    end
    else if r <= -2 then begin
      let i = -2 - r in
      filter_decr t
        (t.stash_h.(i) land t.bmask)
        (tag_of_hash t.stash_h.(i) land 7);
      let last = t.stash_len - 1 in
      t.stash_h.(i) <- t.stash_h.(last);
      t.stash_w0.(i) <- t.stash_w0.(last);
      t.stash_w1.(i) <- t.stash_w1.(last);
      t.stash_v.(i) <- t.stash_v.(last);
      t.stash_len <- last
    end

  let iter f t =
    let st = t.store in
    for s = 0 to (t.nbuckets * slots_per_bucket) - 1 do
      let tag = St.tag st s in
      if tag <> 0 && tag <> dead_tag then
        f ~w0:(St.w0 st s) ~w1:(St.w1 st s) (St.value st s)
    done;
    for i = 0 to t.stash_len - 1 do
      f ~w0:t.stash_w0.(i) ~w1:t.stash_w1.(i) t.stash_v.(i)
    done

  let fold f t init =
    let acc = ref init in
    iter (fun ~w0 ~w1 v -> acc := f ~w0 ~w1 v !acc) t;
    !acc

  let clear t =
    St.reset t.store;
    t.count <- 0;
    t.stash_len <- 0;
    Array.fill t.ovf 0 t.nbuckets 0;
    Array.fill t.visited 0 t.nbuckets 0;
    t.visit_epoch <- 0

  let max_probe_length t =
    let worst = ref 0 in
    let st = t.store in
    for s = 0 to (t.nbuckets * slots_per_bucket) - 1 do
      if St.tag st s <> 0 then begin
        let p = St.hash st s land t.bmask in
        let probes = if s lsr 3 = p then 1 else 2 in
        if probes > !worst then worst := probes
      end
    done;
    for i = 0 to t.stash_len - 1 do
      let h1 = t.stash_h.(i) in
      let b1 = h1 land t.bmask in
      let b2 = t.hash2 t.stash_w0.(i) t.stash_w1.(i) land t.bmask in
      let probes = (if b2 = b1 then 1 else 2) + i + 1 in
      if probes > !worst then worst := probes
    done;
    !worst
  end

module Heap = Make (Storage.Heap)
module Offheap = Make (Storage.Offheap)
