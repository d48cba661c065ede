(* The ['a] facade over the Robin-Hood engine: Packed_table.Heap maps
   each key to an int handle, and the handle names a cell of a value
   slab holding the binding's option cell.

   A handle is [chunk lsl chunk_shift lor offset].  Chunks start at
   8 cells and double up to 4096, and the slab grows by adding a chunk,
   so no mutation ever copies a cell: incremental resize keeps O(N)
   work off every insert (E31), and a copying slab would put it back.
   Freed handles go on an int stack threaded through [links], so
   remove allocates nothing and insert reuses them first. *)

type resize = Packed_table.resize = Doubling | Incremental

module Index = Packed_table.Heap

let chunk_shift = 32
let offset_mask = (1 lsl chunk_shift) - 1

type 'a t = {
  index : Index.t;
  mutable cells : 'a option array array;
  mutable links : int array array;  (* next free handle, per cell *)
  mutable chunks : int;
  mutable fill : int;  (* cells handed out from the newest chunk *)
  mutable free : int;  (* top of the free-handle stack, -1 when empty *)
}

let create ?hash ?initial_capacity ?resize () =
  { index = Index.create ?hash ?initial_capacity ?resize ();
    cells = [||]; links = [||]; chunks = 0; fill = 0; free = -1 }

let[@inline] cell t h =
  Array.unsafe_get (Array.unsafe_get t.cells (h lsr chunk_shift))
    (h land offset_mask)

let set_cell t h c = t.cells.(h lsr chunk_shift).(h land offset_mask) <- c
let link t h = t.links.(h lsr chunk_shift).(h land offset_mask)

let add_chunk t =
  let k = t.chunks in
  if k = Array.length t.cells then begin
    let grow dir = Array.append dir (Array.make (max 4 k) [||]) in
    t.cells <- grow t.cells;
    t.links <- grow t.links
  end;
  let size = 1 lsl min 12 (3 + k) in
  t.cells.(k) <- Array.make size None;
  t.links.(k) <- Array.make size (-1);
  t.chunks <- k + 1;
  t.fill <- 0

let alloc t v =
  let h =
    if t.free >= 0 then begin
      let h = t.free in
      t.free <- link t h;
      h
    end
    else begin
      if t.chunks = 0 || t.fill = Array.length t.cells.(t.chunks - 1) then
        add_chunk t;
      let h = ((t.chunks - 1) lsl chunk_shift) lor t.fill in
      t.fill <- t.fill + 1;
      h
    end
  in
  set_cell t h (Some v);
  h

let release t h =
  set_cell t h None;
  t.links.(h lsr chunk_shift).(h land offset_mask) <- t.free;
  t.free <- h

let length t = Index.length t.index
let capacity t = Index.capacity t.index
let resize_policy t = Index.resize_policy t.index
let resizes t = Index.resizes t.index
let pending_migration t = Index.pending_migration t.index
let max_probe_length t = Index.max_probe_length t.index
let mem t ~w0 ~w1 = Index.mem t.index ~w0 ~w1

let value = function Some v -> v | None -> assert false
let find t ~w0 ~w1 = value (cell t (Index.find t.index ~w0 ~w1))

let find_opt t ~w0 ~w1 =
  let h = Index.get t.index ~w0 ~w1 ~default:(-1) in
  if h < 0 then None else cell t h

(* One probe: bind a fresh handle, and hand it back if the key turns
   out to be present. *)
let replace t ~w0 ~w1 v =
  let fresh = alloc t v in
  let h = Index.find_or_add t.index ~w0 ~w1 fresh in
  if h <> fresh then begin
    set_cell t h (cell t fresh);
    release t fresh
  end

(* [Index.remove] runs even for an absent key: it carries the
   per-mutation drain step. *)
let remove t ~w0 ~w1 =
  let h = Index.get t.index ~w0 ~w1 ~default:(-1) in
  if h >= 0 then release t h;
  Index.remove t.index ~w0 ~w1

let iter f t =
  Index.iter (fun ~w0 ~w1 h -> f ~w0 ~w1 (value (cell t h))) t.index

let fold f t init =
  Index.fold
    (fun ~w0 ~w1 h acc -> f ~w0 ~w1 (value (cell t h)) acc)
    t.index init

let clear t =
  Index.clear t.index;
  t.cells <- [||];
  t.links <- [||];
  t.chunks <- 0;
  t.fill <- 0;
  t.free <- -1
