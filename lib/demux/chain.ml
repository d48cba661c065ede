(* A chain is a struct of arrays.  Entry [i] runs from the tail
   ([i = 0]) to the head ([i = length - 1]), so [push_front] appends
   and unlinking shifts only the entries between a node and the head.
   With [cap] the capacity, [words] holds:

     [0, 2 cap)       entry i's packed flow words at 2i and 2i + 1
     [2 cap, 3 cap)   entry i's slab slot at 2 cap + i; past [length],
                      the free slots

   Every slot is either in use, held by one entry, or free, held past
   [length], so the free list needs no storage of its own.  [slab.(s)]
   is [Some node] for the node in slot [s], or [None] when the slot is
   free.  A node never changes slot while linked, so its [Some] cell
   is the one a scan hands back and a cache slot keeps.  Only [words]
   is ever shifted, and it holds only immediates: shifting the nodes
   themselves would write each through [caml_modify]. *)
type 'a node = { pcb : 'a Pcb.t; w0 : int; w1 : int; slot : int }

type 'a t = {
  mutable words : int array;
  mutable slab : 'a node option array;
  mutable length : int;
}

(* An empty chain holds no arrays: [Stack.create] builds 19 of them. *)
let create () = { words = [||]; slab = [||]; length = 0 }
let length t = t.length
let is_empty t = t.length = 0
let pcb node = node.pcb
let matches node ~w0 ~w1 = node.w1 = w1 && node.w0 = w0
let capacity t = Array.length t.slab
let slot_base t = 2 * capacity t
let initial_capacity = 8

(* Forward copy, so it may move a range down within one array.  The
   [int array] annotations make the stores plain; on a polymorphic
   array they would go through [caml_modify]. *)
let move_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for k = 0 to len - 1 do
    Array.unsafe_set dst (dst_pos + k) (Array.unsafe_get src (src_pos + k))
  done

(* Called when full, so every slot is in use and the new ones are
   exactly the free ones. *)
let grow t =
  let cap = capacity t in
  let cap' = if cap = 0 then initial_capacity else 2 * cap in
  let words = Array.make (3 * cap') 0 in
  move_ints t.words 0 words 0 (2 * cap);
  move_ints t.words (2 * cap) words (2 * cap') cap;
  for slot = cap to cap' - 1 do
    words.((2 * cap') + slot) <- slot
  done;
  let slab = Array.make cap' None in
  Array.blit t.slab 0 slab 0 cap;
  t.words <- words;
  t.slab <- slab

let push_front t pcb =
  if t.length = capacity t then grow t;
  let i = t.length in
  let slot = t.words.(slot_base t + i) in
  let flow = pcb.Pcb.flow in
  let node =
    { pcb; w0 = Packet.Flow.w0 flow; w1 = Packet.Flow.w1 flow; slot }
  in
  t.words.(2 * i) <- node.w0;
  t.words.((2 * i) + 1) <- node.w1;
  t.slab.(slot) <- Some node;
  t.length <- i + 1;
  node

(* Whether [node] is linked in [t], not in another chain or nowhere. *)
let linked t node =
  node.slot < capacity t
  && match t.slab.(node.slot) with Some n -> n == node | None -> false

(* The entry holding [slot] at or below [i]; [slot] is in use, so the
   search stops. *)
let rec position (words : int array) base (slot : int) i =
  if Array.unsafe_get words (base + i) = slot then i
  else position words base slot (i - 1)

(* [node]'s entry, searched from the head. *)
let entry t node ~op =
  if not (linked t node) then invalid_arg (op ^ ": node not linked");
  position t.words (slot_base t) node.slot (t.length - 1)

(* Shift the entries above [i] down one, leaving the head entry for
   the caller to fill. *)
let close_gap t i =
  let last = t.length - 1 and base = slot_base t in
  move_ints t.words (2 * (i + 1)) t.words (2 * i) (2 * (last - i));
  move_ints t.words (base + i + 1) t.words (base + i) (last - i)

let remove t node =
  close_gap t (entry t node ~op:"Chain.remove");
  (* The freed slot lands just past the new length, in the free list. *)
  t.length <- t.length - 1;
  t.words.(slot_base t + t.length) <- node.slot;
  t.slab.(node.slot) <- None

let move_to_front t node =
  let i = entry t node ~op:"Chain.move_to_front" and last = t.length - 1 in
  if i < last then begin
    close_gap t i;
    t.words.(2 * last) <- node.w0;
    t.words.((2 * last) + 1) <- node.w1;
    t.words.(slot_base t + last) <- node.slot
  end

(* Whether entry [i] holds [w0]/[w1].  The remote word goes first:
   every flow of a server shares its local word, so on a server's
   chain a non-matching entry costs one load.  The [int] annotations
   keep [=] an int compare. *)
let[@inline] hit (words : int array) (w0 : int) (w1 : int) i =
  Array.unsafe_get words ((2 * i) + 1) = w1
  && Array.unsafe_get words (2 * i) = w0

(* The entry matching [w0]/[w1] at or below [i], or -1: eight entries
   per step while eight remain, then the last few one at a time.
   Top-level recursion with explicit arguments, as a local closure
   would allocate its environment. *)
let rec find_tail words w0 w1 i =
  if i < 0 || hit words w0 w1 i then i else find_tail words w0 w1 (i - 1)

let rec find_from words w0 w1 i =
  if i < 7 then find_tail words w0 w1 i
  else if hit words w0 w1 i then i
  else if hit words w0 w1 (i - 1) then i - 1
  else if hit words w0 w1 (i - 2) then i - 2
  else if hit words w0 w1 (i - 3) then i - 3
  else if hit words w0 w1 (i - 4) then i - 4
  else if hit words w0 w1 (i - 5) then i - 5
  else if hit words w0 w1 (i - 6) then i - 6
  else if hit words w0 w1 (i - 7) then i - 7
  else find_from words w0 w1 (i - 8)

(* One charge for the whole walk, the match included. *)
let scan t ~stats ~w0 ~w1 =
  let last = t.length - 1 in
  let i = find_from t.words w0 w1 last in
  if i < 0 then begin
    Lookup_stats.charge stats t.length;
    None
  end
  else begin
    Lookup_stats.charge stats (last - i + 1);
    t.slab.(t.words.(slot_base t + i))
  end

let node_at t i =
  match t.slab.(t.words.(slot_base t + i)) with
  | Some node -> node
  | None -> assert false (* every entry's slot is in use *)

let iter f t =
  for i = t.length - 1 downto 0 do
    f (node_at t i).pcb
  done

let to_list t =
  let acc = ref [] in
  for i = 0 to t.length - 1 do
    acc := (node_at t i).pcb :: !acc
  done;
  !acc

let tail_pcb t = if t.length = 0 then None else Some (node_at t 0).pcb
