(* Each node carries its flow as the two packed words of {!Flow_key},
   computed once at insertion, so a scan step compares two immediates
   held in the node and never loads the PCB, its flow or the boxed
   addresses behind it. *)
type 'a node = {
  pcb : 'a Pcb.t;
  w0 : int;
  w1 : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable linked : bool;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable length : int;
}

let create () = { head = None; tail = None; length = 0 }
let length t = t.length
let is_empty t = t.length = 0
let pcb node = node.pcb
let matches node ~w0 ~w1 = node.w0 = w0 && node.w1 = w1

(* One [Some node] cell, shared by [t.head] and the old head's [prev]
   (or [t.tail]): option cells are immutable, so sharing is safe, and
   it pays for the node's two key words. *)
let push_front t pcb =
  let flow = pcb.Pcb.flow in
  let node =
    { pcb; w0 = Flow_key.w0_of_flow flow; w1 = Flow_key.w1_of_flow flow;
      prev = None; next = t.head; linked = true }
  in
  let cell = Some node in
  (match t.head with
  | Some old_head -> old_head.prev <- cell
  | None -> t.tail <- cell);
  t.head <- cell;
  t.length <- t.length + 1;
  node

let remove t node =
  if not node.linked then invalid_arg "Chain.remove: node not linked";
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None;
  node.linked <- false;
  t.length <- t.length - 1

let move_to_front t node =
  if not node.linked then invalid_arg "Chain.move_to_front: node not linked";
  let is_head = match t.head with Some h -> h == node | None -> false in
  if not is_head then begin
    remove t node;
    node.linked <- true;
    node.next <- t.head;
    node.prev <- None;
    let cell = Some node in
    (match t.head with
    | Some old_head -> old_head.prev <- cell
    | None -> t.tail <- cell);
    t.head <- cell;
    t.length <- t.length + 1
  end

(* Top-level recursion with explicit arguments (not a closure over
   [stats]/[w0]/[w1]) and reuse of the chain's own option cells, so a
   scan allocates nothing.  One examination per step, charged as it
   happens: totalling them into one [~count] at the end would box the
   optional argument. *)
let rec scan_nodes stats w0 w1 = function
  | None -> None
  | Some node as found ->
    Lookup_stats.examine stats ();
    if node.w0 = w0 && node.w1 = w1 then found
    else scan_nodes stats w0 w1 node.next

let scan t ~stats ~w0 ~w1 = scan_nodes stats w0 w1 t.head

let iter f t =
  let rec walk = function
    | None -> ()
    | Some node ->
      f node.pcb;
      walk node.next
  in
  walk t.head

let to_list t =
  let acc = ref [] in
  iter (fun pcb -> acc := pcb :: !acc) t;
  List.rev !acc

let tail_pcb t =
  match t.tail with Some node -> Some node.pcb | None -> None
