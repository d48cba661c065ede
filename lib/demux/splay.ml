type 'a tree = Leaf | Node of 'a tree * 'a Pcb.t * 'a tree

type 'a t = {
  mutable root : 'a tree;
  mutable population : int;
  stats : Lookup_stats.t;
  mutable next_id : int;
  mutable charging : bool;
}


let create () =
  { root = Leaf; population = 0; stats = Lookup_stats.create (); next_id = 0;
    charging = false }

let compare_charged t key pcb =
  if t.charging then Lookup_stats.examine t.stats;
  Packet.Flow.compare key pcb.Pcb.flow

(* Top-down-style recursive splay: brings the searched key (or the
   last node on its search path) to the root, applying zig-zig and
   zig-zag rotations two levels at a time. *)
let rec splay t key tree =
  match tree with
  | Leaf -> Leaf
  | Node (l, v, r) as node -> (
    let c = compare_charged t key v in
    if c = 0 then node
    else if c < 0 then
      match l with
      | Leaf -> node
      | Node (ll, lv, lr) -> (
        let c2 = compare_charged t key lv in
        if c2 = 0 then Node (ll, lv, Node (lr, v, r))
        else if c2 < 0 then
          match splay t key ll with
          | Leaf -> Node (ll, lv, Node (lr, v, r))
          | Node (sl, sv, sr) ->
            (* zig-zig *)
            Node (sl, sv, Node (sr, lv, Node (lr, v, r)))
        else
          match splay t key lr with
          | Leaf -> Node (ll, lv, Node (lr, v, r))
          | Node (sl, sv, sr) ->
            (* zig-zag *)
            Node (Node (ll, lv, sl), sv, Node (sr, v, r)))
    else
      match r with
      | Leaf -> node
      | Node (rl, rv, rr) -> (
        let c2 = compare_charged t key rv in
        if c2 = 0 then Node (Node (l, v, rl), rv, rr)
        else if c2 > 0 then
          match splay t key rr with
          | Leaf -> Node (Node (l, v, rl), rv, rr)
          | Node (sl, sv, sr) ->
            (* zig-zig *)
            Node (Node (Node (l, v, rl), rv, sl), sv, sr)
        else
          match splay t key rl with
          | Leaf -> Node (Node (l, v, rl), rv, rr)
          | Node (sl, sv, sr) ->
            (* zig-zag *)
            Node (Node (l, v, sl), sv, Node (sr, rv, rr))))

let splay_uncharged t key tree =
  t.charging <- false;
  splay t key tree

let splay_charged t key tree =
  t.charging <- true;
  let result = splay t key tree in
  t.charging <- false;
  result

let insert t flow data =
  let root = splay_uncharged t flow t.root in
  (match root with
  | Node (_, v, _) when Packet.Flow.equal v.Pcb.flow flow ->
    t.root <- root;
    invalid_arg "Splay.insert: duplicate flow"
  | Leaf | Node _ -> ());
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  (* Split the splayed tree around the new key. *)
  let new_root =
    match root with
    | Leaf -> Node (Leaf, pcb, Leaf)
    | Node (l, v, r) ->
      if Packet.Flow.compare flow v.Pcb.flow < 0 then
        Node (l, pcb, Node (Leaf, v, r))
      else Node (Node (l, v, Leaf), pcb, r)
  in
  t.root <- new_root;
  t.population <- t.population + 1;
  Lookup_stats.note_insert t.stats;
  pcb

let join t left right =
  (* All keys in [left] precede all keys in [right]: splay left's
     maximum to its root (it then has no right child) and attach. *)
  match left with
  | Leaf -> right
  | Node (_, v, _) -> (
    (* Splaying for a key >= the maximum brings the maximum up; use
       the right spine's last pcb's own flow. *)
    let rec max_pcb = function
      | Node (_, pcb, Leaf) -> pcb
      | Node (_, _, r) -> max_pcb r
      | Leaf -> v
    in
    match splay_uncharged t (max_pcb left).Pcb.flow left with
    | Node (l, pcb, Leaf) -> Node (l, pcb, right)
    | Node (_, _, Node _) | Leaf -> assert false)

let remove t flow =
  match splay_uncharged t flow t.root with
  | Leaf -> None
  | Node (l, v, r) as root ->
    if Packet.Flow.equal v.Pcb.flow flow then begin
      t.root <- join t l r;
      t.population <- t.population - 1;
      Lookup_stats.note_remove t.stats;
      Some v
    end
    else begin
      t.root <- root;
      None
    end

(* The tree keeps {!Packet.Flow.compare} order, so a lookup builds the
   flow its words name. *)
let lookup t _ ~w0 ~w1 =
  let flow = Packet.Flow.of_words ~w0 ~w1 in
  Lookup_stats.begin_lookup t.stats;
  match splay_charged t flow t.root with
  | Node (_, v, _) as root when Packet.Flow.equal v.Pcb.flow flow ->
    t.root <- root;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    v
  | root ->
    t.root <- root;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    raise Not_found

let note_send t flow = t.root <- splay_uncharged t flow t.root

let stats t = t.stats
let length t = t.population

let iter f t =
  let rec walk = function
    | Leaf -> ()
    | Node (l, v, r) ->
      walk l;
      f v;
      walk r
  in
  walk t.root

let depth t =
  let rec height = function
    | Leaf -> 0
    | Node (l, _, r) -> 1 + max (height l) (height r)
  in
  height t.root
