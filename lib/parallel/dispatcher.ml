(* Per-target staging, shared by Smp's dispatcher and the chaos
   harness: items wait in their target's buffer until [batch] of them
   are staged or the caller flushes the target.  [ship] gets the
   target's own buffer and copies what it keeps. *)
type 'a staging = {
  batch : int;
  (* Sized on a target's first item, since an ['a array] cannot be
     allocated without an element. *)
  buffers : 'a array array;
  fills : int array;
  ship : int -> 'a array -> int -> unit;
}

let staging ~targets ~batch ~ship =
  { batch; buffers = Array.make targets [||];
    fills = Array.make targets 0; ship }

let flush s w =
  let fill = s.fills.(w) in
  if fill > 0 then begin
    s.fills.(w) <- 0;
    s.ship w s.buffers.(w) fill
  end

let stage s ~target:w item =
  if Array.length s.buffers.(w) = 0 then
    s.buffers.(w) <- Array.make s.batch item;
  let fill = s.fills.(w) in
  s.buffers.(w).(fill) <- item;
  s.fills.(w) <- fill + 1;
  if fill + 1 = s.batch then flush s w

type offered = Shipped | Rejected | Dropped

let note_depth ?(limit = max_int) p ring =
  Pressure.note_ring_depth p ~depth:(Ring.length ring)
    ~capacity:(min limit (Ring.capacity ring))

(* The tier policy.  At [Reject] the value is refused before the ring
   is even tried; at [Drop_batches] a full ring drops it instead of
   blocking; below that a full ring is backpressure and the producer
   spins until the worker frees a slot.  Every offer samples the ring
   into the controller, a refused one too: the workers keep draining
   while the producer sheds, and without a load signal the controller
   would never observe the calm run it needs to leave Reject. *)
let offer ?pressure ?spin ?limit ring value ~packets =
  match pressure with
  | Some p when Pressure.rejecting p ->
    Pressure.note_rejected p ~packets;
    note_depth ?limit p ring;
    Rejected
  | _ -> (
    (match pressure with Some p -> note_depth ?limit p ring | None -> ());
    if Ring.try_push ?limit ring value then Shipped
    else
      match pressure with
      | Some p when Pressure.drops_batches p ->
        Pressure.note_dropped_batch p ~packets;
        Dropped
      | _ ->
        Ring.push ?spin ?limit ring value;
        Shipped)
