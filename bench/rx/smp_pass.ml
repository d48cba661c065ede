(* Replay through Parallel.Smp with one worker domain plus the
   dispatcher: the same per-stack work as the direct replay, plus peek,
   steer, ring and the cross-domain handoff.  The worker's stack never
   sees [advance_clock], so no timer fires here. *)

let config ?on_data () =
  Parallel.Smp.config ?on_data ~domains:1 ~local_addr:Direct.local_addr ()

type counters = {
  replies : int;
  connections : int;
  failed : int;  (* drops, refusals at dispatch, ring-full drops *)
  demux : Demux.Lookup_stats.snapshot;
}

let counters (r : Parallel.Smp.result) =
  let sum f = Array.fold_left (fun acc d -> acc + f d) 0 r.per_domain in
  { replies = sum (fun d -> d.Parallel.Smp.tx);
    connections = sum (fun d -> d.Parallel.Smp.connections);
    failed =
      List.fold_left (fun acc (_, n) -> acc + n) 0 r.merged_drops
      + sum (fun d -> d.Parallel.Smp.rejected + d.Parallel.Smp.dropped_full);
    demux = r.merged_stats }

let audit tr (r : Parallel.Smp.result) =
  Workload.audit tr (fun f ->
      List.iter
        (fun (c : Parallel.Smp.conn_summary) -> f c.flow c.state c.bytes_in)
        r.connections)
  @ Parallel.Smp.violations r

type pass = {
  wall_s : float;
  result : Parallel.Smp.result;
  counters : counters;
  problems : string list;
}

let run ?on_data tr =
  Gc.full_major ();
  let t0 = Obs.Clock.now_ns () in
  let result = Parallel.Smp.run (config ?on_data ()) tr.Workload.datagrams in
  { wall_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9; result;
    counters = counters result; problems = audit tr result }

(* Indices of the datagrams that carry data, in trace order: with one
   worker, the k-th [on_data] call delivers the k-th of them. *)
let data_positions ds =
  let acc = ref [] in
  Array.iteri
    (fun i d ->
      match Packet.Segment.parse ~verify_checksum:false d ~off:0 with
      | Ok s when String.length s.Packet.Segment.payload > 0 -> acc := i :: !acc
      | Ok _ | Error _ -> ())
    ds;
  Array.of_list (List.rev !acc)

(* A pass in which the worker reads the clock at every [every]-th data
   delivery ([every] a power of two), and its own domain's minor-words
   counter at the first and at each stamped delivery.  Returns the
   stamps and the minor words per datagram between the first and the
   last stamp. *)
let stamped_pass tr positions ~every =
  let n = Array.length positions in
  let stamps = Array.make (((n - 1) / every) + 1) 0 and delivered = ref 0 in
  let words = Array.make 2 0.0 in
  let on_data _ _ _ =
    let k = !delivered in
    if k < n && k land (every - 1) = 0 then begin
      stamps.(k / every) <- Obs.Clock.now_ns ();
      if k = 0 then words.(0) <- Gc.minor_words ();
      words.(1) <- Gc.minor_words ()
    end;
    delivered := k + 1
  in
  let pass = run ~on_data tr in
  let problems =
    if !delivered = n then pass.problems
    else Printf.sprintf "%d data deliveries, expected %d" !delivered n
         :: pass.problems
  in
  let last = (Array.length stamps - 1) * every in
  ( { pass with problems },
    stamps,
    (words.(1) -. words.(0)) /. float_of_int (positions.(last) - positions.(0)) )

(* Window [w] spans deliveries [w * every] to [(w + 1) * every]: the
   worker's time for each, and the datagrams all [windows] cover. *)
let window_count positions ~every = (Array.length positions - 1) / every

let window_times stamps =
  Array.init (Array.length stamps - 1) (fun w -> stamps.(w + 1) - stamps.(w))

let window_datagrams positions ~every ~windows =
  positions.(windows * every) - positions.(0)

(* Service times from per-delivery stamps.  The dispatcher keeps the
   single worker's ring full, so the interval between deliveries of two
   consecutive datagrams is the worker's service time for the second.
   An interval spanning a SYN or handshake ACK is no sample: [max_int]. *)
let service_times positions stamps =
  Array.init (Array.length positions) (fun k ->
      if k > 0 && positions.(k) = positions.(k - 1) + 1 then
        stamps.(k) - stamps.(k - 1)
      else max_int)

(* The fixed cost of a run: a whole [Smp.run] over a one-datagram
   trace, i.e. ring allocation, domain spawn, stack creation, join and
   summary. *)
let spawn_seconds tr =
  Gc.full_major ();
  let t0 = Obs.Clock.now_ns () in
  ignore (Parallel.Smp.run (config ()) [| tr.Workload.datagrams.(0) |]);
  float_of_int (Obs.Clock.now_ns () - t0) /. 1e9
