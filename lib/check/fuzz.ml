type profile =
  | Uniform
  | Zipf of float
  | Colliding
  | Boundary
  | Adversarial

let profile_name = function
  | Uniform -> "uniform"
  | Zipf theta -> Printf.sprintf "zipf-%g" theta
  | Colliding -> "colliding"
  | Boundary -> "boundary"
  | Adversarial -> "adversarial"

let default_profiles = [ Uniform; Zipf 1.0; Colliding; Boundary; Adversarial ]

module Flow_set = Set.Make (struct
  type t = Packet.Flow.t

  let compare = Packet.Flow.compare
end)

(* Distinct-prefix filter preserving first-occurrence order, so pools
   stay deterministic regardless of how candidates were produced. *)
let take_distinct size candidates =
  let rec go seen acc n = function
    | _ when n = size -> List.rev acc
    | [] -> List.rev acc
    | flow :: rest ->
      if Flow_set.mem flow seen then go seen acc n rest
      else go (Flow_set.add flow seen) (flow :: acc) (n + 1) rest
  in
  go Flow_set.empty [] 0 candidates

(* Colliding pools target the default Sequent geometry — the same
   (chains, hasher) pair Registry.chain_geometry reports for the table
   under test — so every flow reduces to chain 0. *)
let colliding_candidates size =
  let chains, hasher =
    Demux.Registry.chain_geometry
      (Demux.Registry.Sequent
         { chains = Demux.Sequent.default_chains;
           hasher = Hashing.Hashers.multiplicative })
  in
  Sim.Attack_workload.colliding_flows ~hasher ~chains ~count:size

let boundary_candidates () =
  let addr octets =
    let a, b, c, d = octets in
    Packet.Ipv4.addr_of_octets a b c d
  in
  let addrs = [ addr (0, 0, 0, 0); addr (255, 255, 255, 255); addr (192, 0, 2, 1) ]
  and ports = [ 0; 1; 65535 ] in
  let endpoints =
    List.concat_map
      (fun a -> List.map (fun p -> Packet.Flow.endpoint a p) ports)
      addrs
  in
  List.concat_map
    (fun local ->
      List.map
        (fun remote -> Packet.Flow.v ~local ~remote)
        endpoints)
    endpoints

(* Near-miss tuples: serialize a segment for each base flow, let the
   fault injector flip one tuple bit (checksums re-fixed), and parse
   the flow back out — a well-formed key one bit away from a real one. *)
let adversarial_candidates ~seed size =
  let base = Array.to_list (Sim.Topology.flows (max 1 (size / 2))) in
  let injector =
    Fault.Injector.create ~seed (Fault.Plan.v ~tuple_flip:1.0 ())
  in
  let flipped =
    List.concat_map
      (fun (flow : Packet.Flow.t) ->
        let segment =
          Packet.Segment.make ~src:flow.Packet.Flow.remote
            ~dst:flow.Packet.Flow.local ()
        in
        List.filter_map
          (fun bytes ->
            match Packet.Segment.parse bytes ~off:0 with
            | Ok segment -> Some (Packet.Segment.flow segment)
            | Error _ -> None)
          (Fault.Injector.feed injector (Packet.Segment.to_bytes segment)))
      base
  in
  (* Interleave base and flipped so truncation keeps pairs together —
     a near-miss is only adversarial next to its original. *)
  let rec interleave = function
    | [], rest | rest, [] -> rest
    | a :: arest, b :: brest -> a :: b :: interleave (arest, brest)
  in
  interleave (base, flipped)

let flow_pool profile ~seed ~size =
  if size <= 0 then invalid_arg "Fuzz.flow_pool: size <= 0";
  let candidates =
    match profile with
    | Uniform | Zipf _ -> Array.to_list (Sim.Topology.flows size)
    | Colliding -> colliding_candidates size
    | Boundary -> boundary_candidates ()
    | Adversarial -> adversarial_candidates ~seed size
  in
  (* Top up from the plain topology universe if a shaped pool came up
     short (e.g. only 81 boundary tuples exist). *)
  let filler = Array.to_list (Sim.Topology.flows size) in
  Array.of_list (take_distinct size (candidates @ filler))

(* Zipf sampling via the precomputed-CDF + binary-search pattern of
   Sim.Locality_workload. *)
let zipf_cdf ~theta n =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  cdf

let sample_cdf rng cdf =
  let u = Numerics.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let generate ?label profile ~seed ~pool ~ops =
  if ops < 0 then invalid_arg "Fuzz.generate: ops < 0";
  let flows = flow_pool profile ~seed ~size:pool in
  let rng = Numerics.Rng.create ~seed in
  let pick =
    match profile with
    | Zipf theta ->
      let cdf = zipf_cdf ~theta (Array.length flows) in
      (* Visit order is identity order; shuffling the pool would hide
         which ranks are hot, and determinism doesn't need it. *)
      fun () -> flows.(sample_cdf rng cdf)
    | Uniform | Colliding | Boundary | Adversarial ->
      fun () -> flows.(Numerics.Rng.int rng ~bound:(Array.length flows))
  in
  let kind_of_roll roll =
    if roll < 25 then Op.Insert
    else if roll < 65 then Op.Lookup
    else if roll < 75 then Op.Ack_lookup
    else if roll < 90 then Op.Remove
    else Op.Send
  in
  let ops =
    Array.init ops (fun _ ->
        { Op.kind = kind_of_roll (Numerics.Rng.int rng ~bound:100);
          flow = pick () })
  in
  let label = Option.value label ~default:(profile_name profile) in
  Op.v ~label ~seed ops

let shrink fails program =
  if not (fails program) then
    invalid_arg "Fuzz.shrink: the input program does not fail";
  let remake ops = Op.v ~label:"shrunk" ~seed:program.Op.seed ops in
  let current = ref program.Op.ops in
  let try_without lo len =
    let n = Array.length !current in
    let candidate =
      Array.append (Array.sub !current 0 lo)
        (Array.sub !current (lo + len) (n - lo - len))
    in
    if fails (remake candidate) then begin
      current := candidate;
      true
    end
    else false
  in
  let progress = ref true in
  while !progress do
    progress := false;
    let size = ref (max 1 (Array.length !current / 2)) in
    while !size >= 1 do
      let i = ref 0 in
      while !i + !size <= Array.length !current do
        if try_without !i !size then progress := true else i := !i + !size
      done;
      size := if !size = 1 then 0 else !size / 2
    done
  done;
  remake !current

type failure = {
  original : Op.t;
  shrunk : Op.t;
  mismatch : Diff.mismatch;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>mismatch: %a@,source: %s (seed %d, %d ops; shrunk to %d)@,%a@]"
    Diff.pp_mismatch f.mismatch f.original.Op.label f.original.Op.seed
    (Op.length f.original) (Op.length f.shrunk) Op.pp f.shrunk

let campaign ?obs ?(profiles = default_profiles) ?(programs_per_profile = 2)
    ?(ops = 1024) ?(pool = 64) ~subjects ~seed () =
  let programs_counter, ops_counter, mismatch_counter =
    match obs with
    | None -> (ref 0, ref 0, ref 0)
    | Some obs ->
      ( Obs.Registry.counter obs ~help:"programs run by the differential oracle"
          "check.programs",
        Obs.Registry.counter obs
          ~help:"operation applications (op x subject) executed" "check.ops",
        Obs.Registry.counter obs
          ~help:"differential-oracle disagreements found" "check.mismatches" )
  in
  let programs =
    List.concat
      (List.mapi
         (fun pi profile ->
           List.init programs_per_profile (fun i ->
               let pseed = (((seed * 31) + pi) * 31) + i in
               generate profile ~seed:pseed ~pool ~ops))
         profiles)
  in
  let subject_names = ref [] in
  let mismatches = ref [] in
  let failures = ref [] in
  let total_ops = ref 0 in
  List.iter
    (fun program ->
      incr programs_counter;
      List.iter
        (fun factory ->
          let subject = factory () in
          if not (List.mem subject.Subject.name !subject_names) then
            subject_names := subject.Subject.name :: !subject_names;
          total_ops := !total_ops + Op.length program;
          ops_counter := !ops_counter + Op.length program;
          match Diff.run_subject subject program with
          | [] -> ()
          | found ->
            incr mismatch_counter;
            mismatches := List.rev_append found !mismatches;
            let fails p = Diff.run_subject (factory ()) p <> [] in
            let shrunk = shrink fails program in
            let mismatch =
              match Diff.run_subject (factory ()) shrunk with
              | m :: _ -> m
              | [] -> List.hd found (* unreachable: shrunk fails *)
            in
            failures := { original = program; shrunk; mismatch } :: !failures)
        subjects)
    programs;
  ( { Diff.subjects = List.rev !subject_names;
      programs = List.length programs;
      ops = !total_ops;
      mismatches = List.rev !mismatches },
    List.rev !failures )
