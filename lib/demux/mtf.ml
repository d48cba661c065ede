include Sequent

let create ?(chains = 1) ?hasher () = Sequent.create ~chains ?hasher ()

let lookup t ?kind:_ flow =
  let stats = stats t in
  Lookup_stats.begin_lookup stats;
  let chain = (home t flow).chain in
  match
    Chain.scan chain ~stats ~w0:(Packet.Flow.w0 flow) ~w1:(Packet.Flow.w1 flow)
  with
  | Some node as found ->
    Chain.move_to_front chain node;
    finish t ~hit_cache:false found
  | None -> finish t ~hit_cache:false None
