include Sequent

let create () = Sequent.create ~chains:1 ()

let lookup t ?kind:_ flow =
  let stats = stats t in
  Lookup_stats.begin_lookup stats;
  finish t ~hit_cache:false
    (Chain.scan (home t flow).chain ~stats ~w0:(Packet.Flow.w0 flow)
       ~w1:(Packet.Flow.w1 flow))
