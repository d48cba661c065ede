include Sequent

let create () = Sequent.create ~chains:1 ()

let lookup t ?kind:_ flow =
  let stats = stats t in
  Lookup_stats.begin_lookup stats;
  finish t ~hit_cache:false
    (Chain.scan (home t flow).chain ~stats ~w0:(Flow_key.w0_of_flow flow)
       ~w1:(Flow_key.w1_of_flow flow))
