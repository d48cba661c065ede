include Sequent

let create () = Sequent.create ~chains:1 ()

let lookup t _ ~w0 ~w1 =
  let stats = stats t in
  Lookup_stats.begin_lookup stats;
  finish t ~hit_cache:false (Chain.scan (home t ~w0 ~w1).chain ~stats ~w0 ~w1)
