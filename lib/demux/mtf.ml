include Sequent

let create ?(chains = 1) ?hasher () = Sequent.create ~chains ?hasher ()

let lookup t _ ~w0 ~w1 =
  let stats = stats t in
  Lookup_stats.begin_lookup stats;
  let chain = (home t ~w0 ~w1).chain in
  match Chain.scan chain ~stats ~w0 ~w1 with
  | Some node as found ->
    Chain.move_to_front chain node;
    finish t ~hit_cache:false found
  | None -> finish t ~hit_cache:false None
