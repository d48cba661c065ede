include Sequent

let create ?(initial_buckets = 16) ?hasher () =
  Sequent.create ~chains:initial_buckets ?hasher ()

(* Grow before placing a new flow, so it lands at the head of its
   chain in the doubled table; a duplicate raises without growing. *)
let insert t flow data =
  if length t >= chains t && not (mem t flow) then grow t;
  Sequent.insert t flow data

let lookup = Linear.lookup
