(* The only place a non-identity fault hook is set. *)

module Clear_on_delete = struct
  include Demux.Packed_table.Identity

  let delete ~shift:_ ~clear = clear
end

module Scrub_on_publish = struct
  include Demux.Packed_table.Identity

  let publish ~retire:_ ~scrub = scrub
end

module Table = Demux.Packed_table.Make (Clear_on_delete) (Demux.Storage.Heap)
module Epoch_table = Epoch.Packed.Make (Scrub_on_publish) (Demux.Storage.Heap)
