include Hashtbl.Make (struct
  type t = Packet.Flow.t

  let equal = Packet.Flow.equal

  (* Mix the packed key words instead of serialising and hashing a
     fresh 12-byte string per call. *)
  let hash flow =
    Hashtbl.hash
      ((Packet.Flow.w0 flow * 0x9E3779B1) lxor Packet.Flow.w1 flow)
end)
