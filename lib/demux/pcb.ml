type 'a t = { id : int; flow : Packet.Flow.t; data : 'a }

let make ~id ~flow data = { id; flow; data }
let matches t flow = Packet.Flow.equal t.flow flow
let pp ppf t = Format.fprintf ppf "pcb#%d %a" t.id Packet.Flow.pp t.flow
