type result = {
  probed : int;
  wrong : int;
  pending_while_pinned : int;
  pending_after_quiesce : int;
  publishes_while_pinned : int;
}

let passed r =
  r.wrong = 0 && r.pending_while_pinned > 0 && r.pending_after_quiesce = 0

(* Synthetic two-word keys: distinct for distinct [i], with enough
   high-bit spread that tags and home slots vary. *)
let w0_of i = (i * 0x9E3779B9) land max_int
let w1_of i = (i * 0x85EBCA6B) lxor 0x5bd1e995

let run ?(resident = 12) ?(churn = 64) (module T : Epoch.Packed.S) =
  let t = T.create () in
  for i = 0 to resident - 1 do
    T.replace t ~w0:(w0_of i) ~w1:(w1_of i) i
  done;
  let view = T.pin t in
  (* Writer churn across the pin: growth from the 8-slot minimum fires
     at populations 8, 15, 29, 57, ... so [resident + churn] inserts
     cross at least two boundaries, each a full-region publish. *)
  for i = resident to resident + churn - 1 do
    T.replace t ~w0:(w0_of i) ~w1:(w1_of i) i
  done;
  let pending_while_pinned = T.pending t in
  let wrong = ref 0 in
  for i = 0 to resident - 1 do
    match T.view_find view ~w0:(w0_of i) ~w1:(w1_of i) with
    | Some v when v = i -> ()
    | _ -> incr wrong
  done;
  T.unpin t;
  T.quiesce t;
  { probed = resident;
    wrong = !wrong;
    pending_while_pinned;
    pending_after_quiesce = T.pending t;
    publishes_while_pinned = churn }

let pp_result ppf r =
  Format.fprintf ppf
    "probed %d wrong %d pending(pinned) %d pending(quiesced) %d publishes %d \
     => %s"
    r.probed r.wrong r.pending_while_pinned r.pending_after_quiesce
    r.publishes_while_pinned
    (if passed r then "ok" else "FAIL")
