type kind =
  | Lookup_begin
  | Lookup_end
  | Cache_hit
  | Chain_walk
  | Insert
  | Remove
  | Eviction
  | Rejection
  | Drop
  | Phase
  | Latency
  | Batch

let kind_name = function
  | Lookup_begin -> "lookup-begin"
  | Lookup_end -> "lookup-end"
  | Cache_hit -> "cache-hit"
  | Chain_walk -> "chain-walk"
  | Insert -> "insert"
  | Remove -> "remove"
  | Eviction -> "eviction"
  | Rejection -> "rejection"
  | Drop -> "drop"
  | Phase -> "phase"
  | Latency -> "latency"
  | Batch -> "batch"

let kind_code = function
  | Lookup_begin -> 0
  | Lookup_end -> 1
  | Cache_hit -> 2
  | Chain_walk -> 3
  | Insert -> 4
  | Remove -> 5
  | Eviction -> 6
  | Rejection -> 7
  | Drop -> 8
  | Phase -> 9
  | Latency -> 10
  | Batch -> 11

let kind_of_code = function
  | 0 -> Some Lookup_begin
  | 1 -> Some Lookup_end
  | 2 -> Some Cache_hit
  | 3 -> Some Chain_walk
  | 4 -> Some Insert
  | 5 -> Some Remove
  | 6 -> Some Eviction
  | 7 -> Some Rejection
  | 8 -> Some Drop
  | 9 -> Some Phase
  | 10 -> Some Latency
  | 11 -> Some Batch
  | _ -> None

type record = { time : float; kind : kind; a : int; b : int }

type ring = {
  mutable clock : Clock.t;
  ring_id : int;
  times : float array;
  kinds : Bytes.t;
  pa : int array;
  pb : int array;
  mutable head : int;      (* next write position *)
  mutable total : int;     (* events ever recorded *)
}

type t = Disabled | Enabled of ring

let disabled = Disabled

let create ?(clock = Clock.wall ()) ?(id = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  Enabled
    { clock; ring_id = id; times = Array.make capacity 0.0;
      kinds = Bytes.make capacity '\000'; pa = Array.make capacity 0;
      pb = Array.make capacity 0; head = 0; total = 0 }

let enabled = function Disabled -> false | Enabled _ -> true
let id = function Disabled -> 0 | Enabled r -> r.ring_id
let capacity = function Disabled -> 0 | Enabled r -> Array.length r.times

let set_clock t clock =
  match t with Disabled -> () | Enabled r -> r.clock <- clock

let record t kind a b =
  match t with
  | Disabled -> ()
  | Enabled r ->
    let i = r.head in
    Clock.store r.clock r.times i;
    Bytes.unsafe_set r.kinds i (Char.unsafe_chr (kind_code kind));
    r.pa.(i) <- a;
    r.pb.(i) <- b;
    r.head <- (if i + 1 = Array.length r.times then 0 else i + 1);
    r.total <- r.total + 1

let length = function
  | Disabled -> 0
  | Enabled r -> min r.total (Array.length r.times)

let recorded = function Disabled -> 0 | Enabled r -> r.total
let dropped t = recorded t - length t

let clear = function
  | Disabled -> ()
  | Enabled r ->
    r.head <- 0;
    r.total <- 0

let nth_oldest r i =
  (* Index into the ring of the i-th oldest held event. *)
  let cap = Array.length r.times in
  let held = min r.total cap in
  let start = if r.total <= cap then 0 else r.head in
  let j = (start + i) mod cap in
  assert (i < held);
  j

let to_list t =
  match t with
  | Disabled -> []
  | Enabled r ->
    let held = length t in
    List.init held (fun i ->
        let j = nth_oldest r i in
        let kind =
          match kind_of_code (Char.code (Bytes.get r.kinds j)) with
          | Some k -> k
          | None -> assert false
        in
        { time = r.times.(j); kind; a = r.pa.(j); b = r.pb.(j) })

(* ------------------------------------------------------------------ *)
(* Binary dump                                                         *)

let magic = "OBSTRC1\n"

let put64 oc v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  output_bytes oc b

let put64_raw oc v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  output_bytes oc b

let dump t oc =
  output_string oc magic;
  put64 oc (id t);
  put64 oc (length t);
  List.iter
    (fun r ->
      put64_raw oc (Int64.bits_of_float r.time);
      output_char oc (Char.chr (kind_code r.kind));
      put64 oc r.a;
      put64 oc r.b)
    (to_list t)

let read_channel ic =
  let read_exactly n =
    match really_input_string ic n with
    | s -> Some s
    | exception End_of_file -> None
  in
  let get64 s off = Int64.to_int (String.get_int64_le s off) in
  let rec segments acc =
    match read_exactly (String.length magic) with
    | None -> Ok (List.rev acc)
    | Some header when header <> magic ->
      Error "trace: bad segment magic"
    | Some _ -> (
      match read_exactly 16 with
      | None -> Error "trace: truncated segment header"
      | Some meta ->
        let seg_id = get64 meta 0 in
        let count = get64 meta 8 in
        if count < 0 then Error "trace: negative event count"
        else
          let rec events i acc_events =
            if i = count then Some (List.rev acc_events)
            else
              match read_exactly 25 with
              | None -> None
              | Some raw -> (
                let time =
                  Int64.float_of_bits (String.get_int64_le raw 0)
                in
                match kind_of_code (Char.code raw.[8]) with
                | None -> None
                | Some kind ->
                  events (i + 1)
                    ({ time; kind; a = get64 raw 9; b = get64 raw 17 }
                    :: acc_events))
          in
          (match events 0 [] with
          | None -> Error "trace: truncated or corrupt event stream"
          | Some evs -> segments ((seg_id, evs) :: acc)))
  in
  segments []

let read_file path =
  match open_in_bin path with
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
  | exception Sys_error message -> Error ("trace: " ^ message)

let pp_record ppf r =
  Format.fprintf ppf "%.9f %-12s a=%d b=%d" r.time (kind_name r.kind) r.a r.b
