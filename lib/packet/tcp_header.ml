type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags =
  { fin = false; syn = false; rst = false; psh = false; ack = false;
    urg = false }

let flag_syn = { no_flags with syn = true }
let flag_ack = { no_flags with ack = true }
let flag_syn_ack = { no_flags with syn = true; ack = true }
let flag_fin_ack = { no_flags with fin = true; ack = true }
let flag_psh_ack = { no_flags with psh = true; ack = true }
let flag_rst = { no_flags with rst = true }

let flags_to_int f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)
  lor if f.urg then 0x20 else 0

let flags_of_int bits =
  { fin = bits land 0x01 <> 0;
    syn = bits land 0x02 <> 0;
    rst = bits land 0x04 <> 0;
    psh = bits land 0x08 <> 0;
    ack = bits land 0x10 <> 0;
    urg = bits land 0x20 <> 0 }

let pp_flags ppf f =
  let letters =
    List.filter_map
      (fun (set, c) -> if set then Some c else None)
      [ (f.syn, 'S'); (f.fin, 'F'); (f.rst, 'R'); (f.psh, 'P'); (f.ack, '.');
        (f.urg, 'U') ]
  in
  if letters = [] then Format.pp_print_string ppf "none"
  else List.iter (Format.pp_print_char ppf) letters

type option_ =
  | Mss of int
  | Window_scale of int
  | Sack_permitted
  | Timestamps of { value : int32; echo : int32 }
  | Nop
  | Unknown of { kind : int; payload : string }

let pp_option ppf = function
  | Mss v -> Format.fprintf ppf "mss %d" v
  | Window_scale v -> Format.fprintf ppf "wscale %d" v
  | Sack_permitted -> Format.pp_print_string ppf "sackOK"
  | Timestamps { value; echo } ->
    Format.fprintf ppf "TS val %ld ecr %ld" value echo
  | Nop -> Format.pp_print_string ppf "nop"
  | Unknown { kind; payload } ->
    Format.fprintf ppf "opt-%d[%d]" kind (String.length payload)

let option_wire_length = function
  | Mss _ -> 4
  | Window_scale _ -> 3
  | Sack_permitted -> 2
  | Timestamps _ -> 10
  | Nop -> 1
  | Unknown { payload; _ } -> 2 + String.length payload

let round_up4 n = (n + 3) land lnot 3

let options_length options =
  round_up4 (List.fold_left (fun acc o -> acc + option_wire_length o) 0 options)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_number : int32;
  flags : flags;
  window : int;
  urgent : int;
  options : option_ list;
}

let header_length t = 20 + options_length t.options

let make ?(seq = 0l) ?(ack_number = 0l) ?(flags = no_flags) ?(window = 65535)
    ?(urgent = 0) ?(options = []) ~src_port ~dst_port () =
  let check_u16 name v =
    if v < 0 || v > 0xFFFF then
      invalid_arg (Printf.sprintf "Tcp_header.make: %s out of range" name)
  in
  check_u16 "src_port" src_port;
  check_u16 "dst_port" dst_port;
  check_u16 "window" window;
  check_u16 "urgent" urgent;
  if options_length options > 40 then
    invalid_arg "Tcp_header.make: options exceed 40 bytes";
  { src_port; dst_port; seq; ack_number; flags; window; urgent; options }

let write_option buf off = function
  | Mss v ->
    Bytes.set_uint8 buf off 2;
    Bytes.set_uint8 buf (off + 1) 4;
    Bytes.set_uint16_be buf (off + 2) v;
    off + 4
  | Window_scale v ->
    Bytes.set_uint8 buf off 3;
    Bytes.set_uint8 buf (off + 1) 3;
    Bytes.set_uint8 buf (off + 2) v;
    off + 3
  | Sack_permitted ->
    Bytes.set_uint8 buf off 4;
    Bytes.set_uint8 buf (off + 1) 2;
    off + 2
  | Timestamps { value; echo } ->
    Bytes.set_uint8 buf off 8;
    Bytes.set_uint8 buf (off + 1) 10;
    Bytes.set_int32_be buf (off + 2) value;
    Bytes.set_int32_be buf (off + 6) echo;
    off + 10
  | Nop ->
    Bytes.set_uint8 buf off 1;
    off + 1
  | Unknown { kind; payload } ->
    Bytes.set_uint8 buf off kind;
    Bytes.set_uint8 buf (off + 1) (2 + String.length payload);
    Bytes.blit_string payload 0 buf (off + 2) (String.length payload);
    off + 2 + String.length payload

let serialize t ~pseudo_sum ?(payload = "") buf ~off =
  let hlen = header_length t in
  let total = hlen + String.length payload in
  if off < 0 || off + total > Bytes.length buf then
    invalid_arg "Tcp_header.serialize: buffer too small";
  Bytes.set_uint16_be buf off t.src_port;
  Bytes.set_uint16_be buf (off + 2) t.dst_port;
  Bytes.set_int32_be buf (off + 4) t.seq;
  Bytes.set_int32_be buf (off + 8) t.ack_number;
  Bytes.set_uint8 buf (off + 12) ((hlen / 4) lsl 4);
  Bytes.set_uint8 buf (off + 13) (flags_to_int t.flags);
  Bytes.set_uint16_be buf (off + 14) t.window;
  Bytes.set_uint16_be buf (off + 16) 0 (* checksum placeholder *);
  Bytes.set_uint16_be buf (off + 18) t.urgent;
  let opt_end = List.fold_left (fun o opt -> write_option buf o opt)
      (off + 20) t.options
  in
  (* End-of-list padding out to the 4-byte boundary. *)
  for i = opt_end to off + hlen - 1 do
    Bytes.set_uint8 buf i 0
  done;
  Bytes.blit_string payload 0 buf (off + hlen) (String.length payload);
  Bytes.set_uint16_be buf (off + 16)
    (Checksum.compute ~initial:pseudo_sum buf ~off ~len:total);
  total

let pp ppf t =
  Format.fprintf ppf "@[<h>%d > %d flags=%a seq=%ld ack=%ld win=%d" t.src_port
    t.dst_port pp_flags t.flags t.seq t.ack_number t.window;
  if t.options <> [] then begin
    Format.fprintf ppf " opts=[";
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp_option ppf t.options;
    Format.fprintf ppf "]"
  end;
  Format.fprintf ppf "@]"
