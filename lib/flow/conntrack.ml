open Sb_packet

type state = Syn_sent | Syn_received | Established | Closing

let pp_state fmt s =
  Format.pp_print_string fmt
    (match s with
    | Syn_sent -> "SYN_SENT"
    | Syn_received -> "SYN_RECEIVED"
    | Established -> "ESTABLISHED"
    | Closing -> "CLOSING")

type verdict = { state : state; established_now : bool; final : bool }

type t = state Tuple_map.t

let create () = Tuple_map.create 1024

(* The 13-byte tuple is hashed exactly once per observation ([observe_h]
   lets the classifier share the hash it computed for the FID, so the
   packet's whole admission costs one FNV pass); the steady-state path then
   does a single [find_opt_h] and no [replace] when the state would not
   change (the common case — an established flow's mid-stream segment). *)
let observe_h t ~hash key p =
  match Packet.proto p with
  | Packet.Udp ->
      let found = Tuple_map.find_opt_h t ~hash key in
      if found <> Some Established then Tuple_map.replace_h t ~hash key Established;
      { state = Established; established_now = found = None; final = false }
  | Packet.Tcp ->
      let flags = Packet.tcp_flags p in
      let found = Tuple_map.find_opt_h t ~hash key in
      let fresh = found = None in
      let prev = Option.value found ~default:Closing in
      let next =
        if flags.Tcp.Flags.rst then Closing
        else if flags.Tcp.Flags.fin then Closing
        else if flags.Tcp.Flags.syn && flags.Tcp.Flags.ack then
          (* A SYN-ACK retransmitted after the handshake completed must not
             regress the connection to mid-handshake. *)
          match prev with
          | Established when not fresh -> Established
          | Syn_sent | Syn_received | Established | Closing -> Syn_received
        else if flags.Tcp.Flags.syn then
          (* A retransmitted SYN never downgrades progress: an established
             flow stays established (its consolidated rule stays valid),
             and a mid-handshake flow holds its position. *)
          match prev with
          | Established when not fresh -> Established
          | Syn_received when not fresh -> Syn_received
          | Syn_sent | Syn_received | Established | Closing -> Syn_sent
        else
          (* A plain segment: completes the handshake when we were mid-way,
             otherwise keeps the current state. *)
          match prev with
          | Syn_sent | Syn_received -> Established
          | Established -> Established
          | Closing -> if fresh then Established else Closing
      in
      if found <> Some next then Tuple_map.replace_h t ~hash key next;
      {
        state = next;
        established_now =
          next = Established && (fresh || prev = Syn_sent || prev = Syn_received);
        final = flags.Tcp.Flags.fin || flags.Tcp.Flags.rst;
      }

let observe t key p = observe_h t ~hash:(Five_tuple.hash key) key p

let state t key = Tuple_map.find_opt t key

(* Cross-tracker handoff (flow migration): the source tracker exports via
   [state], the target installs the entry verbatim so the connection does
   not re-handshake on its new home. *)
let adopt t key st = Tuple_map.replace t key st

let forget t key = Tuple_map.remove t key

let active_flows t = Tuple_map.length t
