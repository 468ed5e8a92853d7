(* Flow-arrival traffic generator.

   Traffic is a stream, not a materialised trace: [concurrency] flow
   slots, each holding one live flow.  The stream advances in rounds; a
   round visits every occupied slot once, in a fresh random order, and
   emits that flow's next packet.  When a flow sends its last packet the
   slot takes a new flow, which starts in the next round.  So flows start
   over time, at most [concurrency] of them are live at once, and a live
   flow never waits more than two rounds (< 2 * concurrency packets)
   between packets — which is what lets the idle timeout reclaim only
   abandoned flows (UDP and TCP flows that stop without FIN/RST), never
   live ones.  The first [ramp_rounds] rounds open the slots gradually,
   so flow starts are spread rather than all in round one.

   Every packet is stamped with [ingress_cycle = index * gap_cycles], the
   arrival clock idle expiry runs on.  The stream is a pure function of
   the seed: [create spec seed] twice yields identical packets, which is
   how the correctness pass replays exactly what the timed pass saw.
   Packets are rendered a chunk at a time into {!frames}, an arena that
   lives outside the OCaml heap, so the harness adds one chunk of memory
   whatever the run length, and none of it to the major heap the
   benchmark reports.

   The generator also tracks which flows share a 20-bit FID with another
   flow that still holds it (live, or abandoned and not yet expired),
   and marks their packets: the correctness check needs to know which
   packets a FID collision can touch (see [Replay.check]). *)

open Sb_packet
module Rng = Sb_trace.Rng

type spec = {
  concurrency : int;  (** live flow slots *)
  data_packets : Rng.t -> int;  (** per-flow data packet count *)
  payload : int * int;  (** per-flow payload length range, bytes *)
  udp_fraction : float;
  rst_fraction : float;  (** TCP flows closed by RST instead of FIN *)
  abandon_fraction : float;  (** TCP flows that just stop, no FIN/RST *)
  token_fraction : float;  (** flows whose payloads carry an IDS token *)
}

let ramp_rounds = 4 (* rounds over which the slots open *)
let gap_cycles = 500 (* arrival clock per packet: 0.25 us at 2 GHz *)

(* A live flow: its tuple, how many data packets it still sends, and the
   shape of the ones it sends. *)
type flow = {
  tuple : Sb_flow.Five_tuple.t;
  fid : int;
  mutable next : int;  (** packets emitted so far (SYN included) *)
  total : int;  (** packets in the flow (SYN included for TCP) *)
  plen : int;
  close : Sb_trace.Workload.close;
  token : string option;
  mutable shared : bool;  (** another flow held this flow's fid at the same time *)
}

type t = {
  spec : spec;
  rng : Rng.t;
  pool : string;  (** random payload bytes, sliced per packet *)
  slots : flow option array;
  order : int array;
  mutable open_slots : int;
  mutable round : int;
  mutable pos : int;  (** position in [order] within the current round *)
  salt : int;
  mutable emitted : int;
  mutable flows_started : int;
  holders : (int, flow list) Hashtbl.t;  (** fid -> flows still holding it *)
  lingering : (flow * int) Queue.t;  (** abandoned flows and their last packet's index *)
  mutable collisions : int;
  mutable first_collision : int;  (** index of the first packet a collision can touch *)
  linger_packets : int option;  (** how long an abandoned flow holds its fid *)
}

let services = Array.init 16 (fun i -> Ipv4_addr.of_octets 192 168 1 (10 + i))
let service_ports = [| 80; 443; 8080; 53; 25; 110; 3306; 6379; 11211; 8443 |]
let port_dist = Sb_trace.Dist.Zipf.create ~n:(Array.length service_ports) ~s:1.1
let tokens = [| "attack"; "exploit"; "beacon" |]

(* A bijection on 24 bits (odd multiplier, xor-shift), so flow [n]'s
   source address is distinct from every other flow's in the run while
   the addresses look scattered. *)
let scramble24 seed n =
  let m = 0xffffff in
  let x = (n * 0x9e3779) land m in
  let x = x lxor (x lsr 11) lxor (seed land m) in
  (x * 0x2545f5) land m

let fid_bits = Sb_flow.Fid.default_bits

let holders_of t fid = Option.value ~default:[] (Hashtbl.find_opt t.holders fid)

let release t f =
  match List.filter (fun g -> g != f) (holders_of t f.fid) with
  | [] -> Hashtbl.remove t.holders f.fid
  | l -> Hashtbl.replace t.holders f.fid l

let new_flow t =
  let s = t.spec and rng = t.rng in
  let n = t.flows_started in
  t.flows_started <- n + 1;
  let a = scramble24 t.salt n in
  let tuple =
    {
      Sb_flow.Five_tuple.src_ip = Ipv4_addr.of_octets 10 (a lsr 16) ((a lsr 8) land 255) (a land 255);
      dst_ip = Rng.choice rng services;
      src_port = Rng.int_in rng 32768 61000;
      dst_port = service_ports.(Sb_trace.Dist.Zipf.sample port_dist rng);
      proto = (if Rng.bool rng s.udp_fraction then 17 else 6);
    }
  in
  let data = max 1 (s.data_packets rng) in
  let lo, hi = s.payload in
  let plen = Rng.int_in rng lo hi in
  let tcp = tuple.Sb_flow.Five_tuple.proto = 6 in
  let close =
    if not tcp then Sb_trace.Workload.Stay_open
    else
      let u = Rng.float rng in
      if u < s.rst_fraction then Sb_trace.Workload.Rst
      else if u < s.rst_fraction +. s.abandon_fraction then Sb_trace.Workload.Stay_open
      else Sb_trace.Workload.Fin
  in
  let token = if Rng.bool rng s.token_fraction then Some (Rng.choice rng tokens) else None in
  let fid = Sb_flow.Fid.of_tuple ~bits:fid_bits tuple in
  let total = data + if tcp then 1 else 0 in
  let f = { tuple; fid; next = 0; total; plen; close; token; shared = false } in
  (* Another flow still holding this fid shares its classifier slot with
     this one: from here on, the packets of both are marked. *)
  let held = holders_of t fid in
  if held <> [] then begin
    t.collisions <- t.collisions + 1;
    if t.first_collision = max_int then t.first_collision <- t.emitted;
    f.shared <- true;
    List.iter (fun g -> g.shared <- true) held
  end;
  Hashtbl.replace t.holders fid (f :: held);
  f

let create ?expiry_packets spec seed =
  let rng = Rng.create seed in
  let pool = String.init 65536 (fun _ -> Char.chr (32 + Rng.int rng 95)) in
  {
    spec;
    rng;
    pool;
    slots = Array.make spec.concurrency None;
    order = Array.init spec.concurrency Fun.id;
    open_slots = 0;
    round = 0;
    pos = max_int;
    salt = Rng.int rng 0x1000000;
    emitted = 0;
    flows_started = 0;
    holders = Hashtbl.create 4096;
    lingering = Queue.create ();
    collisions = 0;
    first_collision = max_int;
    (* Expiry is swept lazily, so an abandoned flow is taken to hold its
       fid for twice the idle timeout: a wider margin only marks more
       packets. *)
    linger_packets = Option.map (fun w -> 2 * w) expiry_packets;
  }

let payload t f k =
  let off = ((f.fid * 7919) + (k * 131)) land 0xffff in
  let off = if off + f.plen > String.length t.pool then 0 else off in
  let s = String.sub t.pool off f.plen in
  match f.token with
  | Some tok when String.length tok <= f.plen ->
      let b = Bytes.of_string s in
      Bytes.blit_string tok 0 b ((k * 13) mod (f.plen - String.length tok + 1)) (String.length tok);
      Bytes.unsafe_to_string b
  | _ -> s

(* Render flow [f]'s next packet (and advance it). *)
let render t f =
  let { Sb_flow.Five_tuple.src_ip = src; dst_ip = dst; src_port; dst_port; proto } = f.tuple in
  let k = f.next in
  f.next <- k + 1;
  let last = f.next = f.total in
  if proto = 17 then Packet.udp ~payload:(payload t f k) ~src ~dst ~src_port ~dst_port ()
  else if k = 0 then Packet.tcp ~flags:Tcp.Flags.syn ~src ~dst ~src_port ~dst_port ()
  else
    let flags =
      if not last then Tcp.Flags.ack
      else
        match f.close with
        | Sb_trace.Workload.Fin -> Tcp.Flags.fin_ack
        | Rst -> Tcp.Flags.rst
        | Stay_open -> Tcp.Flags.ack
    in
    Packet.tcp ~payload:(payload t f k) ~flags ~seq:(Int32.of_int k) ~src ~dst ~src_port
      ~dst_port ()

let start_round t =
  let c = t.spec.concurrency in
  t.round <- t.round + 1;
  t.open_slots <- min c (max 1 (c * t.round / ramp_rounds));
  for i = 0 to t.open_slots - 1 do
    if t.slots.(i) = None then t.slots.(i) <- Some (new_flow t);
    t.order.(i) <- i
  done;
  for i = t.open_slots - 1 downto 1 do
    let j = Rng.int t.rng (i + 1) in
    let x = t.order.(i) in
    t.order.(i) <- t.order.(j);
    t.order.(j) <- x
  done;
  t.pos <- 0

(* The next packet, and whether its flow shares its fid. *)
let next t =
  if t.pos >= t.open_slots then start_round t;
  let slot = t.order.(t.pos) in
  t.pos <- t.pos + 1;
  match t.slots.(slot) with
  | None -> assert false (* every open slot is refilled at round start *)
  | Some f ->
      let p = render t f in
      p.Packet.ingress_cycle <- t.emitted * gap_cycles;
      if f.next = f.total then begin
        t.slots.(slot) <- None;
        if f.close = Sb_trace.Workload.Stay_open then Queue.push (f, t.emitted) t.lingering
        else release t f
      end;
      (match t.linger_packets with
      | Some w ->
          while
            (not (Queue.is_empty t.lingering)) && snd (Queue.peek t.lingering) + w < t.emitted
          do
            release t (fst (Queue.pop t.lingering))
          done
      | None -> ());
      t.emitted <- t.emitted + 1;
      (p, f.shared)

(* Frames, rendered a chunk at a time into one off-heap arena: frame [i]
   occupies [stride] bytes from [i * stride]. *)
type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type frames = {
  data : bigstring;
  stride : int;
  len : int array;
  cycle : int array;  (** ingress cycle *)
  shared : bool array;  (** the frame's flow shares its fid *)
}

external bs_get64 : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external bs_set64 : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"

let frames spec n =
  let largest = Ethernet.header_size + Ipv4.header_size + Tcp.header_size + snd spec.payload in
  let stride = (largest + 7) land lnot 7 in
  {
    data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (n * stride);
    stride;
    len = Array.make n 0;
    cycle = Array.make n 0;
    shared = Array.make n false;
  }

let length fr = Array.length fr.len

(* Refill [fr] with the next [length fr] packets. *)
let fill t fr =
  for i = 0 to length fr - 1 do
    let p, shared = next t in
    let n = p.Packet.len and b = p.Packet.buf and base = i * fr.stride in
    let w = n land lnot 7 in
    let j = ref 0 in
    while !j < w do
      bs_set64 fr.data (base + !j) (Bytes.get_int64_le b !j);
      j := !j + 8
    done;
    for j = w to n - 1 do
      Bigarray.Array1.unsafe_set fr.data (base + j) (Bytes.get b j)
    done;
    fr.len.(i) <- n;
    fr.cycle.(i) <- p.Packet.ingress_cycle;
    fr.shared.(i) <- shared
  done

(* Frame [i] into [dst], reusing its buffer when large enough: what a NIC
   does when it DMAs a frame into a receive buffer. *)
let load fr i (dst : Packet.t) =
  let n = fr.len.(i) and base = i * fr.stride in
  if Bytes.length dst.Packet.buf < fr.stride then dst.Packet.buf <- Bytes.create fr.stride;
  let b = dst.Packet.buf in
  let j = ref 0 in
  while !j < n do
    Bytes.set_int64_le b !j (bs_get64 fr.data (base + !j));
    j := !j + 8
  done;
  dst.Packet.len <- n;
  dst.Packet.outer <- [];
  dst.Packet.fid <- -1;
  dst.Packet.ingress_cycle <- fr.cycle.(i)

(* The frames as stand-alone packets, for the probes. *)
let packets fr =
  Array.init (length fr) (fun i ->
      let p = Packet.scratch () in
      load fr i p;
      p)

let emitted t = t.emitted
let flows_started t = t.flows_started
let collisions t = t.collisions
let first_collision t = t.first_collision
