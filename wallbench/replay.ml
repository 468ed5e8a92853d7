(* The timed phase and the correctness pass.

   Load model: closed loop.  One sender issues back-to-back bursts of
   [Runtime.default_burst] packets; the runtime is a synchronous
   run-to-completion call with no receive queue, so its closed-loop rate
   is its zero-loss rate and an arrival schedule would only time a queue
   the benchmark invented.  The harness refills each burst's packets from
   the generator's off-heap frame arena ([Gen.load], standing in for NIC
   DMA); that copy, the traffic generator and the output digests run
   between timed calls and are not charged to the program.  Program time
   is the time inside [Runtime.process_burst_into]. *)

open Speedybox
module P = Sb_packet.Packet

let burst = Runtime.default_burst

(* Packets per chunk: what the generator renders at a time, and the
   stretch between two allocation fences.  A multiple of [burst], so
   every timed call carries a full burst. *)
let chunk = 16_384
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let nproc = Domain.recommended_domain_count ()

let ok spec = function Ok f -> f | Error e -> failwith ("chain spec " ^ spec ^ ": " ^ e)

let single ?idle_timeout_cycles ~mode spec =
  let build = ok spec (Sb_experiments.Chain_registry.build spec) in
  Runtime.create (Runtime.config ~mode ?idle_timeout_cycles ()) (build ())

(* A shard plan over a shared state store, for the shard-layer probes. *)
let plan ?idle_timeout_cycles ?obs ~shards spec =
  let store = Sb_state.Store.create ~shards () in
  let build = ok spec (Sb_experiments.Chain_registry.build_sharded ~store spec) in
  let cfg = Runtime.config ~state:store ?idle_timeout_cycles ?obs () in
  (Sb_shard.Sharded.create ~shards cfg build, store)

(* The deployment a workload measures: its chain and runtime.  This is
   exactly what [setup_s] times. *)
let deploy (w : Workload.t) =
  single ?idle_timeout_cycles:(Workload.idle_timeout_cycles w) ~mode:Runtime.Speedybox
    w.Workload.spec

(* Hash of [b]'s bytes [lo, hi), folded into [h]. *)
let hash_range b lo hi h =
  let h = ref h and i = ref lo in
  while !i + 8 <= hi do
    h := (!h * 0x100000001b3) lxor Int64.to_int (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  while !i < hi do
    h := (!h * 31) lxor Char.code (Bytes.unsafe_get b !i);
    incr i
  done;
  !h

(* Output digest: 0 for a dropped packet, an odd hash of the frame bytes
   for a forwarded one, so verdict and frame compare in one int. *)
let digest (v : Sb_mat.Header_action.verdict) (p : P.t) =
  match v with
  | Sb_mat.Header_action.Dropped -> 0
  | Sb_mat.Header_action.Forwarded ->
      let n = p.P.len in
      (hash_range p.P.buf 0 n (n lxor 0x2545f491) lsl 1) lor 1

(* The same, with the fields a NAT port shift moves left out: the L4
   source port (the NAT's allocation), the IPv4 destination (the
   balancer's backend, chosen by a hash of the translated tuple) and the
   two checksums that cover them.  Every other byte, the verdict and the
   frame length still count. *)
let masked_digest (v : Sb_mat.Header_action.verdict) (p : P.t) =
  match v with
  | Sb_mat.Header_action.Dropped -> 0
  | Sb_mat.Header_action.Forwarded ->
      let b = p.P.buf and n = p.P.len in
      let l3 = P.l3_offset p in
      let l4 = l3 + Sb_packet.Ipv4.header_size in
      let l4_sum = l4 + if Bytes.get_uint8 b (l3 + 9) = 17 then 6 else 16 in
      (* no local closure: this runs inside the allocation fence *)
      let h = hash_range b 0 (min (l3 + 10) n) (n lxor 0x5bd1e995) in
      let h = hash_range b (min (l3 + 12) n) (min (l3 + 16) n) h in
      let h = hash_range b (min (l3 + 20) n) (min l4 n) h in
      let h = hash_range b (min (l4 + 2) n) (min l4_sum n) h in
      let h = hash_range b (min (l4_sum + 2) n) n h in
      (h lsl 1) lor 1

(* Everything the timed phase records.  Counters on the hot side (the
   [emit] callback) are single stores or adds. *)
type timed = {
  mutable packets : int;  (** timed packets *)
  mutable program_ns : int;
  bursts_ns : Buf.floats;  (** per-call wall time *)
  mutable fast_ns : int;
  mutable fast_pkts : int;
  mutable slow_ns : int;
  mutable slow_pkts : int;  (** packets in bursts that held a slow-path packet *)
  mutable slow_path : int;
  mutable fast_path : int;
  mutable faulted : int;
  mutable raised : int;
  mutable model_cycles : int;
  mutable warm_packets : int;
  digests : Buf.ints;  (** per-packet output digest, warm and timed *)
  masked : Buf.ints;  (** per-packet [masked_digest], on chains with a NAT *)
  mutable active_peak : int;
  mutable rules_peak : int;
  mutable flows_started : int;
  mutable collisions : int;
  mutable first_collision : int;  (** index of the first packet a collision can touch *)
  mutable alloc_quick : float;  (** main-domain minor bytes, [Gc.minor_words] *)
  mutable heap_peak_words : int;  (** peak major heap up to [heap_packets] timed packets *)
  mutable heap_end_words : int;  (** peak major heap over the whole run *)
  mutable harness_words : int;  (** live heap words of the generator and frame arena *)
}

let fresh_timed () =
  {
    packets = 0;
    program_ns = 0;
    bursts_ns = Buf.floats ();
    fast_ns = 0;
    fast_pkts = 0;
    slow_ns = 0;
    slow_pkts = 0;
    slow_path = 0;
    fast_path = 0;
    faulted = 0;
    raised = 0;
    model_cycles = 0;
    warm_packets = 0;
    digests = Buf.ints ();
    masked = Buf.ints ();
    active_peak = 0;
    rules_peak = 0;
    flows_started = 0;
    collisions = 0;
    first_collision = max_int;
    alloc_quick = 0.;
    heap_peak_words = 0;
    heap_end_words = 0;
    harness_words = 0;
  }

(* The heap figure is the peak up to a fixed point of the stream, the
   first [heap_packets] timed packets (64 chunks), not the whole run: the
   chains keep some state per flow ever seen, so the peak grows with the
   packets a run gets through, and that would make a figure of the whole
   run move with the host's speed. *)
let heap_packets = 64 * chunk

(* Occupancy high-water marks, sampled at chunk boundaries. *)
let sample_peaks tm rt =
  let active = Classifier.active_flows (Runtime.classifier rt) in
  let rules = Sb_mat.Global_mat.flow_count (Runtime.global_mat rt) in
  if active > tm.active_peak then tm.active_peak <- active;
  if rules > tm.rules_peak then tm.rules_peak <- rules

(* One chunk through the runtime.  [timed] selects whether bursts are
   clocked and accounted (warm-up chunks run the identical loop). *)
let run_chunk tm rt scratch verdicts outputs frames ~nat ~timed =
  let slow = ref false in
  let emit k (out : Runtime.output) =
    verdicts.(k) <- out.Runtime.verdict;
    outputs.(k) <- out.Runtime.packet;
    (match out.Runtime.path with
    | Runtime.Slow_path ->
        slow := true;
        tm.slow_path <- tm.slow_path + 1
    | Runtime.Fast_path -> tm.fast_path <- tm.fast_path + 1);
    if out.Runtime.faults > 0 then tm.faulted <- tm.faulted + 1;
    tm.model_cycles <- tm.model_cycles + out.Runtime.latency_cycles
  in
  let n = Gen.length frames in
  let off = ref 0 in
  while !off < n do
    let len = min burst (n - !off) in
    for k = 0 to len - 1 do
      Gen.load frames (!off + k) scratch.(k);
      verdicts.(k) <- Sb_mat.Header_action.Dropped;
      outputs.(k) <- scratch.(k)
    done;
    slow := false;
    let t0 = now_ns () in
    (try Runtime.process_burst_into rt scratch ~off:0 ~len emit
     with _ -> tm.raised <- tm.raised + len);
    let dt = now_ns () - t0 in
    if timed then begin
      tm.packets <- tm.packets + len;
      tm.program_ns <- tm.program_ns + dt;
      Buf.push tm.bursts_ns (float_of_int dt);
      if !slow then begin
        tm.slow_ns <- tm.slow_ns + dt;
        tm.slow_pkts <- tm.slow_pkts + len
      end
      else begin
        tm.fast_ns <- tm.fast_ns + dt;
        tm.fast_pkts <- tm.fast_pkts + len
      end
    end;
    for k = 0 to len - 1 do
      Buf.push_int tm.digests (digest verdicts.(k) outputs.(k));
      if nat then Buf.push_int tm.masked (masked_digest verdicts.(k) outputs.(k))
    done;
    off := !off + len;
    (* Drain the event ring now and then, between timed calls, so it
       cannot overflow inside a chunk. *)
    if !off land 1023 = 0 then Gcev.poll ()
  done

(* Warm-up then the timed phase, for [seconds] of wall time.  Returns the
   record and the generator (positioned just after the timed packets, so
   probes can draw fresh packets that continue the same stream). *)
let run (w : Workload.t) rt ~seed ~seconds =
  let tm = fresh_timed () in
  let gen =
    Gen.create ?expiry_packets:(Workload.idle_timeout_packets w) w.Workload.traffic seed
  in
  let frames = Gen.frames w.Workload.traffic chunk in
  let nat = Workload.has_nat w in
  let scratch = Array.init burst (fun _ -> P.scratch ()) in
  let verdicts = Array.make burst Sb_mat.Header_action.Dropped in
  let outputs = Array.copy scratch in
  while Gen.emitted gen < w.Workload.warm do
    Gen.fill gen frames;
    run_chunk tm rt scratch verdicts outputs frames ~nat ~timed:false
  done;
  tm.warm_packets <- Gen.emitted gen;
  tm.slow_path <- 0;
  tm.fast_path <- 0;
  tm.model_cycles <- 0;
  Gcev.reset ();
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while now_ns () < t_end do
    Gen.fill gen frames;
    Gcev.fence ~counting:true;
    let q0 = Gc.minor_words () in
    run_chunk tm rt scratch verdicts outputs frames ~nat ~timed:true;
    tm.alloc_quick <- tm.alloc_quick +. ((Gc.minor_words () -. q0) *. 8.);
    Gcev.fence ~counting:false;
    sample_peaks tm rt;
    if tm.heap_peak_words = 0 && tm.packets >= heap_packets then
      tm.heap_peak_words <- (Gc.quick_stat ()).Gc.top_heap_words
  done;
  tm.heap_end_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  if tm.heap_peak_words = 0 then tm.heap_peak_words <- tm.heap_end_words;
  tm.harness_words <- Obj.reachable_words (Obj.repr (gen, frames));
  tm.flows_started <- Gen.flows_started gen;
  tm.collisions <- Gen.collisions gen;
  tm.first_collision <- Gen.first_collision gen;
  (tm, gen)

(* Timing windows: consecutive stretches of [window_calls] timed calls
   (32768 packets).  A window holds enough calls for a 99th percentile
   with ten calls beyond it, and the slowest workload still has some 60
   windows in a 25 s run, so a median across windows is not one window's
   luck. *)
let window_calls = 1024

type windows = {
  ns_per_pkt : float array;  (** program time per packet *)
  p50 : float array;  (** median call time *)
  p99 : float array;  (** 99th-percentile call time *)
}

let windows tm =
  let n = Buf.length tm.bursts_ns / window_calls in
  let ns_per_pkt = Array.make n 0. and p50 = Array.make n 0. and p99 = Array.make n 0. in
  for i = 0 to n - 1 do
    let calls = Array.init window_calls (fun j -> Buf.get tm.bursts_ns ((i * window_calls) + j)) in
    ns_per_pkt.(i) <- Array.fold_left ( +. ) 0. calls /. float_of_int (window_calls * burst);
    Array.sort Float.compare calls;
    p50.(i) <- Buf.percentile calls 0.5;
    p99.(i) <- Buf.percentile calls 0.99
  done;
  { ns_per_pkt; p50; p99 }

(* The correctness pass: the same stream replayed through a fresh
   Original-mode chain, compared packet by packet against the digests the
   timed run recorded.  The comparison is the one [Equivalence.check]
   makes — verdicts equal, forwarded frames byte-equal (here via a 63-bit
   digest), chain state equal at the end — applied to the timed run's own
   outputs over a streamed trace, which [Equivalence.check] (a
   materialised list, its own two runtimes) cannot hold in memory at this
   flow count.

   Every differing packet counts in [verdict_mismatches] or
   [output_mismatches].  A known defect makes some of them: two live flows
   whose FIDs collide share one consolidated rule.  [unexplained] counts
   the mismatches that defect cannot account for, and is what makes a run
   incorrect:
   - any mismatch before the first packet a collision can touch;
   - after it, any mismatch on a packet of a flow that never shared its
     FID.  On a chain with a NAT, one collision shifts the port of every
     later allocation (and so the balancer's backend), so there those
     packets are compared by [masked_digest]; elsewhere in full. *)
type check = {
  attempted : int;
  verdict_mismatches : int;
  output_mismatches : int;
  unexplained : int;
  shared_packets : int;  (** packets of flows that shared their FID *)
  state_equal : bool;
  original_ns : int;  (** program time of the Original replay, timed packets only *)
  original_pkts : int;
}

(* The timed chain's state, taken right after the timed phase — before any
   probe touches it — so the runtime itself can be dropped before the
   reference chain is built. *)
let state_digest rt = Digest.string (Chain.state_digest (Runtime.chain rt))

let check (w : Workload.t) ~sb_state tm ~seed =
  let gen =
    Gen.create ?expiry_packets:(Workload.idle_timeout_packets w) w.Workload.traffic seed
  in
  let total = tm.warm_packets + tm.packets in
  let frames = Gen.frames w.Workload.traffic chunk in
  let nat = Workload.has_nat w in
  let orig =
    single ?idle_timeout_cycles:(Workload.idle_timeout_cycles w) ~mode:Runtime.Original
      w.Workload.spec
  in
  let scratch = Array.init burst (fun _ -> P.scratch ()) in
  let verdicts = Array.make burst Sb_mat.Header_action.Dropped in
  let outputs = Array.copy scratch in
  let verdict_mismatches = ref 0 and output_mismatches = ref 0 in
  let unexplained = ref 0 and shared_packets = ref 0 in
  let orig_ns = ref 0 in
  let idx = ref 0 in
  while !idx < total do
    Gen.fill gen frames;
    let n = min (Gen.length frames) (total - !idx) in
    let off = ref 0 in
    while !off < n do
      let len = min burst (n - !off) in
      let base = !idx + !off in
      for k = 0 to len - 1 do
        Gen.load frames (!off + k) scratch.(k);
        verdicts.(k) <- Sb_mat.Header_action.Dropped;
        outputs.(k) <- scratch.(k)
      done;
      let t0 = now_ns () in
      Runtime.process_burst_into orig scratch ~off:0 ~len (fun k out ->
          verdicts.(k) <- out.Runtime.verdict;
          outputs.(k) <- out.Runtime.packet);
      if base >= tm.warm_packets then orig_ns := !orig_ns + (now_ns () - t0);
      for k = 0 to len - 1 do
        let i = base + k in
        let e = Buf.get_int tm.digests i and g = digest verdicts.(k) outputs.(k) in
        (* A digest of 0 is a drop, so a mismatch with a 0 on either side
           is a verdict mismatch; otherwise both forwarded different
           frames. *)
        if e <> g then
          if e = 0 || g = 0 then incr verdict_mismatches else incr output_mismatches;
        let shared = frames.Gen.shared.(!off + k) in
        if shared then incr shared_packets;
        let differs =
          if i < tm.first_collision then e <> g
          else if shared then false
          else if nat then Buf.get_int tm.masked i <> masked_digest verdicts.(k) outputs.(k)
          else e <> g
        in
        if differs then incr unexplained
      done;
      off := !off + len
    done;
    idx := !idx + n
  done;
  {
    attempted = total;
    verdict_mismatches = !verdict_mismatches;
    output_mismatches = !output_mismatches;
    unexplained = !unexplained;
    shared_packets = !shared_packets;
    state_equal = String.equal (state_digest orig) sb_state;
    original_ns = !orig_ns;
    original_pkts = tm.packets;
  }
