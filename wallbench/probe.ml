(* Per-layer figures for the traced run, measured outside-in: each probe
   times calls into one module's public functions over a sample of the
   workload's own packets (the chunk that follows the timed phase in the
   same stream).  Clocks are read around whole bursts or whole passes,
   never around single packets.  Probes run after the timed phase, so no
   probe (nor the armed observability sink) rides on a timed figure. *)

open Speedybox
module P = Sb_packet.Packet
module Sharded = Sb_shard.Sharded

let burst = Replay.burst
let now_ns = Replay.now_ns

(* ns per packet of [f off len] over [n] packets in bursts, clock read
   around each burst. *)
let per_burst n f =
  let total = ref 0 in
  let off = ref 0 in
  while !off < n do
    let len = min burst (n - !off) in
    let t0 = now_ns () in
    f !off len;
    total := !total + (now_ns () - t0);
    off := !off + len
  done;
  !total

let ns_per n total = if n = 0 then 0. else float_of_int total /. float_of_int n

(* Pure probes: one discarded pass, then the reported one, clocked once
   around the whole pass so the clock's own cost is spread over every
   packet of the sample. *)
let warmed pass =
  pass ();
  let t0 = now_ns () in
  pass ();
  now_ns () - t0

let copies sample = Array.map P.copy sample

let pass_ns f =
  let t0 = now_ns () in
  f ();
  now_ns () - t0

type ctx = {
  w : Workload.t;
  rt : Runtime.t;  (** the timed runtime, warmed by the run *)
  tm : Replay.timed;
  sample : P.t array;
}

let nf_kinds = [ "mazunat"; "maglev"; "monitor"; "ipfilter"; "snort" ]

(* The workload's own spelling of an NF (e.g. its ipfilter's denied
   port), or the bare kind for NFs outside its chain. *)
let nf_spec (w : Workload.t) kind =
  String.split_on_char ',' w.Workload.spec
  |> List.find_opt (fun s -> s = kind || String.starts_with ~prefix:(kind ^ ":") s)
  |> Option.value ~default:kind

let in_chain (w : Workload.t) kind =
  List.exists
    (fun s -> s = kind || String.starts_with ~prefix:(kind ^ ":") s)
    (String.split_on_char ',' w.Workload.spec)

let run c =
  let out = ref [] in
  let add name unit v = out := (name, unit, v) :: !out in
  let sample = c.sample in
  let n = Array.length sample in
  let scratch = Array.init burst (fun _ -> P.scratch ()) in
  let tm = c.tm in
  let e2e_ns = ns_per tm.Replay.packets tm.Replay.program_ns in
  (* harness: the timed loop's own cost inside the clocked region — the
     clock pair and one emit per packet — with the program call removed. *)
  let canned =
    let rt = Replay.single ~mode:Runtime.Speedybox "monitor" in
    Runtime.process_packet rt (P.copy sample.(0))
  in
  let verdicts = Array.make burst Sb_mat.Header_action.Dropped in
  let outputs = Array.copy scratch in
  let sink = ref 0 in
  let emit k (o : Runtime.output) =
    verdicts.(k) <- o.Runtime.verdict;
    outputs.(k) <- o.Runtime.packet;
    (match o.Runtime.path with Runtime.Slow_path -> incr sink | Runtime.Fast_path -> ());
    sink := !sink + o.Runtime.latency_cycles
  in
  let floor =
    let total = ref 0 in
    let off = ref 0 in
    while !off < n do
      let len = min burst (n - !off) in
      for k = 0 to len - 1 do
        P.copy_into ~src:sample.(!off + k) ~dst:scratch.(k)
      done;
      let t0 = now_ns () in
      for k = 0 to len - 1 do
        emit k canned
      done;
      total := !total + (now_ns () - t0);
      off := !off + len
    done;
    ns_per n !total
  in
  add "harness.floor_ns_per_pkt" "ns" floor;
  (* packet *)
  let parse =
    warmed (fun () ->
        for k = 0 to n - 1 do
          ignore (Sys.opaque_identity (Sb_flow.Five_tuple.of_packet_opt sample.(k)))
        done)
  in
  add "packet.parse_ns_per_pkt" "ns" (ns_per n parse);
  (* classifier *)
  let cls = Array.init burst (fun _ -> Classifier.scratch ()) in
  let prep_sample = copies sample in
  let classifier = Classifier.create () in
  let prepare =
    warmed (fun () ->
        for k = 0 to n - 1 do
          Classifier.prepare_into classifier prep_sample.(k) cls.(k land (burst - 1))
        done)
  in
  add "classifier.prepare_ns_per_pkt" "ns" (ns_per n prepare);
  let observer = Classifier.create () in
  let observe = ref 0 in
  let off = ref 0 in
  while !off < n do
    let len = min burst (n - !off) in
    for k = 0 to len - 1 do
      Classifier.prepare_into observer prep_sample.(!off + k) cls.(k)
    done;
    let t0 = now_ns () in
    for k = 0 to len - 1 do
      if not cls.(k).Classifier.malformed then
        Classifier.observe_into observer prep_sample.(!off + k) cls.(k)
    done;
    observe := !observe + (now_ns () - t0);
    off := !off + len
  done;
  let observe_ns = ns_per n !observe in
  add "classifier.observe_ns_per_pkt" "ns" observe_ns;
  add "classifier.active_flows_peak" "count" (float_of_int tm.Replay.active_peak);
  add "classifier.rejected" "count" (float_of_int (Classifier.rejected (Runtime.classifier c.rt)));
  (* mat: on the timed run's warmed tables *)
  let fids = Array.map (fun p -> Sb_flow.Fid.of_packet p) sample in
  let gm = Runtime.global_mat c.rt in
  let find =
    warmed (fun () ->
        for k = 0 to n - 1 do
          ignore (Sys.opaque_identity (Sb_mat.Global_mat.find gm fids.(k)))
        done)
  in
  let hits = Array.fold_left (fun a fid -> if Sb_mat.Global_mat.mem gm fid then a + 1 else a) 0 fids in
  let find_ns = ns_per n find in
  add "mat.find_ns_per_pkt" "ns" find_ns;
  add "mat.hit_ratio" "ratio" (if n = 0 then 0. else float_of_int hits /. float_of_int n);
  let rules = Array.map (Sb_mat.Global_mat.find gm) fids in
  let ruled = List.filter (fun k -> Option.is_some rules.(k)) (List.init n Fun.id) |> Array.of_list in
  let nr = Array.length ruled in
  let ruled_rules = Array.map (fun k -> Option.get rules.(k)) ruled in
  let actions = Array.map Sb_mat.Global_mat.rule_action ruled_rules in
  let apply_total = ref 0 in
  let off = ref 0 in
  while !off < nr do
    let len = min burst (nr - !off) in
    for k = 0 to len - 1 do
      P.copy_into ~src:sample.(ruled.(!off + k)) ~dst:scratch.(k)
    done;
    let t0 = now_ns () in
    for k = 0 to len - 1 do
      ignore (Sys.opaque_identity (Sb_mat.Consolidate.apply actions.(!off + k) scratch.(k)))
    done;
    apply_total := !apply_total + (now_ns () - t0);
    off := !off + len
  done;
  add "mat.apply_ns_per_pkt" "ns" (ns_per nr !apply_total);
  (* execute_rule mutates NF state, so it runs last among the probes that
     read the timed run's tables, after its state digest was taken. *)
  let chain = Runtime.chain c.rt in
  let events = Chain.events chain and locals = Chain.local_mats chain in
  let exec_total = ref 0 in
  let w0 = Gc.minor_words () in
  let off = ref 0 in
  while !off < nr do
    let len = min burst (nr - !off) in
    for k = 0 to len - 1 do
      P.copy_into ~src:sample.(ruled.(!off + k)) ~dst:scratch.(k)
    done;
    let t0 = now_ns () in
    for k = 0 to len - 1 do
      ignore
        (Sys.opaque_identity
           (Sb_mat.Global_mat.execute_rule gm events locals fids.(ruled.(!off + k))
              ruled_rules.(!off + k) scratch.(k)))
    done;
    exec_total := !exec_total + (now_ns () - t0);
    off := !off + len
  done;
  let exec_alloc = (Gc.minor_words () -. w0) *. 8. in
  let exec_ns = ns_per nr !exec_total in
  add "mat.execute_ns_per_pkt" "ns" exec_ns;
  add "mat.alloc_b_per_pkt" "B" (if nr = 0 then 0. else exec_alloc /. float_of_int nr);
  add "mat.consolidations_per_flow" "ratio"
    (float_of_int (Sb_mat.Global_mat.consolidation_count gm)
    /. float_of_int (max 1 tm.Replay.flows_started));
  add "mat.evictions" "count" (float_of_int (Sb_mat.Global_mat.evictions gm));
  add "mat.rules_peak" "count" (float_of_int tm.Replay.rules_peak);
  (* runtime *)
  let fast_share =
    float_of_int tm.Replay.fast_path
    /. float_of_int (max 1 (tm.Replay.slow_path + tm.Replay.fast_path))
  in
  add "runtime.fast_share" "ratio" fast_share;
  add "runtime.expired_flows" "count" (float_of_int (Runtime.expired_flows c.rt));
  add "runtime.faulted_packets" "count" (float_of_int tm.Replay.faulted);
  add "runtime.fast_burst_ns_per_pkt" "ns" (ns_per tm.Replay.fast_pkts tm.Replay.fast_ns);
  add "runtime.slow_burst_ns_per_pkt" "ns" (ns_per tm.Replay.slow_pkts tm.Replay.slow_ns);
  add "model.predicted_ns_per_pkt" "ns"
    (float_of_int tm.Replay.model_cycles /. float_of_int (max 1 tm.Replay.packets) /. 2.);
  (* nf: each NF alone, Original mode, over the sample *)
  let walk = Hashtbl.create 8 in
  List.iter
    (fun kind ->
      let rt = Replay.single ~mode:Runtime.Original (nf_spec c.w kind) in
      let total =
        per_burst n (fun off len ->
            for k = 0 to len - 1 do
              P.copy_into ~src:sample.(off + k) ~dst:scratch.(k)
            done;
            Runtime.process_burst_into rt scratch ~off:0 ~len (fun _ _ -> ()))
      in
      (* [per_burst] clocked the refill too; take it back out. *)
      let refill =
        per_burst n (fun off len ->
            for k = 0 to len - 1 do
              P.copy_into ~src:sample.(off + k) ~dst:scratch.(k)
            done)
      in
      let v = ns_per n (max 0 (total - refill)) in
      Hashtbl.replace walk kind v;
      add (Printf.sprintf "nf.%s.walk_ns" kind) "ns" v)
    nf_kinds;
  let automaton = Sb_nf.Aho_corasick.create ~nocase:true [ "attack"; "exploit"; "beacon" ] in
  let bytes = ref 0 in
  let views = Array.map P.payload_bytes sample in
  Array.iter (fun (_, _, l) -> bytes := !bytes + l) views;
  let scan =
    warmed (fun () ->
        for k = 0 to n - 1 do
          let b, o, l = views.(k) in
          ignore (Sys.opaque_identity (Sb_nf.Aho_corasick.scan automaton b o l))
        done)
  in
  add "nf.snort.scan_ns_per_byte" "ns" (ns_per !bytes scan);
  (* coverage: the probed layers a packet crosses, weighted by path *)
  let walk_sum =
    List.fold_left
      (fun a k -> if in_chain c.w k then a +. Hashtbl.find walk k else a)
      0. nf_kinds
  in
  let covered =
    (ns_per n prepare) +. observe_ns +. find_ns +. (fast_share *. exec_ns)
    +. ((1. -. fast_share) *. walk_sum)
  in
  add "runtime.coverage" "ratio" (if e2e_ns = 0. then 0. else covered /. e2e_ns);
  (* shard *)
  let idle_timeout_cycles = Workload.idle_timeout_cycles c.w in
  let list = Array.to_list sample in
  let det shards =
    let p, store = Replay.plan ?idle_timeout_cycles ~shards c.w.Workload.spec in
    let ns = pass_ns (fun () -> ignore (Sharded.run_trace p list)) in
    (p, store, ns_per n ns)
  in
  let _, _, det1 = det 1 in
  let pn, store, detn = det Replay.nproc in
  add "shard.det1_ns_per_pkt" "ns" det1;
  add "shard.detN_ns_per_pkt" "ns" detn;
  add "shard.speedup_vs_det1" "ratio" (if detn = 0. then 0. else det1 /. detn);
  let spawn =
    let p, _ = Replay.plan ?idle_timeout_cycles ~shards:Replay.nproc c.w.Workload.spec in
    let one = Array.to_list (Array.sub sample 0 (min burst n)) in
    Buf.median_of
      (List.init 5 (fun _ ->
           float_of_int (pass_ns (fun () -> ignore (Sb_shard.Parallel_exec.run_trace p one)))
           /. 1e9))
  in
  add "shard.spawn_s" "s" spawn;
  let replay =
    let p, _ = Replay.plan ?idle_timeout_cycles ~shards:Replay.nproc c.w.Workload.spec in
    pass_ns (fun () -> Sharded.absorb_parallel_trace p sample)
  in
  add "shard.replay_ns_per_pkt" "ns" (ns_per n replay);
  let steer =
    warmed (fun () ->
        for k = 0 to n - 1 do
          ignore (Sys.opaque_identity (Sharded.shard_of_packet pn sample.(k)))
        done)
  in
  add "shard.steer_ns_per_pkt" "ns" (ns_per n steer);
  let rows = Sharded.stats pn in
  let loads = List.map (fun r -> float_of_int r.Report.packets) rows in
  let mean = List.fold_left ( +. ) 0. loads /. float_of_int (max 1 (List.length loads)) in
  add "shard.imbalance" "ratio"
    (if mean = 0. then 0. else List.fold_left max 0. loads /. mean);
  (* mesh telemetry: an armed-sink parallel pass, traced run only *)
  let obs = Sb_obs.Sink.create ~metrics:true () in
  let ap, _ = Replay.plan ?idle_timeout_cycles ~obs ~shards:Replay.nproc c.w.Workload.spec in
  ignore (Sb_shard.Parallel_exec.run_trace ap list);
  let shards = Sharded.shard_count ap in
  let misdirected = ref 0 and parks = ref 0 and spins = ref 0 in
  let delay = Sb_obs.Histogram.create () in
  for d = 0 to shards - 1 do
    match Sb_obs.Sink.metrics (Sharded.obs_child ap d) with
    | None -> ()
    | Some m ->
        let chain_label = ("chain", Chain.name (Runtime.chain (Sharded.runtime ap d))) in
        let labels = [ chain_label; ("shard", string_of_int d) ] in
        let counter ?(labels = labels) name =
          Sb_obs.Metrics.Counter.value (Sb_obs.Metrics.counter m ~labels name)
        in
        for s = 0 to shards - 1 do
          if s <> d then
            misdirected :=
              !misdirected
              + counter
                  ~labels:[ chain_label; ("src", string_of_int d); ("dst", string_of_int s) ]
                  "speedybox_mesh_misdirected_total"
        done;
        parks := !parks + counter "speedybox_ring_parks_total";
        spins := !spins + counter "speedybox_ring_spins_total";
        Sb_obs.Histogram.merge_into delay
          (Sb_obs.Metrics.histogram m ~labels "speedybox_mesh_queue_delay_us")
  done;
  add "shard.misdirected_share" "ratio" (float_of_int !misdirected /. float_of_int (max 1 n));
  add "shard.ring_parks" "count" (float_of_int !parks);
  add "shard.ring_spins" "count" (float_of_int !spins);
  add "shard.queue_delay_p50_us" "us"
    (if Sb_obs.Histogram.count delay = 0 then 0. else Sb_obs.Histogram.percentile delay 50.);
  (* state: the deterministic N-shard probe's store, populated by its run *)
  add "state.merge_rounds" "count" (float_of_int (Sb_state.Store.merge_rounds store));
  let merge_us =
    Buf.median_of
      (List.init 21 (fun _ ->
           float_of_int (pass_ns (fun () -> Sb_state.Store.merge_round store)) /. 1e3))
  in
  add "state.merge_round_us" "us" merge_us;
  (* gc: the timed phase's runtime events, every domain *)
  add "gc.minor_per_kpkt" "ratio"
    (float_of_int (Gcev.minors ()) *. 1000. /. float_of_int (max 1 tm.Replay.packets));
  add "gc.major_slices" "count" (float_of_int (Gcev.major_slices ()));
  add "gc.pause_ms_total" "ms" (float_of_int (Gcev.pause_ns ()) /. 1e6);
  add "gc.pause_max_us" "us" (float_of_int (Gcev.pause_max_ns ()) /. 1e3);
  List.rev !out
