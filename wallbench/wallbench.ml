(* Wall-clock service-chain benchmark.

     wallbench --workload NAME --seed N --seconds S --trace 0|1

   For the named workload: build the deployment (timed, many times:
   [setup_s]), generate the traffic stream from the seed, warm the
   runtime with a discarded stretch of it, then replay it for S seconds
   of wall time through the public datapath API (see [Replay]).  The
   same stream then goes through a fresh Original-mode chain and every
   packet's verdict and output frame are compared with what the timed run
   produced.  With [--trace 1] the per-layer probes ([Probe]) run after
   all of that and their figures are reported instead of the end-to-end
   ones.  Human-readable detail goes first; the last line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

let usage = "wallbench --workload NAME --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("wallbench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N traffic seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %S (usage: %s)" a usage)
    usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S; known: %s" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (w, !seed, !seconds, !trace = 1)

(* [setup_s] comes from [setup_batches] batches of [setup_reps] builds
   each, the batches [setup_gap_s] apart: each batch gives its median
   build, and the run reports the batch at the 90th percentile from the
   fast end.  One build takes 30-180 us, and a co-tenant's load moves it
   by up to half for seconds at a time, so that within one run the batch
   medians often fall into two levels; the slow one is the level that
   repeats from run to run, and spreading the batches over a few seconds
   lets each run reach it.  All
   of it runs before the traffic, while the heap is small, because every
   build is preceded by a full major collection: that reclaims the
   previous build, so each one lands on recycled memory instead of timing
   the page faults of fresh memory. *)
let setup_reps = 15
let setup_batches = 12
let setup_gap_s = 0.25

(* One batch of builds: their median time, and the last build. *)
let setup_batch w =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    Gc.full_major ();
    let t0 = Replay.now_ns () in
    let r = Replay.deploy w in
    times := (float_of_int (Replay.now_ns () - t0) /. 1e9) :: !times;
    last := Some r
  done;
  (Buf.median_of !times, Option.get !last)

let setup w =
  let medians = ref [] and rt = ref None in
  for b = 1 to setup_batches do
    if b > 1 then begin
      let t_end = Replay.now_ns () + int_of_float (setup_gap_s *. 1e9) in
      while Replay.now_ns () < t_end do
        ()
      done
    end;
    let m, r = setup_batch w in
    medians := m :: !medians;
    rt := Some r
  done;
  (List.rev !medians, Option.get !rt)

let json_metric (name, unit, v) =
  if Float.is_finite v then Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  else die "metric %s is not a finite number" name

let () =
  let w, seed, seconds, traced = parse_args () in
  Printf.printf "wallbench: workload=%s seed=%d seconds=%g trace=%d\n" w.Workload.name seed seconds
    (if traced then 1 else 0);
  Printf.printf "  why: %s\n" w.Workload.why;
  Printf.printf
    "  nproc=%d shards=1 (shard-layer probes: %d) burst=%d chain=%s idle_timeout_packets=%s\n"
    Replay.nproc Replay.nproc Replay.burst w.Workload.spec
    (match Workload.idle_timeout_packets w with Some p -> string_of_int p | None -> "off");
  (* setup: the whole deployment, built many times; the run uses the
     last build *)
  let phase_s t = float_of_int (Replay.now_ns () - t) /. 1e9 in
  let wall_setup = Replay.now_ns () in
  let setup_medians, rt = setup w in
  let setup_wall = phase_s wall_setup in
  let wall0 = Replay.now_ns () in
  let tm, gen = Replay.run w rt ~seed ~seconds in
  let run_s = phase_s wall0 in
  let sb_state = Replay.state_digest rt in
  let packets = tm.Replay.packets in
  let sorted = Buf.sorted tm.Replay.bursts_ns in
  let win = Replay.windows tm in
  let windows = Buf.sort_copy win.Replay.ns_per_pkt in
  (* Timing figures are taken per window (see [Replay.window_calls]):
     each window gives its program time per packet and its median and
     99th-percentile call time, and the run reports the median window of
     each.  The median over a run's windows ignores the stretches a
     co-tenant on the shared host slows by up to twofold, as long as they
     cover less than half the run, and it does not move with how long the
     run is; a change to the program moves every window. *)
  let median a = Buf.percentile (Buf.sort_copy a) 0.5 in
  let alloc = float_of_int (Gcev.alloc_bytes ()) in
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576. in
  let e2e =
    [
      ("throughput_mpps", "Mpps", 1e3 /. median win.Replay.ns_per_pkt);
      ("burst_p50_us", "us", median win.Replay.p50 /. 1e3);
      ("burst_p99_us", "us", median win.Replay.p99 /. 1e3);
      ("alloc_b_per_pkt", "B", alloc /. float_of_int (max 1 packets));
      ("heap_peak_mb", "MB", mb tm.Replay.heap_peak_words);
    ]
  in
  Printf.printf "  windows=%d program ns/pkt p10=%.1f p50=%.1f p90=%.1f run-wide mean=%.1f\n"
    (Array.length windows) (Buf.percentile windows 0.1) (Buf.percentile windows 0.5)
    (Buf.percentile windows 0.9)
    (float_of_int tm.Replay.program_ns /. float_of_int (max 1 packets));
  Printf.printf "  timed: packets=%d program_s=%.3f warm_packets=%d flows_started=%d\n" packets
    (float_of_int tm.Replay.program_ns /. 1e9)
    tm.Replay.warm_packets tm.Replay.flows_started;
  Printf.printf
    "  samples: %d process_burst_into calls of %d packets in %d windows of %d calls \
     (each metric: its median window); run-wide: \
     %.4f Mpps, call p50=%.2fus p99=%.2fus\n"
    (Array.length sorted) Replay.burst (Array.length windows) Replay.window_calls
    (float_of_int packets *. 1e3 /. float_of_int (max 1 tm.Replay.program_ns))
    (Buf.percentile sorted 0.5 /. 1e3)
    (Buf.percentile sorted 0.99 /. 1e3);
  Printf.printf
    "  heap: peak=%.2f MB over the first %d timed packets (whole run: %.2f MB), of which \
     harness (generator, frame arena) live=%.2f MB\n"
    (mb tm.Replay.heap_peak_words) (min packets Replay.heap_packets)
    (mb tm.Replay.heap_end_words) (mb tm.Replay.harness_words);
  (* allocation cross-check: the event ring against Gc.quick_stat's own
     counter, which is exact only when one domain did all the work *)
  let quick = tm.Replay.alloc_quick in
  Printf.printf
    "  alloc: runtime_events=%.1f B/pkt  Gc.minor_words=%.1f B/pkt  ratio=%.4f  lost_events=%d\n"
    (alloc /. float_of_int (max 1 packets))
    (quick /. float_of_int (max 1 packets))
    (if quick = 0. then nan else alloc /. quick)
    (Gcev.lost ());
  List.iter
    (fun (d, a, m, p) ->
      Printf.printf "  domain %d: alloc=%.1f B/pkt minors=%d pause_ms=%.3f\n" d
        (float_of_int a /. float_of_int (max 1 packets))
        m (float_of_int p /. 1e6))
    (Gcev.per_domain ());
  (* per-layer probes (traced run only), on the timed run's warmed tables;
     then the deployment is dropped before the reference chains are built *)
  let layers =
    if not traced then []
    else begin
      let frames = Gen.frames w.Workload.traffic Replay.chunk in
      Gen.fill gen frames;
      let wall2 = Replay.now_ns () in
      let layers = Probe.run { Probe.w; rt; tm; sample = Gen.packets frames } in
      Printf.printf "  phases: probes=%.2fs\n" (phase_s wall2);
      layers
    end
  in
  let wall1 = Replay.now_ns () in
  let chk = Replay.check w ~sb_state tm ~seed in
  Printf.printf "  phases: setup=%.2fs warm+timed=%.2fs correctness=%.2fs\n" setup_wall run_s
    (phase_s wall1);
  let setup_s = Buf.percentile (Buf.sort_copy (Array.of_list setup_medians)) 0.9 in
  Printf.printf "  setup: %d batches of %d builds, batch medians (us): %s\n" setup_batches
    setup_reps
    (String.concat " " (List.map (fun v -> Printf.sprintf "%.1f" (v *. 1e6)) setup_medians));
  let e2e = e2e @ [ ("setup_s", "s", setup_s) ] in
  List.iter (fun (n, u, v) -> Printf.printf "  %-18s %14.6g %s\n" n v u) e2e;
  let mism = chk.Replay.verdict_mismatches + chk.Replay.output_mismatches in
  let differing = min chk.Replay.attempted (mism + tm.Replay.faulted + tm.Replay.raised) in
  let collided = tm.Replay.collisions > 0 in
  (* [failed] counts the packets the program got wrong for any reason
     other than the known FID-collision defect: faults, raises, and
     mismatches the defect cannot account for (see [Replay.check]).  Any
     of them also makes the run incorrect.  The defect's own mismatches
     are not failures of this run's check; they are printed on every run,
     in [fail_frac] (every packet that differs from Original) and in the
     KNOWN DEFECT line.  The end state can match only in a run without a
     collision. *)
  let failed =
    min chk.Replay.attempted (chk.Replay.unexplained + tm.Replay.faulted + tm.Replay.raised)
  in
  let correct =
    tm.Replay.faulted = 0 && tm.Replay.raised = 0 && chk.Replay.unexplained = 0
    && (chk.Replay.state_equal || collided)
  in
  Printf.printf
    "  correctness vs Original: attempted=%d verdict_mismatches=%d output_mismatches=%d \
     unexplained=%d faulted=%d raised=%d state_equal=%b\n"
    chk.Replay.attempted chk.Replay.verdict_mismatches chk.Replay.output_mismatches
    chk.Replay.unexplained tm.Replay.faulted tm.Replay.raised chk.Replay.state_equal;
  Printf.printf
    "  fid collisions=%d first at packet %s; packets of flows that shared a fid=%d (%s \
     comparison after it)\n"
    tm.Replay.collisions
    (if collided then string_of_int tm.Replay.first_collision else "-")
    chk.Replay.shared_packets
    (if Workload.has_nat w then "masked" else "full");
  Printf.printf "  fail_frac=%.6f (%d of %d packets differ from Original; %d outside the defect)\n"
    (float_of_int differing /. float_of_int (max 1 chk.Replay.attempted))
    differing chk.Replay.attempted failed;
  if mism > 0 && collided then
    Printf.printf
      "  KNOWN DEFECT: %d flows started while another live flow held the same %d-bit FID; \
       such flows take each other's consolidated rules, so their outputs diverge from \
       Original: %d packets here.  Reported in fail_frac, not counted in failed.\n"
      tm.Replay.collisions Gen.fid_bits (mism - chk.Replay.unexplained);
  let metrics =
    if not traced then e2e
    else begin
      (* chain: the correctness pass's Original replay of the timed
         packets, in wall clock, against the timed run *)
      let orig_ns =
        float_of_int chk.Replay.original_ns /. float_of_int (max 1 chk.Replay.original_pkts)
      in
      let sb_ns = float_of_int tm.Replay.program_ns /. float_of_int (max 1 packets) in
      let layers =
        layers
        @ [
            ("chain.original_ns_per_pkt", "ns", orig_ns);
            ("chain.speedup_vs_original", "ratio", orig_ns /. sb_ns);
          ]
      in
      List.iter (fun (n, u, v) -> Printf.printf "  %-32s %14.6g %s\n" n v u) layers;
      layers
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    chk.Replay.attempted failed
    (String.concat ", " (List.map json_metric metrics))
