type mode = Original | Speedybox

let pp_mode fmt m =
  Format.pp_print_string fmt (match m with Original -> "Original" | Speedybox -> "SpeedyBox")

type config = {
  platform : Sb_sim.Platform.t;
  mode : mode;
  policy : Sb_mat.Parallel.policy;
  fid_bits : int;
  idle_timeout_cycles : int option;
  max_rules : int option;
  fastpath : Sb_mat.Global_mat.exec_mode;
  fault_policy : Sb_fault.Health.policy;
  injector : Sb_fault.Injector.t option;
  obs : Sb_obs.Sink.t;
  verify_checksums : bool;
  state : Sb_state.Store.t;
      (* the chain's declared-cell state store; shared across shard
         runtimes in a sharded deployment, private otherwise *)
}

let config ?(platform = Sb_sim.Platform.Bess) ?(mode = Speedybox)
    ?(policy = Sb_mat.Parallel.Table_one) ?(fid_bits = Sb_flow.Fid.default_bits)
    ?idle_timeout_cycles ?max_rules ?(fastpath = Sb_mat.Global_mat.Compiled)
    ?(fault_policy = Sb_fault.Health.default_policy) ?injector
    ?(obs = Sb_obs.Sink.null) ?(verify_checksums = false) ?state () =
  let state =
    match state with Some s -> s | None -> Sb_state.Store.create ~shards:1 ()
  in
  {
    platform;
    mode;
    policy;
    fid_bits;
    idle_timeout_cycles;
    max_rules;
    fastpath;
    fault_policy;
    injector;
    obs;
    verify_checksums;
    state;
  }

(* Hot-path metric instruments, resolved against the registry once at
   construction so per-packet recording is field updates only — the
   registry's hashtable is never touched while packets flow. *)
type instruments = {
  c_slow : Sb_obs.Metrics.Counter.t;
  c_fast : Sb_obs.Metrics.Counter.t;
  c_forwarded : Sb_obs.Metrics.Counter.t;
  c_dropped : Sb_obs.Metrics.Counter.t;
  h_latency_slow : Sb_obs.Histogram.t;
  h_latency_fast : Sb_obs.Histogram.t;
  h_sojourn : Sb_obs.Histogram.t option;
      (* per-shard end-to-end sojourn, resolved only when the sink is a
         split child (carries a shard index) *)
}

type t = {
  cfg : config;
  chain : Chain.t;
  global : Sb_mat.Global_mat.t;
  classifier : Classifier.t;
  sup : Sb_fault.Supervisor.t;
  nf_names : string array;
  live : Sb_flow.Live_table.t;
      (* idle-expiry bookkeeping, SoA: the per-packet liveness touch is
         one probe plus one int-lane store, no boxed record per flow *)
  wheel : Sb_flow.Timer_wheel.t option;  (* Some iff idle expiry is on *)
  mutable expired : int;
  mutable live_epoch : int;  (* next incarnation tag for [live] entries *)
  ins : instruments option;  (* Some iff cfg.obs carries a metrics registry *)
  mutable obs_now_us : float;  (* simulated clock for hooks without a packet
                                  in hand (the LRU-eviction callback) *)
  cls : Classifier.classification;  (* the datapath's classification scratch *)
  mutable memo_fid : Sb_flow.Fid.t;  (* last-flow rule memo, see [resolve] *)
  mutable memo_gen : int;
  mutable memo_rule : Sb_mat.Global_mat.rule option;
  mutable fault_listener : (string -> unit) option;
      (* notified after every locally-recorded fault — how a sharded
         runtime broadcasts NF health changes to its sibling shards *)
}

(* A Failed NF invalidates every consolidated rule embedding its closures:
   tear the whole fast path down (flows re-record under the failure
   policy).  Local MAT records and events go with each rule so no stale
   per-NF state survives the failure. *)
let flush_fast_state t =
  let fids = Sb_mat.Global_mat.fold (fun fid _ acc -> fid :: acc) t.global [] in
  List.iter
    (fun fid ->
      Chain.remove_flow t.chain fid;
      Sb_mat.Global_mat.remove_flow t.global fid)
    fids

let note_fault t ~nf =
  (match Sb_fault.Supervisor.record_fault t.sup ~nf with
  | Sb_fault.Health.To_failed -> flush_fast_state t
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ());
  match t.fault_listener with Some f -> f nf | None -> ()

let set_fault_listener t f = t.fault_listener <- Some f

(* A fault another shard recorded (and already counted): keep this
   runtime's view of the NF's health in lock-step, including the fast-path
   flush when the NF crosses into [Failed], without re-emitting metrics or
   re-notifying the listener (which would echo the broadcast forever). *)
let absorb_remote_fault t ~nf =
  match Sb_fault.Supervisor.absorb_fault t.sup ~nf with
  | Sb_fault.Health.To_failed -> flush_fast_state t
  | Sb_fault.Health.To_degraded | Sb_fault.Health.No_change -> ()

(* Flow-timeline hook.  Callers on the per-packet path guard with
   [Sb_obs.Sink.armed] first; every call site is on the slow path or a
   rare-event path, so the unarmed fast path never reaches here. *)
let obs_timeline t ~fid ~ts_us ?detail kind =
  if fid >= 0 then
    match Sb_obs.Sink.timeline t.cfg.obs with
    | Some tl -> Sb_obs.Timeline.record tl ~fid ~ts_us ?detail kind
    | None -> ()

let create cfg chain =
  (match Sb_sim.Platform.max_chain_length cfg.platform with
  | Some limit when Chain.length chain > limit ->
      invalid_arg
        (Printf.sprintf "Runtime.create: %s supports at most %d NFs (chain %s has %d)"
           (Sb_sim.Platform.name cfg.platform)
           limit (Chain.name chain) (Chain.length chain))
  | Some _ | None -> ());
  (* The eviction callback is built before [t] exists but must reach the
     timeline with the current simulated clock; the cell is pointed at the
     real hook once [t] is constructed. *)
  let evict_hook = ref (fun (_ : Sb_flow.Fid.t) -> ()) in
  let ins =
    match Sb_obs.Sink.metrics cfg.obs with
    | None -> None
    | Some m ->
        let chain_label = ("chain", Chain.name chain) in
        let packets path =
          Sb_obs.Metrics.counter m
            ~help:"Packets processed, by execution path"
            ~labels:[ chain_label; ("path", path) ]
            "speedybox_packets_total"
        in
        let verdicts v =
          Sb_obs.Metrics.counter m
            ~help:"Packet verdicts leaving the chain"
            ~labels:[ chain_label; ("verdict", v) ]
            "speedybox_verdicts_total"
        in
        let latency path =
          Sb_obs.Metrics.histogram m
            ~help:"Per-packet processing latency in microseconds"
            ~labels:[ chain_label; ("path", path) ]
            "speedybox_packet_latency_us"
        in
        let sojourn =
          (* Only a split child sink carries a shard index: per-shard
             sojourn series exist exactly when the run is sharded. *)
          match Sb_obs.Sink.shard cfg.obs with
          | s when s < 0 -> None
          | s ->
              Some
                (Sb_obs.Metrics.histogram m
                   ~help:"Per-packet sojourn on this shard in microseconds"
                   ~labels:[ chain_label; ("shard", string_of_int s) ]
                   "speedybox_shard_sojourn_us")
        in
        Some
          {
            c_slow = packets "slow";
            c_fast = packets "fast";
            c_forwarded = verdicts "forwarded";
            c_dropped = verdicts "dropped";
            h_latency_slow = latency "slow";
            h_latency_fast = latency "fast";
            h_sojourn = sojourn;
          }
  in
  let t =
    {
      cfg;
      chain;
      global =
        Sb_mat.Global_mat.create ~policy:cfg.policy ?max_rules:cfg.max_rules
          ~exec:cfg.fastpath ~obs:cfg.obs
          (* an LRU-evicted flow loses its Local MAT records too, so its next
             packet re-records from scratch *)
          ~on_evict:(fun fid ->
            Chain.remove_flow chain fid;
            !evict_hook fid)
          ();
      classifier =
        Classifier.create ~fid_bits:cfg.fid_bits ~verify_checksums:cfg.verify_checksums ();
      sup = Sb_fault.Supervisor.create ?injector:cfg.injector ~obs:cfg.obs cfg.fault_policy;
      nf_names = Array.of_list (List.map (fun nf -> nf.Nf.name) (Chain.nfs chain));
      live = Sb_flow.Live_table.create ();
      wheel =
        (match cfg.idle_timeout_cycles with
        | None -> None
        | Some timeout ->
            Some
              (Sb_flow.Timer_wheel.create
                 ~tick_shift:(Sb_flow.Timer_wheel.tick_shift_for_timeout timeout)));
      expired = 0;
      live_epoch = 0;
      ins;
      obs_now_us = 0.;
      cls = Classifier.scratch ();
      memo_fid = -1;
      memo_gen = -1;
      memo_rule = None;
      fault_listener = None;
    }
  in
  if Sb_obs.Sink.armed cfg.obs then begin
    Sb_mat.Event_table.set_obs (Chain.events chain) cfg.obs;
    evict_hook := fun fid -> obs_timeline t ~fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Evicted
  end;
  (* Raising event conditions are contained inside the Event Table; route
     them here so they still advance the registering NF's health. *)
  Sb_mat.Event_table.set_fault_hook (Chain.events chain) (fun nf _exn ->
      Sb_fault.Supervisor.record_contained t.sup;
      note_fault t ~nf);
  t

let chain t = t.chain

let state t = t.cfg.state

let global_mat t = t.global

let classifier t = t.classifier

let supervisor t = t.sup

let expired_flows t = t.expired

let rejected_malformed t = Classifier.rejected t.classifier

type path = Slow_path | Fast_path

type output = {
  verdict : Sb_mat.Header_action.verdict;
  packet : Sb_packet.Packet.t;
  profile : Sb_sim.Cost_profile.t;
  path : path;
  latency_cycles : int;
  service_cycles : int;
  events_fired : int;
  faults : int;
}

let flip_verdict = function
  | Sb_mat.Header_action.Forwarded -> Sb_mat.Header_action.Dropped
  | Sb_mat.Header_action.Dropped -> Sb_mat.Header_action.Forwarded

let injected_raise t name =
  let call =
    match Sb_fault.Supervisor.injector t.sup with
    | Some inj -> Sb_fault.Injector.calls inj ~nf:name
    | None -> 0
  in
  Sb_fault.Injector.Injected (name, call)

type walk = {
  w_verdict : Sb_mat.Header_action.verdict;
  w_stages : Sb_sim.Cost_profile.stage list;
  w_faults : int;
  w_contained : bool;  (* a raise was contained mid-walk: quarantine the flow *)
}

(* Walk the original chain.  [recording] instruments the walk with Local
   MAT recording (the SpeedyBox initial-packet traversal); the extra
   recording cost is charged to each NF's stage.  Every NF call runs under
   the containment wrapper: a raise (injected or organic) drops the packet,
   charges the fault to the NF and tells the caller to quarantine the
   flow's recorded state. *)
let walk_chain t ~recording ~fid packet =
  let sup = t.sup in
  let nfs = Chain.nfs t.chain in
  let mats = Chain.local_mats t.chain in
  let rec go nfs mats stages faults =
    match (nfs, mats) with
    | [], [] ->
        {
          w_verdict = Sb_mat.Header_action.Forwarded;
          w_stages = List.rev stages;
          w_faults = faults;
          w_contained = false;
        }
    | nf :: nfs, mat :: mats -> (
        let name = nf.Nf.name in
        let ctx =
          { Api.fid; local_mat = mat; events = Chain.events t.chain; recording }
        in
        let overhead =
          Sb_sim.Cycles.nf_rx_tx
          + if recording then Sb_sim.Cycles.local_mat_record else 0
        in
        let gate =
          if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.gate sup ~nf:name
          else Sb_fault.Supervisor.Run
        in
        match gate with
        | Sb_fault.Supervisor.Bypass_nf ->
            (* Failed NF elided from the chain: the packet only transits the
               port; nothing records, so rebuilt fast paths omit the NF. *)
            if Sb_obs.Sink.armed t.cfg.obs then
              obs_timeline t ~fid
                ~ts_us:(Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle)
                ~detail:name Sb_obs.Timeline.Degraded_bypass;
            let stage = Sb_sim.Cost_profile.serial_stage name Sb_sim.Cycles.nf_rx_tx in
            go nfs mats (stage :: stages) faults
        | Sb_fault.Supervisor.Drop_packet ->
            (* Failed NF under Drop_flow: the drop records like an ordinary
               verdict, so the flow's fast path early-drops. *)
            Api.localmat_add_ha ctx Sb_mat.Header_action.Drop;
            let stage =
              Sb_sim.Cost_profile.serial_stage name
                (Sb_sim.Cycles.nf_rx_tx + Sb_sim.Cycles.ha_drop)
            in
            {
              w_verdict = Sb_mat.Header_action.Dropped;
              w_stages = List.rev (stage :: stages);
              w_faults = faults;
              w_contained = false;
            }
        | Sb_fault.Supervisor.Run -> (
            let injected =
              if Sb_fault.Supervisor.active sup then Sb_fault.Supervisor.draw sup ~nf:name
              else None
            in
            match
              match injected with
              | Some Sb_fault.Injector.Raise -> raise (injected_raise t name)
              | Some Sb_fault.Injector.Corrupt_verdict
              | Some Sb_fault.Injector.Stall
              | None ->
                  nf.Nf.process ctx packet
            with
            | exception _exn ->
                (* Containment: the fault is this NF's, the packet is
                   dropped, the flow's partial records are quarantined. *)
                note_fault t ~nf:name;
                Sb_fault.Supervisor.record_contained sup;
                Sb_fault.Supervisor.record_faulted_packet sup;
                let stage =
                  Sb_sim.Cost_profile.serial_stage name
                    (overhead + Sb_sim.Cycles.fault_contain)
                in
                {
                  w_verdict = Sb_mat.Header_action.Dropped;
                  w_stages = List.rev (stage :: stages);
                  w_faults = faults + 1;
                  w_contained = true;
                }
            | result -> (
                let result, faults =
                  match injected with
                  | Some Sb_fault.Injector.Corrupt_verdict ->
                      note_fault t ~nf:name;
                      Sb_fault.Supervisor.record_corrupted sup;
                      Sb_fault.Supervisor.record_faulted_packet sup;
                      ( { result with Nf.verdict = flip_verdict result.Nf.verdict },
                        faults + 1 )
                  | Some Sb_fault.Injector.Stall ->
                      note_fault t ~nf:name;
                      Sb_fault.Supervisor.record_stalled sup;
                      ( {
                          result with
                          Nf.cycles =
                            result.Nf.cycles + Sb_fault.Supervisor.stall_cycles sup;
                        },
                        faults + 1 )
                  | Some Sb_fault.Injector.Raise | None -> (result, faults)
                in
                let stage =
                  Sb_sim.Cost_profile.serial_stage name (result.Nf.cycles + overhead)
                in
                match result.Nf.verdict with
                | Sb_mat.Header_action.Dropped ->
                    {
                      w_verdict = Sb_mat.Header_action.Dropped;
                      w_stages = List.rev (stage :: stages);
                      w_faults = faults;
                      w_contained = false;
                    }
                | Sb_mat.Header_action.Forwarded -> go nfs mats (stage :: stages) faults)))
    | _ -> assert false (* nfs and local_mats have equal length *)
  in
  go nfs mats [] 0

let finish t verdict packet profile path events_fired faults =
  let latency_cycles, service_cycles =
    Sb_sim.Platform.latency_and_service t.cfg.platform profile
  in
  {
    verdict;
    packet;
    profile;
    path;
    latency_cycles;
    service_cycles;
    events_fired;
    faults;
  }

let process_original t packet =
  let w = walk_chain t ~recording:false ~fid:(-1) packet in
  finish t w.w_verdict packet w.w_stages Slow_path 0 w.w_faults

let cleanup t cls =
  Chain.remove_flow t.chain cls.Classifier.fid;
  Sb_mat.Global_mat.remove_flow t.global cls.Classifier.fid;
  Classifier.forget t.classifier cls.Classifier.tuple;
  (* Any timer-wheel entry for the flow dangles until it fires, where its
     stale epoch identifies it as dead — O(1) now beats finding it in its
     slot. *)
  Sb_flow.Live_table.remove t.live cls.Classifier.fid

let expire_flow t fid ~tuple now =
  Chain.remove_flow ~tuple t.chain fid;
  Sb_mat.Global_mat.remove_flow t.global fid;
  Classifier.forget t.classifier tuple;
  Sb_flow.Live_table.remove t.live fid;
  t.expired <- t.expired + 1;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
      ~detail:"idle timer" Sb_obs.Timeline.Idle_expired

(* Idle expiry: evict flows whose last packet arrived more than the
   configured timeout ago (arrival clock = packet ingress timestamps).
   Each recorded flow arms a one-shot timer-wheel entry; a packet for a
   live flow only rewrites [last_seen] (no wheel operation), and a firing
   timer either expires the flow or lazily re-arms at [last_seen +
   timeout].  Advancing past quiet stretches is O(ticks), not O(flows), so
   the cost stays flat at a million tracked flows. *)
let expire_idle_flows t wheel timeout now =
  Sb_flow.Timer_wheel.advance wheel ~now (fun fid stamp ->
      let live = t.live in
      let s = Sb_flow.Live_table.probe live fid in
      if s >= 0 && Sb_flow.Live_table.epoch_at live s = stamp then begin
        let last_seen = Sb_flow.Live_table.last_seen_at live s in
        if now - last_seen > timeout then begin
          expire_flow t fid ~tuple:(Sb_flow.Live_table.tuple_at live s) now;
          Sb_flow.Timer_wheel.Expire
        end
        else Sb_flow.Timer_wheel.Rearm (last_seen + timeout)
      end
      else
        (* A stale incarnation: the flow was cleaned up (and possibly
           re-recorded with a fresh stamp) since this timer was armed. *)
        Sb_flow.Timer_wheel.Expire)

let record_arrival t wheel timeout cls now =
  let epoch = t.live_epoch in
  t.live_epoch <- epoch + 1;
  Sb_flow.Live_table.set t.live cls.Classifier.fid ~last_seen:now ~epoch
    ~tuple:cls.Classifier.tuple;
  Sb_flow.Timer_wheel.add wheel ~key:cls.Classifier.fid ~stamp:epoch
    ~deadline:(now + timeout)

let touch t cls now =
  match (t.cfg.idle_timeout_cycles, t.wheel) with
  | None, _ | _, None -> ()
  | Some timeout, Some wheel ->
      (* Fire due timers first: if the arriving flow itself idled out, the
         wheel tears it down here and the packet re-records below like a
         fresh flow. *)
      expire_idle_flows t wheel timeout now;
      let live = t.live in
      let s = Sb_flow.Live_table.probe live cls.Classifier.fid in
      if s < 0 then record_arrival t wheel timeout cls now
      else if now - Sb_flow.Live_table.last_seen_at live s > timeout then begin
        (* Only reachable when arrivals outrun the wheel's tick
           quantisation: treat exactly like a wheel-fired expiry. *)
        cleanup t cls;
        t.expired <- t.expired + 1;
        if Sb_obs.Sink.armed t.cfg.obs then
          obs_timeline t ~fid:cls.Classifier.fid
            ~ts_us:(Sb_sim.Cycles.to_microseconds now)
            ~detail:"expired on arrival" Sb_obs.Timeline.Idle_expired;
        record_arrival t wheel timeout cls now
      end
      else Sb_flow.Live_table.set_last_seen_at live s now

(* Forwarded packets pay the metadata detach at egress; a dropped packet's
   descriptor is simply released.  One preallocated item, threaded into the
   Global MAT's stage assembly instead of appended after the fact. *)
let detach_item = Sb_sim.Cost_profile.Serial Sb_sim.Cycles.meta_detach

(* Containment of a fast-path fault: count it, quarantine the flow's
   consolidated state (Global MAT rule, Local MAT records, events,
   classifier mapping) and drop the packet.  The flow's next packet
   re-records from scratch — or runs Original when recording is no longer
   allowed. *)
let contain_fast_path t cls classifier_stage inj_faults ~nf ~now =
  note_fault t ~nf;
  Sb_fault.Supervisor.record_contained t.sup;
  Sb_fault.Supervisor.record_faulted_packet t.sup;
  cleanup t cls;
  Sb_fault.Supervisor.record_quarantine t.sup;
  if Sb_obs.Sink.armed t.cfg.obs then
    obs_timeline t ~fid:cls.Classifier.fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
      ~detail:nf Sb_obs.Timeline.Quarantined;
  let stage =
    Sb_sim.Cost_profile.serial_stage "GlobalMAT"
      (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain)
  in
  (classifier_stage, stage, inj_faults + 1)

(* The last-flow memo: consecutive packets of one flow resolve their rule
   with a single Global MAT probe.  A memoised rule is trusted only within
   the MAT generation it was found in (any eviction, removal, clear or
   adoption over a bound fid bumps it), and a miss is never memoised: a
   slow-path packet may consolidate a rule without a bump.  In-place reconsolidation (event
   rewrites) updates the memoised record itself, so it stays current. *)
let resolve t fid =
  let gen = Sb_mat.Global_mat.generation t.global in
  if fid = t.memo_fid && gen = t.memo_gen then t.memo_rule
  else begin
    let r = Sb_mat.Global_mat.find t.global fid in
    (match r with
    | Some _ ->
        t.memo_fid <- fid;
        t.memo_gen <- gen;
        t.memo_rule <- r
    | None -> t.memo_fid <- -1);
    r
  end

(* A classified (and [touch]ed) packet with its resolved rule: the Global
   MAT fast path on a hit, the recording slow-path walk on a miss. *)
let process_with_rule t packet cls rule_opt =
  let now = packet.Sb_packet.Packet.ingress_cycle in
  let fid = cls.Classifier.fid in
  let classifier_stage = Sb_sim.Cost_profile.serial_stage "Classifier" cls.Classifier.cycles in
  match rule_opt with
  | Some rule -> (
      (* Mirror the slow path's per-NF injector consultation — one draw per
         NF per packet — so a fault schedule is path-independent. *)
      let corrupts = ref 0 and stalls = ref 0 and raised = ref None in
      let injected = ref 0 in
      if Sb_fault.Supervisor.active t.sup then
        Array.iter
          (fun name ->
            match Sb_fault.Supervisor.draw t.sup ~nf:name with
            | None -> ()
            | Some kind -> (
                incr injected;
                note_fault t ~nf:name;
                match kind with
                | Sb_fault.Injector.Raise ->
                    Sb_fault.Supervisor.record_contained t.sup;
                    if !raised = None then raised := Some name
                | Sb_fault.Injector.Corrupt_verdict ->
                    Sb_fault.Supervisor.record_corrupted t.sup;
                    incr corrupts
                | Sb_fault.Injector.Stall ->
                    Sb_fault.Supervisor.record_stalled t.sup;
                    incr stalls))
          t.nf_names;
      let n_injected = !injected in
      match !raised with
      | Some nf ->
          (* The injected crash aborts the rule execution: drop the packet
             and quarantine the flow (its next packet re-records). *)
          Sb_fault.Supervisor.record_faulted_packet t.sup;
          cleanup t cls;
          Sb_fault.Supervisor.record_quarantine t.sup;
          if Sb_obs.Sink.armed t.cfg.obs then
            obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now) ~detail:nf
              Sb_obs.Timeline.Quarantined;
          let stage =
            Sb_sim.Cost_profile.serial_stage "GlobalMAT"
              (Sb_sim.Cycles.fast_path_lookup + Sb_sim.Cycles.fault_contain)
          in
          finish t Sb_mat.Header_action.Dropped packet [ classifier_stage; stage ]
            Fast_path 0 n_injected
      | None -> (
          match
            Sb_mat.Global_mat.execute_rule ~egress_item:detach_item t.global
              (Chain.events t.chain) (Chain.local_mats t.chain) fid rule packet
          with
          | exception exn ->
              (* An organic fast-path fault — a raising state function or
                 event update — attributed to its NF when known. *)
              let nf =
                match exn with
                | Sb_fault.Fault.Nf_fault (nf, _, _) -> nf
                | _ -> "GlobalMAT"
              in
              let classifier_stage, stage, faults =
                contain_fast_path t cls classifier_stage n_injected ~nf ~now
              in
              finish t Sb_mat.Header_action.Dropped packet [ classifier_stage; stage ]
                Fast_path 0 faults
          | result ->
              let verdict =
                if !corrupts land 1 = 1 then flip_verdict result.Sb_mat.Global_mat.verdict
                else result.Sb_mat.Global_mat.verdict
              in
              if !corrupts > 0 then Sb_fault.Supervisor.record_faulted_packet t.sup;
              let stages =
                [ classifier_stage; result.Sb_mat.Global_mat.stage ]
                @
                if !stalls > 0 then
                  [
                    Sb_sim.Cost_profile.serial_stage "InjectedStall"
                      (!stalls * Sb_fault.Supervisor.stall_cycles t.sup);
                  ]
                else []
              in
              if cls.Classifier.final then cleanup t cls;
              finish t verdict packet stages Fast_path
                result.Sb_mat.Global_mat.events_fired n_injected))
  | None -> begin
    (* Slow path; the flow's establishing packet also records — unless an
       NF opted out of consolidation (§IV-A3) or the fault layer no longer
       trusts the chain (a Degraded NF, or a Failed one pinned to the slow
       path), in which case no fast path is built. *)
    if Sb_obs.Sink.armed t.cfg.obs then begin
      (* Keep the hook clock current before consolidation can LRU-evict. *)
      t.obs_now_us <- Sb_sim.Cycles.to_microseconds now;
      (match Sb_obs.Sink.timeline t.cfg.obs with
      | Some tl when not (Sb_obs.Timeline.known tl fid) ->
          obs_timeline t ~fid ~ts_us:t.obs_now_us ~detail:(Chain.name t.chain)
            Sb_obs.Timeline.First_packet
      | Some _ | None -> ())
    end;
    let recording =
      cls.Classifier.established && Chain.consolidable t.chain
      && ((not (Sb_fault.Supervisor.active t.sup))
         || Sb_fault.Supervisor.allow_recording t.sup t.nf_names)
    in
    let w = walk_chain t ~recording ~fid packet in
    if w.w_contained then begin
      (* Quarantine: the walk's partial Local MAT records and events must
         not leak into a rule; the flow's next packet starts fresh. *)
      cleanup t cls;
      Sb_fault.Supervisor.record_quarantine t.sup;
      if Sb_obs.Sink.armed t.cfg.obs then
        obs_timeline t ~fid ~ts_us:(Sb_sim.Cycles.to_microseconds now)
          ~detail:"slow-path walk" Sb_obs.Timeline.Quarantined
    end;
    let stages =
      if recording && not w.w_contained then begin
        let cost =
          Sb_mat.Global_mat.consolidate t.global fid (Chain.local_mats t.chain)
        in
        if Sb_obs.Sink.armed t.cfg.obs then
          obs_timeline t ~fid ~ts_us:t.obs_now_us Sb_obs.Timeline.Consolidated;
        w.w_stages @ [ Sb_sim.Cost_profile.serial_stage "Consolidate" cost ]
      end
      else w.w_stages
    in
    if cls.Classifier.final && not w.w_contained then cleanup t cls;
    finish t w.w_verdict packet (classifier_stage :: stages) Slow_path 0 w.w_faults
  end

(* A malformed packet (no 5-tuple, or stale checksums under
   [verify_checksums]) is rejected at the classifier: it never reaches an
   NF, never touches conntrack or the liveness tables, and cannot perturb
   the rule memo. *)
let process_malformed t packet cls =
  let classifier_stage = Sb_sim.Cost_profile.serial_stage "Classifier" cls.Classifier.cycles in
  finish t Sb_mat.Header_action.Dropped packet [ classifier_stage ] Slow_path 0 0

(* Everything observability learns per packet derives from the [output]
   the executor produced anyway, so one armed-sink branch after processing
   covers metrics and tracing for both paths and both modes — the unarmed
   fast path pays exactly that branch and nothing else. *)
let instrument t packet out =
  let obs = t.cfg.obs in
  let fid = out.packet.Sb_packet.Packet.fid in
  let ts0 = Sb_sim.Cycles.to_microseconds packet.Sb_packet.Packet.ingress_cycle in
  t.obs_now_us <- ts0;
  (match t.ins with
  | Some ins ->
      let latency_us = Sb_sim.Cycles.to_microseconds out.latency_cycles in
      (match out.path with
      | Slow_path ->
          Sb_obs.Metrics.Counter.incr ins.c_slow;
          Sb_obs.Histogram.observe ins.h_latency_slow latency_us
      | Fast_path ->
          Sb_obs.Metrics.Counter.incr ins.c_fast;
          Sb_obs.Histogram.observe ins.h_latency_fast latency_us);
      (match out.verdict with
      | Sb_mat.Header_action.Forwarded -> Sb_obs.Metrics.Counter.incr ins.c_forwarded
      | Sb_mat.Header_action.Dropped -> Sb_obs.Metrics.Counter.incr ins.c_dropped);
      (match ins.h_sojourn with
      | Some h -> Sb_obs.Histogram.observe h latency_us
      | None -> ())
  | None -> ());
  (* Snapshot cadence rides the same armed branch; derives from the
     simulated clock, so snapshot series are deterministic. *)
  Sb_obs.Sink.packet_tick obs ~now_us:ts0;
  match Sb_obs.Sink.tracer obs with
  | Some tr when Sb_obs.Tracer.sampled tr fid ->
      (* One span per visited stage: per-NF spans on the slow path, one
         compiled-program (GlobalMAT) span on the fast path, plus the
         Classifier and Consolidate stages.  Span times tile the packet's
         stage sequence starting at its ingress timestamp. *)
      let cat = match out.path with Slow_path -> "slow" | Fast_path -> "fast" in
      let ts = ref ts0 in
      List.iter
        (fun (stage : Sb_sim.Cost_profile.stage) ->
          let dur =
            Sb_sim.Cycles.to_microseconds (Sb_sim.Cost_profile.stage_cycles stage)
          in
          let cat =
            if String.equal stage.Sb_sim.Cost_profile.label "Consolidate" then
              "consolidate"
            else cat
          in
          Sb_obs.Tracer.record tr ~name:stage.Sb_sim.Cost_profile.label ~cat
            ~ts_us:!ts ~dur_us:dur ~tid:fid [];
          ts := !ts +. dur)
        out.profile
  | Some _ | None -> ()

(* The one datapath.  A packet is classified, then takes the Global MAT
   fast path or walks the original chain; a burst is a plain loop of this
   step, so burst and per-packet processing are identical by construction.
   Classification is strictly sequential: a packet is observed by
   conntrack only after every earlier packet has executed, so a FIN/RST's
   teardown, a fault quarantine or an idle expiry is always visible to the
   packets behind it. *)
let process_packet t packet =
  let out =
    match t.cfg.mode with
    | Original -> process_original t packet
    | Speedybox ->
        let cls = t.cls in
        Classifier.prepare_into t.classifier packet cls;
        if cls.Classifier.malformed then process_malformed t packet cls
        else begin
          Classifier.observe_into t.classifier packet cls;
          touch t cls packet.Sb_packet.Packet.ingress_cycle;
          process_with_rule t packet cls (resolve t cls.Classifier.fid)
        end
  in
  if Sb_obs.Sink.armed t.cfg.obs then instrument t packet out;
  out

let default_burst = 32

let process_burst_into t packets ~off ~len emit =
  for k = 0 to len - 1 do
    emit k (process_packet t packets.(off + k))
  done

let process_burst t packets = Array.map (process_packet t) packets

type run_result = {
  packets : int;
  forwarded : int;
  dropped : int;
  slow_path : int;
  fast_path : int;
  events_fired : int;
  faulted_packets : int;
  latency_us : Sb_sim.Stats.t;
  cycles_per_packet : Sb_sim.Stats.t;
  service : Sb_sim.Stats.t;
  flow_time_us : float Sb_flow.Flow_table.t;
  stage_cycles : (string, Sb_sim.Stats.t) Hashtbl.t;
}

(* Non-TCP/UDP packets have no 5-tuple; their time buckets under this
   sentinel instead of crashing the whole run. *)
let no_flow_fid = -1

let rate_mpps r =
  let mean = Sb_sim.Stats.mean r.service in
  if Float.is_nan mean then nan
  else Sb_sim.Cycles.rate_mpps (int_of_float (Float.round mean))

(* The run accumulator behind [run_trace], exposed so the sharded
   executors fold their outputs through the exact same code: the
   deterministic executor feeds one accumulator in global order, the
   parallel executor feeds one per shard and [absorb]s them into the run
   total — either way the [run_result] is identical by construction to an
   unsharded run over the same outputs. *)
module Acc = struct
  type acc = {
    fid_bits : int;
    mutable count : int;
    mutable forwarded : int;
    mutable dropped : int;
    mutable slow : int;
    mutable fast : int;
    mutable fired : int;
    mutable faulted : int;
    latency_us : Sb_sim.Stats.t;
    cycles_per_packet : Sb_sim.Stats.t;
    service : Sb_sim.Stats.t;
    flow_time_us : float Sb_flow.Flow_table.t;
    stage_cycles : (string, Sb_sim.Stats.t) Hashtbl.t;
  }

  let create ?(fid_bits = Sb_flow.Fid.default_bits) () =
    {
      fid_bits;
      count = 0;
      forwarded = 0;
      dropped = 0;
      slow = 0;
      fast = 0;
      fired = 0;
      faulted = 0;
      latency_us = Sb_sim.Stats.create ();
      cycles_per_packet = Sb_sim.Stats.create ();
      service = Sb_sim.Stats.create ();
      flow_time_us = Sb_flow.Flow_table.create ~initial_size:256 ();
      stage_cycles = Hashtbl.create 16;
    }

  let stage_stats acc label =
    match Hashtbl.find_opt acc.stage_cycles label with
    | Some s -> s
    | None ->
        let s = Sb_sim.Stats.create () in
        Hashtbl.replace acc.stage_cycles label s;
        s

  let consume acc original out =
    acc.count <- acc.count + 1;
    (match out.verdict with
    | Sb_mat.Header_action.Forwarded -> acc.forwarded <- acc.forwarded + 1
    | Sb_mat.Header_action.Dropped -> acc.dropped <- acc.dropped + 1);
    (match out.path with
    | Slow_path -> acc.slow <- acc.slow + 1
    | Fast_path -> acc.fast <- acc.fast + 1);
    acc.fired <- acc.fired + out.events_fired;
    if out.faults > 0 then acc.faulted <- acc.faulted + 1;
    List.iter
      (fun stage ->
        Sb_sim.Stats.add_int
          (stage_stats acc stage.Sb_sim.Cost_profile.label)
          (Sb_sim.Cost_profile.stage_cycles stage))
      out.profile;
    let us = Sb_sim.Cycles.to_microseconds out.latency_cycles in
    Sb_sim.Stats.add acc.latency_us us;
    Sb_sim.Stats.add_int acc.cycles_per_packet out.latency_cycles;
    Sb_sim.Stats.add_int acc.service out.service_cycles;
    (* The flow-time bucket keys by the FID as classified, falling back to
       re-deriving it from the pristine input when the chain dropped the
       packet before classification stamped it. *)
    let key =
      if out.packet.Sb_packet.Packet.fid >= 0 then out.packet.Sb_packet.Packet.fid
      else
        match Sb_flow.Five_tuple.of_packet_opt original with
        | Some tuple -> Sb_flow.Fid.of_tuple ~bits:acc.fid_bits tuple
        | None -> no_flow_fid
    in
    Sb_flow.Flow_table.update acc.flow_time_us key ~default:0. (fun sum -> sum +. us)

  let absorb dst src =
    dst.count <- dst.count + src.count;
    dst.forwarded <- dst.forwarded + src.forwarded;
    dst.dropped <- dst.dropped + src.dropped;
    dst.slow <- dst.slow + src.slow;
    dst.fast <- dst.fast + src.fast;
    dst.fired <- dst.fired + src.fired;
    dst.faulted <- dst.faulted + src.faulted;
    Sb_sim.Stats.absorb dst.latency_us src.latency_us;
    Sb_sim.Stats.absorb dst.cycles_per_packet src.cycles_per_packet;
    Sb_sim.Stats.absorb dst.service src.service;
    Sb_flow.Flow_table.iter
      (fun fid us ->
        Sb_flow.Flow_table.update dst.flow_time_us fid ~default:0. (fun sum -> sum +. us))
      src.flow_time_us;
    Hashtbl.iter
      (fun label stats -> Sb_sim.Stats.absorb (stage_stats dst label) stats)
      src.stage_cycles

  let result acc =
    {
      packets = acc.count;
      forwarded = acc.forwarded;
      dropped = acc.dropped;
      slow_path = acc.slow;
      fast_path = acc.fast;
      events_fired = acc.fired;
      faulted_packets = acc.faulted;
      latency_us = acc.latency_us;
      cycles_per_packet = acc.cycles_per_packet;
      service = acc.service;
      flow_time_us = acc.flow_time_us;
      stage_cycles = acc.stage_cycles;
    }
end

let run_trace ?on_output ?(burst = 1) t packets =
  if burst < 1 then invalid_arg "Runtime.run_trace: burst must be positive";
  let acc = Acc.create ~fid_bits:t.cfg.fid_bits () in
  let consume original out =
    Acc.consume acc original out;
    Option.iter (fun f -> f original out) on_output
  in
  (* The trace's packets are never mutated: each is replayed through a copy.
     Without an [on_output] callback nothing can retain the processed
     packet, so the copies live in a reusable scratch pool; with one, the
     callback may keep [out.packet] (tests do), so copies stay fresh. *)
  let originals = Array.of_list packets in
  let total = Array.length originals in
  let pool =
    if on_output = None then Array.init (min burst total) (fun _ -> Sb_packet.Packet.scratch ())
    else [||]
  in
  let base = ref 0 in
  let emit k out = consume originals.(!base + k) out in
  while !base < total do
    let n = min burst (total - !base) in
    let seg =
      if on_output = None then begin
        for k = 0 to n - 1 do
          Sb_packet.Packet.copy_into ~src:originals.(!base + k) ~dst:pool.(k)
        done;
        pool
      end
      else Array.init n (fun k -> Sb_packet.Packet.copy originals.(!base + k))
    in
    process_burst_into t seg ~off:0 ~len:n emit;
    base := !base + n
  done;
  (* End-of-run table occupancy (and the sentinel non-flow time bucket),
     as gauges — once per run, not per packet. *)
  (match Sb_obs.Sink.metrics t.cfg.obs with
  | Some m ->
      let g name help v =
        Sb_obs.Metrics.Gauge.set
          (Sb_obs.Metrics.gauge m ~help ~labels:[ ("chain", Chain.name t.chain) ] name)
          v
      in
      g "speedybox_rules_installed" "Consolidated rules in the Global MAT"
        (float_of_int (Sb_mat.Global_mat.flow_count t.global));
      g "speedybox_events_armed" "Event Table conditions currently armed"
        (float_of_int (Sb_mat.Event_table.total_armed (Chain.events t.chain)));
      (match Sb_flow.Flow_table.find acc.Acc.flow_time_us no_flow_fid with
      | Some us ->
          g "speedybox_non_flow_time_us"
            "Processing time spent on packets with no 5-tuple (non-TCP/UDP)" us
      | None -> ());
      (* State-store surface: declared cells per scope, merge rounds run
         (delta-folded, so repeated reports never double-count), armed
         global-state conditions, and the distribution of merged global
         cell values. *)
      let counts = Sb_state.Store.cell_counts t.cfg.state in
      let gs scope help v =
        Sb_obs.Metrics.Gauge.set
          (Sb_obs.Metrics.gauge m ~help
             ~labels:[ ("chain", Chain.name t.chain); ("scope", scope) ]
             "speedybox_state_cells")
          (float_of_int v)
      in
      let cells_help = "Declared state-store cells by scope" in
      gs "per-flow" cells_help counts.Sb_state.Store.per_flow;
      gs "per-shard" cells_help counts.Sb_state.Store.per_shard;
      gs "global" cells_help counts.Sb_state.Store.global;
      Sb_obs.Metrics.Counter.add
        (Sb_obs.Metrics.counter m ~help:"Cross-shard state merge rounds run"
           ~labels:[ ("chain", Chain.name t.chain) ]
           "speedybox_state_merge_rounds_total")
        (Sb_state.Store.merge_rounds_delta t.cfg.state);
      g "speedybox_state_global_events_armed"
        "Armed Event Table conditions reading global-scope state"
        (float_of_int (Sb_mat.Event_table.total_global_armed (Chain.events t.chain)));
      let h_global =
        Sb_obs.Metrics.histogram m ~help:"Merged values of global-scope state cells"
          ~labels:[ ("chain", Chain.name t.chain); ("scope", "global") ]
          "speedybox_state_cell_value"
      in
      List.iter
        (fun (_, _, v) -> Sb_obs.Histogram.observe_int h_global v)
        (Sb_state.Store.merged_values t.cfg.state)
  | None -> ());
  Acc.result acc
