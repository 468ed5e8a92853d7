open Sb_packet

(* The fast path of one flow: positional interleaving of merged header
   transforms and state-function wave groups, in chain order. *)
type step =
  | Transform of Consolidate.t
  | Waves of { batches : State_function.Batch.t list; plan : int list list }

(* The compiled form: a flat instruction array the per-packet executor
   walks with no list traversal, no plan indexing and no cost recomputation.
   Each wave group is pre-resolved into one [C_wave] per wave, the plan's
   indices already applied; each transform carries its cost item built once
   at consolidation time. *)
type cstep =
  | C_transform of {
      c : Consolidate.t;
      item : Sb_sim.Cost_profile.item;
      incr_ok : bool;
          (* no Write-mode batch runs before this transform, so the stored
             L4 checksum still matches the bytes and the RFC 1624
             incremental fix-up is byte-identical to the full recompute *)
    }
  | C_wave of State_function.Batch.t array

type program = {
  code : cstep array;
  transforms : int;  (* non-identity transforms in [code] *)
  static_head : int;
      (* the per-packet serial cycles that do not depend on events:
         fast-path lookup + per-source-action walk + base forward *)
}

type rule = {
  mutable steps : step list;  (* source form, kept for introspection/recompile *)
  mutable program : program;
  mutable overall : Consolidate.t;  (* position-insensitive merge, introspection *)
  mutable n_source_actions : int;
  mutable last_use : int;  (* logical clock, exposed for debugging *)
  mutable node : Sb_flow.Lru.node;  (* position in the eviction order *)
}

let rule_action r = r.overall

let rule_batches r =
  List.concat_map
    (function Transform _ -> [] | Waves { batches; _ } -> batches)
    r.steps

let rule_plan r =
  (* Re-index each group's plan into the global batch numbering. *)
  let _, rev_plans =
    List.fold_left
      (fun (offset, acc) step ->
        match step with
        | Transform _ -> (offset, acc)
        | Waves { batches; plan } ->
            ( offset + List.length batches,
              List.rev_append (List.map (List.map (fun i -> i + offset)) plan) acc ))
      (0, []) r.steps
  in
  List.rev rev_plans

let rule_transform_count r = r.program.transforms

(* How the fast path executes a consolidated rule: [Compiled] (the flat
   program) is the production path; [Interpreted] walks the source [step
   list] exactly as the pre-compilation executor did, and exists so the
   differential tests can prove the two produce bit-identical outputs. *)
type exec_mode = Compiled | Interpreted

type t = {
  policy : Parallel.policy;
  exec : exec_mode;
  rules : rule Sb_flow.Flow_table.t;
  lru : Sb_flow.Lru.t;  (* recency order over [rules], O(1) touch/evict *)
  max_rules : int option;
  on_evict : Sb_flow.Fid.t -> unit;
  obs : Sb_obs.Sink.t;
  obs_consolidations : Sb_obs.Metrics.Counter.t option;  (* resolved once *)
  mutable clock : int;
  mutable evicted : int;
  mutable consolidations : int;
  mutable generation : int;
      (* bumped whenever a fid→rule binding is dropped (evict/remove/clear);
         the runtime's last-flow memo is valid only within a generation.
         In-place reconsolidation keeps the rule record — no bump needed. *)
  (* Grow-only scratch buffers for wave snapshot/merge: reused across
     packets so multi-batch waves allocate nothing per execution. *)
  mutable snap : Bytes.t;
  mutable snap_len : int;
  mutable aux : Bytes.t;
  (* Free list of scrubbed rule records: rules churn at flow rate under
     LRU and idle eviction, and recycling the (boxed) record keeps
     steady-state consolidation from allocating one per flow and from
     handing the major GC a dead record per eviction.  Bounded so a mass
     flush cannot pin an arbitrarily large arena. *)
  mutable spare : rule list;
  mutable spare_len : int;
}

let create ?(policy = Parallel.Table_one) ?max_rules ?(exec = Compiled)
    ?(on_evict = fun _ -> ()) ?(obs = Sb_obs.Sink.null) () =
  (match max_rules with
  | Some n when n < 1 -> invalid_arg "Global_mat.create: max_rules must be positive"
  | Some _ | None -> ());
  {
    policy;
    exec;
    rules = Sb_flow.Flow_table.create ();
    lru = Sb_flow.Lru.create ();
    max_rules;
    on_evict;
    obs;
    obs_consolidations =
      Option.map
        (fun m ->
          Sb_obs.Metrics.counter m ~help:"Consolidations performed (initial + event-driven)"
            "speedybox_consolidations_total")
        (Sb_obs.Sink.metrics obs);
    clock = 0;
    evicted = 0;
    consolidations = 0;
    generation = 0;
    snap = Bytes.create 256;
    snap_len = 0;
    aux = Bytes.create 256;
    spare = [];
    spare_len = 0;
  }

let policy t = t.policy

let exec_mode t = t.exec

let evictions t = t.evicted

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let spare_cap = 1024

(* Scrub a dead rule of everything it retains (steps and program embed NF
   closures) and keep the husk for reuse.  Callers must have already
   dropped the fid binding's LRU node — the handle may be reallocated. *)
let recycle t (r : rule) =
  if t.spare_len < spare_cap then begin
    r.steps <- [];
    r.program <- { code = [||]; transforms = 0; static_head = 0 };
    r.overall <- Consolidate.forward;
    r.n_source_actions <- 0;
    t.spare <- r :: t.spare;
    t.spare_len <- t.spare_len + 1
  end

(* Make room for one rule when the table sits at its cap: drop the flow at
   the cold end of the recency list, telling the owner so Local MATs
   follow.  O(1), where the fold-based predecessor scanned every rule. *)
let evict_lru t =
  match Sb_flow.Lru.pop_coldest t.lru with
  | None -> ()
  | Some fid ->
      (match Sb_flow.Flow_table.find t.rules fid with
      | Some r -> recycle t r
      | None -> ());
      Sb_flow.Flow_table.remove t.rules fid;
      t.evicted <- t.evicted + 1;
      t.generation <- t.generation + 1;
      t.on_evict fid

let is_identity (c : Consolidate.t) =
  (not c.Consolidate.drop)
  && c.Consolidate.pops = []
  && c.Consolidate.pushes = []
  && c.Consolidate.sets = []

(* Positional consolidation: contiguous header-action runs merge into one
   transform each; the state-function batches between non-identity
   transforms form one wave group (within one NF, header actions are taken
   to precede its state functions).  Identity transforms are elided so
   forward-only NFs do not break batch adjacency. *)
let build_steps policy per_nf =
  let steps = ref [] in
  let run = ref [] in
  let run_has_drop = ref false in
  let group = ref [] in
  (* Once a drop transform lands, everything positioned after it is dead
     code: the original path never reaches those NFs.  (Initial-packet
     recording stops at the dropper anyway; this matters when an event
     rewrites an upstream NF's action to drop while downstream records
     persist.) *)
  let stopped = ref false in
  let flush_group () =
    match !group with
    | [] -> ()
    | batches ->
        let batches = List.rev batches in
        let plan = Parallel.plan policy (List.map State_function.Batch.mode batches) in
        steps := Waves { batches; plan } :: !steps;
        group := []
  in
  let flush_run () =
    let c = Consolidate.of_actions (List.rev !run) in
    run := [];
    run_has_drop := false;
    if not (is_identity c) then begin
      flush_group ();
      steps := Transform c :: !steps;
      if Consolidate.is_drop c then stopped := true
    end
  in
  List.iter
    (fun (actions, batch) ->
      if not !stopped then begin
        List.iter
          (fun a ->
            run := a :: !run;
            if a = Header_action.Drop then run_has_drop := true)
          actions;
        (* HAs precede SFs within an NF, so a drop in this NF's own actions
           also silences its batch. *)
        if !run_has_drop then flush_run ();
        if (not !stopped) && batch.State_function.Batch.fns <> [] then begin
          flush_run ();
          group := batch :: !group
        end
      end)
    per_nf;
  if not !stopped then flush_run ();
  flush_group ();
  List.rev !steps

(* Flatten the step list into the executable program.  This is the one-time
   slow-path work that buys the per-packet savings: plan indices resolve to
   batch arrays here (killing the per-packet [List.nth]), and each
   transform's cycle cost becomes a preallocated profile item. *)
let compile ~n_source_actions steps =
  let rev_code = ref [] in
  let transforms = ref 0 in
  let payload_written = ref false in
  List.iter
    (function
      | Transform c ->
          incr transforms;
          rev_code :=
            C_transform
              {
                c;
                item = Sb_sim.Cost_profile.Serial (Consolidate.cost c);
                incr_ok = not !payload_written;
              }
            :: !rev_code
      | Waves { batches; plan } ->
          let arr = Array.of_list batches in
          List.iter
            (fun wave ->
              rev_code := C_wave (Array.of_list (List.map (Array.get arr) wave)) :: !rev_code)
            plan;
          if
            List.exists
              (fun b -> State_function.Batch.mode b = State_function.Write)
              batches
          then payload_written := true)
    steps;
  let transforms = !transforms in
  {
    code = Array.of_list (List.rev !rev_code);
    transforms;
    static_head =
      (Sb_sim.Cycles.fast_path_lookup
      + (n_source_actions * Sb_sim.Cycles.fast_path_per_action)
      (* Rules with no surviving transform still do one base forward. *)
      + if transforms = 0 then Sb_sim.Cycles.ha_forward else 0);
  }

let consolidate t fid locals =
  let per_nf =
    List.filter_map
      (fun local ->
        match Local_mat.find local fid with
        | None -> None
        | Some r ->
            Some
              ( Local_mat.rule_actions r,
                State_function.Batch.make ~nf:(Local_mat.nf_name local)
                  (Local_mat.rule_state_functions r) ))
      locals
  in
  let actions = List.concat_map fst per_nf in
  let n_source_actions = List.length actions in
  let steps = build_steps t.policy per_nf in
  let program = compile ~n_source_actions steps in
  let overall = Consolidate.of_actions actions in
  (match Sb_flow.Flow_table.find t.rules fid with
  | Some r ->
      (* Re-consolidation (event fire, repeated recording): update in
         place, so an executor holding the rule sees the fresh program
         without a second table lookup. *)
      r.steps <- steps;
      r.program <- program;
      r.overall <- overall;
      r.n_source_actions <- n_source_actions;
      r.last_use <- tick t;
      Sb_flow.Lru.touch t.lru r.node
  | None ->
      (match t.max_rules with
      | Some cap when Sb_flow.Flow_table.length t.rules >= cap -> evict_lru t
      | Some _ | None -> ());
      let node = Sb_flow.Lru.add t.lru fid in
      let r =
        match t.spare with
        | r :: rest ->
            t.spare <- rest;
            t.spare_len <- t.spare_len - 1;
            r.steps <- steps;
            r.program <- program;
            r.overall <- overall;
            r.n_source_actions <- n_source_actions;
            r.last_use <- tick t;
            r.node <- node;
            r
        | [] -> { steps; program; overall; n_source_actions; last_use = tick t; node }
      in
      Sb_flow.Flow_table.set t.rules fid r);
  t.consolidations <- t.consolidations + 1;
  (match t.obs_consolidations with
  | Some c -> Sb_obs.Metrics.Counter.incr c
  | None -> ());
  List.length locals * Sb_sim.Cycles.global_consolidate_per_nf

let find t fid = Sb_flow.Flow_table.find t.rules fid

let mem t fid = Sb_flow.Flow_table.mem t.rules fid

let remove_flow t fid =
  match Sb_flow.Flow_table.find t.rules fid with
  | None -> ()
  | Some r ->
      Sb_flow.Lru.remove t.lru r.node;
      Sb_flow.Flow_table.remove t.rules fid;
      recycle t r;
      t.generation <- t.generation + 1

(* Flow-migration handoff: install a copy of a rule exported from another
   table.  The source record's intrusive LRU node belongs to the source
   table's recency list, so adoption builds a fresh record (and node) here
   and leaves the source untouched — the caller tears the source binding
   down with [remove_flow] afterwards. *)
let adopt t fid (src : rule) =
  (match Sb_flow.Flow_table.find t.rules fid with
  | Some r ->
      Sb_flow.Lru.remove t.lru r.node;
      Sb_flow.Flow_table.remove t.rules fid;
      recycle t r;
      t.generation <- t.generation + 1
  | None -> ());
  (match t.max_rules with
  | Some cap when Sb_flow.Flow_table.length t.rules >= cap -> evict_lru t
  | Some _ | None -> ());
  let node = Sb_flow.Lru.add t.lru fid in
  Sb_flow.Flow_table.set t.rules fid
    {
      steps = src.steps;
      program = src.program;
      overall = src.overall;
      n_source_actions = src.n_source_actions;
      last_use = tick t;
      node;
    }

let clear t =
  Sb_flow.Flow_table.clear t.rules;
  Sb_flow.Lru.clear t.lru;
  t.generation <- t.generation + 1

let generation t = t.generation

let flow_count t = Sb_flow.Flow_table.length t.rules

let fold f t init = Sb_flow.Flow_table.fold f t.rules init

let consolidation_count t = t.consolidations

type memory_stats = {
  rules : int;
  distinct_actions : int;
  field_writes : int;
  batches : int;
}

let memory_stats (t : t) =
  let keys = Hashtbl.create 64 in
  let field_writes = ref 0 and batches = ref 0 in
  Sb_flow.Flow_table.iter
    (fun _ rule ->
      Hashtbl.replace keys (Format.asprintf "%a" Consolidate.pp rule.overall) ();
      field_writes := !field_writes + List.length rule.overall.Consolidate.sets;
      batches := !batches + List.length (rule_batches rule))
    t.rules;
  {
    rules = Sb_flow.Flow_table.length t.rules;
    distinct_actions = Hashtbl.length keys;
    field_writes = !field_writes;
    batches = !batches;
  }

type fast_result = {
  verdict : Header_action.verdict;
  stage : Sb_sim.Cost_profile.stage;
  events_fired : int;
}

(* ---- Compiled wave execution (zero-allocation snapshot/merge) ---- *)

let region_equal a aoff b boff len =
  let rec go i =
    i >= len
    || Bytes.unsafe_get a (aoff + i) = Bytes.unsafe_get b (boff + i) && go (i + 1)
  in
  go 0

let ensure_capacity buf len =
  if Bytes.length buf >= len then buf else Bytes.create (max len (2 * Bytes.length buf))

(* Run one wave of batches with snapshot semantics: each batch sees the
   payload as of wave start; payload writes merge back, later batches
   winning, which is a deterministic model of the race parallel cores
   would exhibit.  The snapshot and the merge candidate live in [t]'s
   grow-only scratch buffers, so steady-state execution allocates only the
   cost list it returns. *)
let run_wave_compiled t batches packet =
  match Array.length batches with
  | 0 -> Sb_sim.Cost_profile.Serial 0
  | 1 -> Sb_sim.Cost_profile.Serial (State_function.Batch.run batches.(0) packet)
  | n ->
      let off = Packet.payload_offset packet in
      let snap_len = packet.Packet.len - off in
      t.snap <- ensure_capacity t.snap snap_len;
      t.snap_len <- snap_len;
      Bytes.blit packet.Packet.buf off t.snap 0 snap_len;
      let merged = ref false in
      let merged_len = ref 0 in
      let rev_costs = ref [] in
      for k = 0 to n - 1 do
        (* Restore the wave-start payload for this batch. *)
        let off = Packet.payload_offset packet in
        Bytes.blit t.snap 0 packet.Packet.buf off snap_len;
        let cost = State_function.Batch.run (Array.unsafe_get batches k) packet in
        let off' = Packet.payload_offset packet in
        let len' = packet.Packet.len - off' in
        if not (len' = snap_len && region_equal packet.Packet.buf off' t.snap 0 snap_len)
        then begin
          t.aux <- ensure_capacity t.aux len';
          Bytes.blit packet.Packet.buf off' t.aux 0 len';
          merged := true;
          merged_len := len'
        end;
        rev_costs := cost :: !rev_costs
      done;
      let off = Packet.payload_offset packet in
      if !merged then Bytes.blit t.aux 0 packet.Packet.buf off !merged_len
      else Bytes.blit t.snap 0 packet.Packet.buf off snap_len;
      Sb_sim.Cost_profile.Parallel (List.rev !rev_costs)

(* Execute the compiled program in chain position order, accumulating the
   profile items in reverse (the caller conses the egress item and head on
   and reverses once).  A dropping transform is always the last code entry
   (recording stops at the dropping NF), so state recorded upstream of the
   drop still runs. *)
let run_program t code packet =
  let verdict = ref Header_action.Forwarded in
  let rev_items = ref [] in
  for i = 0 to Array.length code - 1 do
    match Array.unsafe_get code i with
    | C_transform { c; item; incr_ok } ->
        let apply = if incr_ok then Consolidate.apply_incremental else Consolidate.apply in
        (match apply c packet with
        | Header_action.Dropped -> verdict := Header_action.Dropped
        | Header_action.Forwarded -> ());
        rev_items := item :: !rev_items
    | C_wave batches -> rev_items := run_wave_compiled t batches packet :: !rev_items
  done;
  (!verdict, !rev_items)

(* ---- Reference interpreter (the pre-compilation executor) ---- *)

let payload_region packet =
  let off = Packet.payload_offset packet in
  Bytes.sub packet.Packet.buf off (packet.Packet.len - off)

let restore_payload packet saved =
  let off = Packet.payload_offset packet in
  Bytes.blit saved 0 packet.Packet.buf off (Bytes.length saved)

let run_wave_interp batches packet =
  match batches with
  | [] -> Sb_sim.Cost_profile.Serial 0
  | [ batch ] -> Sb_sim.Cost_profile.Serial (State_function.Batch.run batch packet)
  | _ ->
      let snapshot = payload_region packet in
      let merged = ref None in
      let costs =
        List.map
          (fun batch ->
            restore_payload packet snapshot;
            let cost = State_function.Batch.run batch packet in
            let after = payload_region packet in
            if not (Bytes.equal after snapshot) then merged := Some after;
            cost)
          batches
      in
      (match !merged with
      | Some final -> restore_payload packet final
      | None -> restore_payload packet snapshot);
      Sb_sim.Cost_profile.Parallel costs

let run_steps_interp rule packet =
  List.fold_left
    (fun (verdict, rev_items) step ->
      match step with
      | Transform c ->
          let v = Consolidate.apply c packet in
          let verdict =
            match v with Header_action.Dropped -> v | Header_action.Forwarded -> verdict
          in
          (verdict, Sb_sim.Cost_profile.Serial (Consolidate.cost c) :: rev_items)
      | Waves { batches; plan } ->
          let wave_items =
            List.map
              (fun wave ->
                let wave_batches = List.map (fun i -> List.nth batches i) wave in
                run_wave_interp wave_batches packet)
              plan
          in
          (verdict, List.rev_append wave_items rev_items))
    (Header_action.Forwarded, [])
    rule.steps

(* ---- Fast-path entry points ---- *)

(* An Event Table firing is the one fast-path moment a flow's behaviour
   changes; surface it on all three observability pillars.  Only reached
   when an update actually fired, so the unarmed (and the armed-but-quiet)
   fast path never pays for it. *)
let obs_event_rewrite t ~fid ~nf packet =
  let ts_us = Sb_sim.Cycles.to_microseconds packet.Packet.ingress_cycle in
  (match Sb_obs.Sink.metrics t.obs with
  | Some m ->
      Sb_obs.Metrics.Counter.incr
        (Sb_obs.Metrics.counter m ~labels:[ ("nf", nf) ]
           ~help:"Consolidated-rule rewrites applied by Event Table firings"
           "speedybox_event_rewrites_total")
  | None -> ());
  (match Sb_obs.Sink.tracer t.obs with
  | Some tr ->
      Sb_obs.Tracer.record tr ~name:"event-rewrite" ~cat:"event" ~ts_us
        ~dur_us:(Sb_sim.Cycles.to_microseconds Sb_sim.Cycles.event_fire)
        ~tid:fid
        [ ("nf", Sb_obs.Tracer.Str nf) ]
  | None -> ());
  match Sb_obs.Sink.timeline t.obs with
  | Some tl -> Sb_obs.Timeline.record tl ~fid ~ts_us ~detail:nf Sb_obs.Timeline.Event_rewrite
  | None -> ()

let execute_rule ?egress_item t events locals fid rule packet =
  let armed, fired = Event_table.poll events fid in
  let event_cycles = armed * Sb_sim.Cycles.event_check in
  let fire_cycles = ref 0 in
  List.iter
    (fun (u : Event_table.update) ->
      (* An update's closures belong to the registering NF; a raise here is
         that NF's fault and must carry its name out to the supervisor. *)
      try
        Option.iter (fun f -> f ()) u.Event_table.update_fn;
        let local_of_nf () =
          List.find_opt (fun l -> Local_mat.nf_name l = u.Event_table.nf) locals
        in
        Option.iter
          (fun make_actions ->
            Option.iter
              (fun local -> Local_mat.replace_actions local fid (make_actions ()))
              (local_of_nf ()))
          u.Event_table.new_actions;
        Option.iter
          (fun make_sfs ->
            Option.iter
              (fun local -> Local_mat.replace_state_functions local fid (make_sfs ()))
              (local_of_nf ()))
          u.Event_table.new_state_functions;
        fire_cycles := !fire_cycles + Sb_sim.Cycles.event_fire;
        if Sb_obs.Sink.armed t.obs then obs_event_rewrite t ~fid ~nf:u.Event_table.nf packet
      with exn ->
        raise (Sb_fault.Fault.attribute ~nf:u.Event_table.nf ~origin:"event-update" exn))
    fired;
  (* A fired event recompiles the flow's program in place, so [rule] below
     is already the updated record — no re-lookup. *)
  if fired <> [] then fire_cycles := !fire_cycles + consolidate t fid locals;
  rule.last_use <- tick t;
  Sb_flow.Lru.touch t.lru rule.node;
  let program = rule.program in
  let verdict, rev_items =
    match t.exec with
    | Compiled -> run_program t program.code packet
    | Interpreted ->
        let v, rev = run_steps_interp rule packet in
        (v, rev)
  in
  (* Forwarded packets may pay an egress item (e.g. metadata detach); a
     dropped packet's descriptor is simply released. *)
  let rev_items =
    match egress_item with
    | Some item when verdict = Header_action.Forwarded -> item :: rev_items
    | Some _ | None -> rev_items
  in
  let head =
    Sb_sim.Cost_profile.Serial (program.static_head + event_cycles + !fire_cycles)
  in
  {
    verdict;
    stage = Sb_sim.Cost_profile.stage "GlobalMAT" (head :: List.rev rev_items);
    events_fired = List.length fired;
  }

let execute ?egress_item t events locals fid packet =
  match find t fid with
  | None -> None
  | Some rule -> Some (execute_rule ?egress_item t events locals fid rule packet)

let pp_step fmt = function
  | Transform c -> Format.fprintf fmt "T(%a)" Consolidate.pp c
  | Waves { batches; plan } ->
      Format.fprintf fmt "W[%s]%a"
        (String.concat "; " (List.map (Format.asprintf "%a" State_function.Batch.pp) batches))
        Parallel.pp_plan plan

let pp_rule fmt r =
  Format.fprintf fmt "@[<h>%a@]"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ") pp_step)
    r.steps
