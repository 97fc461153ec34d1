open Mlv_workload
module Runtime = Mlv_core.Runtime
module Registry = Mlv_core.Registry
module Framework = Mlv_core.Framework
module Scale_out = Mlv_core.Scale_out
module Defrag = Mlv_core.Defrag
module Bitstream = Mlv_vital.Bitstream
module Config = Mlv_accel.Config
module Perf = Mlv_accel.Perf
module Device = Mlv_fpga.Device
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module Sim = Mlv_cluster.Sim
module Network = Mlv_cluster.Network
module Fault_plan = Mlv_cluster.Fault_plan
module Rng = Mlv_util.Rng
module Codegen = Mlv_isa.Codegen
module Obs = Mlv_obs.Obs
module Series = Mlv_obs.Series
module Alert = Mlv_obs.Alert
module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Router = Mlv_sched.Router
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Mapcache = Mlv_serve.Mapcache
module Mapdb = Mlv_core.Mapdb

type fault_config = { plan : Fault_plan.t; max_retries : int }

let default_faults plan = { plan; max_retries = 3 }

type serving = {
  classes : Slo.class_spec list;
  batch : Batcher.config;
  autoscale : Autoscaler.config option;
  tenant_pool : (float * int) option;
      (* (rate_per_s, burst) of the tenant fair-share admission pool;
         requires config.tenants *)
  preempt : bool;
      (* higher-priority tenants may evict lower-priority tenants'
         replicas (migrate-or-undeploy) instead of backlogging; a
         no-op unless some tenant declares a positive tl_priority *)
  defrag : Defrag.config option;
      (* background compaction of idle replicas during low load *)
}

let default_serving =
  {
    classes = [];
    batch = Batcher.config ();
    autoscale = Some Autoscaler.default;
    tenant_pool = None;
    preempt = false;
    defrag = None;
  }

type telemetry = {
  scrape_interval_us : float;
  rules : Alert.rule list;
  series_buckets : int;
}

let default_telemetry =
  { scrape_interval_us = 10_000.0; rules = []; series_buckets = 512 }

(* The serving front door: client sessions with sticky routing and
   in-order delivery, a compiled-mapping cache, and forecast-driven
   autoscaling.  Each pillar is independently optional; all-None is
   bit-identical to a build without the front door. *)
type frontend = {
  sessions : Session.config option;
      (* long-lived client sessions keyed by tenant: per-accelerator
         replica affinity (sticky routing) and per-session in-order
         delivery of results, with idle expiry on the sim clock *)
  mapping_cache : (int * float) option;
      (* (capacity, compile_us): an LRU of compiled-mapping results
         keyed by Mapdb.shape_signature.  A request whose shape misses
         pays [compile_us] of decompose/partition/mapping work on top
         of its service time; a hit pays nothing extra *)
  predict : Autoscaler.predict option;
      (* forecast-driven autoscaling (Holt-Winters over the per-tick
         arrival rate) instead of the reactive backlog rules; requires
         serving.autoscale *)
}

let default_frontend = { sessions = None; mapping_cache = None; predict = None }

type config = {
  policy : Runtime.policy;
  composition : Genset.composition;
  tasks : int;
  mean_interarrival_us : float;
  arrival : Genset.arrival option;
  seed : int;
  repeats_per_task : int;
  slo_multiplier : float;
  cluster_kinds : Device.kind list;
  faults : fault_config option;
  serving : serving option;
  tenants : Genset.tenant_load list;
      (* non-empty: the workload is the merged multi-tenant stream and
         [tasks] is ignored in favour of the per-tenant counts *)
  bitstream_cache : int option;
      (* capacity of the runtime's bitstream staging cache; None (the
         default) keeps reconfiguration costs bit-identical to
         cacheless builds *)
  telemetry : telemetry option;
      (* None (the default) schedules no scrape ticks and registers no
         series: runs are bit-identical to pre-telemetry builds.  The
         scrape loop itself only reads run state, so even with it on,
         sim results stay bit-identical (bench/watch.ml asserts both
         directions). *)
  frontend : frontend option;
      (* the serving front door (sessions / mapping cache /
         predictive autoscaling); requires serving mode.  None (the
         default) — and Some default_frontend — are bit-identical to
         pre-front-door builds. *)
  replay : Genset.task list option;
      (* play this exact recorded task stream (see
         Mlv_serve.Trace_file) instead of generating one; overrides
         composition / tasks / arrival / tenants task generation *)
}

let default_config ~policy ~composition =
  {
    policy;
    composition;
    tasks = 120;
    mean_interarrival_us = 200.0;
    arrival = None;
    seed = 42;
    repeats_per_task = 20;
    slo_multiplier = 20.0;
    cluster_kinds = Cluster.paper_kinds;
    faults = None;
    serving = None;
    tenants = [];
    bitstream_cache = None;
    telemetry = None;
    frontend = None;
    replay = None;
  }

let arrival_of cfg =
  match cfg.arrival with
  | Some a -> a
  | None -> Genset.Exponential { mean_us = cfg.mean_interarrival_us }

(* Multi-tenant runs play the merged stream; [cfg.tasks] only drives
   the single-tenant generators.  A replay overrides both: the
   recorded trace IS the workload. *)
let task_count cfg =
  match cfg.replay with
  | Some ts -> List.length ts
  | None -> (
    match cfg.tenants with
    | [] -> cfg.tasks
    | loads -> List.fold_left (fun a l -> a + l.Genset.tl_tasks) 0 loads)

let generate_tasks ~rng cfg =
  match cfg.replay with
  | Some ts -> ts
  | None -> (
    match cfg.tenants with
    | [] ->
      Genset.generate_arrival ~rng ~composition:cfg.composition ~tasks:cfg.tasks
        ~arrival:(arrival_of cfg)
    | loads ->
      Genset.generate_tenants ~seed:cfg.seed ~composition:cfg.composition loads)

(* The exact task stream [run] will play for this config: both engines
   generate from a fresh seed-derived stream before consuming any
   other randomness, so recording this workload and replaying it is
   bit-identical to letting [run] generate it. *)
let workload cfg = generate_tasks ~rng:(Rng.create cfg.seed) cfg

(* Per-tenant slice of a multi-tenant run's accounting. *)
type tenant_stats = {
  tn_name : string;
  tn_arrived : int;
  tn_admitted : int;
  tn_shed : int;
  tn_completed : int;
  tn_rejected : int;
  tn_preempted_lost : int;
  tn_slo_misses : int;
  tn_goodput_per_s : float;
  tn_p99_latency_us : float;
}

type result = {
  completed : int;
  retried : int;
  rejected : int;
  shed : int;
  lost : int;
  makespan_us : float;
  throughput_per_s : float;
  goodput_per_s : float;
  fault_downtime_us : float;
  fault_free_throughput_per_s : float;
  mean_latency_us : float;
  mean_wait_us : float;
  wait_attempts : int;
  mean_wait_per_attempt_us : float;
  mean_service_us : float;
  p50_latency_us : float;
  p95_latency_us : float;
  p99_latency_us : float;
  peak_queue : int;
  latencies_us : float list;
  slo_misses : int;
  batches : int;
  scale_ups : int;
  scale_downs : int;
  preempted : int;
      (* tasks whose in-flight batch was cancelled by a priority
         preemption — they never complete and count separately from
         shed / rejected *)
  preemptions : int;  (* replica evictions by the preemption policy *)
  defrag_moves : int;  (* deployments moved by the background defragmenter *)
  cache_hits : int;  (* bitstream staging-cache hits (0 without a cache) *)
  cache_misses : int;
  sessions_opened : int;  (* front door: sessions opened (0 when off) *)
  sessions_expired : int;  (* front door: sessions reaped by idle expiry *)
  sticky_hits : int;  (* batches routed to a session's sticky replica *)
  sticky_misses : int;  (* sticky route dead; fell back to the router *)
  held_results : int;
      (* completions buffered for per-session in-order release *)
  mapcache_hits : int;  (* compiled-mapping cache hits (0 without a cache) *)
  mapcache_misses : int;
  mapcache_evictions : int;
  per_tenant : tenant_stats list;  (* [] unless config.tenants *)
  scrapes : int;  (* telemetry scrape ticks executed (0 when off) *)
  alert_transitions : Alert.transition list;
      (* every alert state transition, oldest first ([] when off) *)
  loop_wall_s : float;
      (* wall-clock seconds inside the event loop proper (excludes
         cluster build, workload generation and post-processing);
         nondeterministic — exclude it from bit-identity checks *)
}

(* Exact latency percentiles for the result record (the obs
   histograms track the same series to bucket resolution; tests pin
   the two views against each other).  One sort serves all three
   ranks — at a million samples the per-rank sorts dominated the
   post-processing. *)
let latency_percentiles latencies =
  match latencies with
  | [] -> (0.0, 0.0, 0.0)
  | xs -> (
    match Mlv_util.Stats.percentile_many [ 50.0; 95.0; 99.0 ] xs with
    | [ p50; p95; p99 ] -> (p50, p95, p99)
    | _ -> assert false)

(* Per-tenant running tallies; finalized into [tenant_stats] once the
   makespan is known. *)
type ttally = {
  tt_name : string;
  tt_priority : int;
      (* the tenant's tl_priority: the preemption policy's work
         priority *)
  mutable tt_arrived : int;
  mutable tt_admitted : int;
  mutable tt_shed : int;
  mutable tt_completed : int;
  mutable tt_rejected : int;
  mutable tt_preempted : int;
  mutable tt_slo_misses : int;
  mutable tt_latencies : float list;
  tt_completed_c : Obs.Counter.t;
  tt_shed_c : Obs.Counter.t;
}

(* Tallies in declaration order; the handles for the per-tenant
   labeled series are hoisted here so the per-event paths never build
   a label list. *)
let make_tallies cfg =
  List.map
    (fun (l : Genset.tenant_load) ->
      let labels = [ ("tenant", l.Genset.tl_name) ] in
      ( l.Genset.tl_name,
        {
          tt_name = l.Genset.tl_name;
          tt_priority = l.Genset.tl_priority;
          tt_arrived = 0;
          tt_admitted = 0;
          tt_shed = 0;
          tt_completed = 0;
          tt_rejected = 0;
          tt_preempted = 0;
          tt_slo_misses = 0;
          tt_latencies = [];
          tt_completed_c = Obs.Counter.get_labeled "sysim.tenant.completed" labels;
          tt_shed_c = Obs.Counter.get_labeled "sysim.tenant.shed" labels;
        } ))
    cfg.tenants

let tenant_stats_of ~makespan_us tallies =
  List.map
    (fun (_, t) ->
      {
        tn_name = t.tt_name;
        tn_arrived = t.tt_arrived;
        tn_admitted = t.tt_admitted;
        tn_shed = t.tt_shed;
        tn_completed = t.tt_completed;
        tn_rejected = t.tt_rejected;
        tn_preempted_lost = t.tt_preempted;
        tn_slo_misses = t.tt_slo_misses;
        tn_goodput_per_s =
          (if makespan_us > 0.0 then
             float_of_int (t.tt_completed - t.tt_slo_misses)
             /. (makespan_us /. 1e6)
           else 0.0);
        tn_p99_latency_us =
          (match t.tt_latencies with
          | [] -> 0.0
          | xs -> Mlv_util.Stats.percentile 99.0 xs);
      })
    tallies

(* Ten accelerator instances (paper §4.3); the largest two exceed any
   single device and exist purely as multi-FPGA deployments. *)
let instance_tile_counts = [ 4; 6; 8; 10; 13; 16; 18; 21; 32; 42 ]

let build_registry () =
  Framework.npu_registry ~iterations:2 ~tile_counts:instance_tile_counts ()

let cache_stats runtime =
  match Runtime.bitstream_cache runtime with
  | Some c -> (Bitstream.Cache.hits c, Bitstream.Cache.misses c)
  | None -> (0, 0)

let tiles_needed point =
  let words = Deepbench.weight_words point in
  let bits = words * Config.stored_bits_per_weight in
  (bits + Config.tile_weight_bits - 1) / Config.tile_weight_bits

let max_single_device_tiles =
  List.fold_left
    (fun acc kind -> max acc (Mlv_accel.Resource_model.max_tiles (Device.get kind)))
    0 Device.kinds

(* Smallest candidate covering [need] within [cap]; an oversized model
   falls back to the largest instance within the cap (streaming the
   overflow from DRAM), and None when the cap admits no instance at
   all.  [candidates] must be sorted ascending. *)
let instance_within ~need ~cap candidates =
  (* Single ascending pass, no intermediate lists: the first candidate
     in [need, cap] is the smallest cover; past the cap everything
     later is larger too, so the best seen under the cap is final. *)
  let rec pick best_large = function
    | [] -> best_large
    | t :: rest ->
      if t > cap then best_large
      else if t >= need then Some t
      else pick (Some t) rest
  in
  pick None candidates

let instance_for ~policy point =
  let need = max 6 (tiles_needed point) in
  let cap =
    if policy.Runtime.whole_device then max_single_device_tiles else max_int
  in
  match instance_within ~need ~cap instance_tile_counts with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Sysim.instance_for: no instance within %d tiles under policy %s"
         cap policy.Runtime.policy_name)

(* Scale-out sizing: [parts] must divide [hidden] for the slice
   layout; fall back to 2 when it does not.  The per-part tile count
   is derived from the {e clamped} part count — sizing it for the
   unclamped count modeled every non-divisible scale-out point with
   undersized per-part configs. *)
let scale_out_shape ~hidden ~nodes ~tiles =
  let parts = if hidden mod nodes = 0 then nodes else 2 in
  (parts, max 1 (tiles / parts))

(* Modeled service time of one deployed inference task.  Keyed by the
   model inputs directly — the sprintf key this replaces burned an
   allocation and a format pass per lookup on the serving hot path. *)
let service_cache :
    (string * int * int * string * float * float * bool, float) Hashtbl.t =
  Hashtbl.create 64

let service_latency_us ~policy ~added_latency_us (point : Deepbench.point)
    (d : Runtime.deployment) =
  let nodes = Runtime.nodes_used d in
  let tiles = Runtime.tiles_deployed d in
  let kinds =
    List.map (fun (p : Runtime.placement) -> p.Runtime.bitstream.Mlv_vital.Bitstream.device)
      d.Runtime.placements
    |> List.sort_uniq compare
  in
  let device_kind = match kinds with k :: _ -> k | [] -> Device.XCVU37P in
  (* Heterogeneous pieces: the barrier waits for the slowest device. *)
  let partner_slowdown =
    let fastest =
      List.fold_left (fun acc k -> Float.max acc (Device.get k).Device.base_freq_mhz) 1.0 kinds
    in
    let slowest =
      List.fold_left
        (fun acc k -> Float.min acc (Device.get k).Device.base_freq_mhz)
        infinity kinds
    in
    if slowest = infinity then 1.0 else fastest /. slowest
  in
  let key =
    ( Deepbench.name point,
      tiles,
      List.length nodes,
      Device.kind_name device_kind,
      partner_slowdown,
      added_latency_us,
      policy.Runtime.whole_device )
  in
  match Hashtbl.find_opt service_cache key with
  | Some v -> v
  | None ->
    let device = Device.get device_kind in
    let mem_kind = if device.Device.has_uram then Config.Bram_uram else Config.Bram_only in
    let v =
      if List.length nodes >= 2 then begin
        (* Scale-out across the allocated nodes with the overlap
           optimization. *)
        let parts, per_part =
          scale_out_shape ~hidden:point.Deepbench.hidden ~nodes:(List.length nodes)
            ~tiles
        in
        let cfg = Config.make ~tiles:per_part ~mem_kind () in
        Scale_out.multi_fpga_latency_us ~partner_slowdown ~parts ~config:cfg ~device
          ~added_latency_us ~reordered:true point.Deepbench.kind
          ~hidden:point.Deepbench.hidden ~input:point.Deepbench.hidden
          ~timesteps:point.Deepbench.timesteps
      end
      else begin
        let cfg = Config.make ~tiles ~mem_kind () in
        let program, _ =
          Codegen.generate point.Deepbench.kind ~hidden:point.Deepbench.hidden
            ~input:point.Deepbench.hidden ~timesteps:point.Deepbench.timesteps
        in
        let deploy =
          if policy.Runtime.whole_device then Perf.bare
          else begin
            let vbs =
              List.fold_left
                (fun acc p -> acc + p.Runtime.bitstream.Mlv_vital.Bitstream.vbs)
                0 d.Runtime.placements
            in
            Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true
          end
        in
        (Perf.program_latency cfg device ~deploy program).Perf.total_us
      end
    in
    Hashtbl.replace service_cache key v;
    v

type pending = {
  task : Genset.task;
  accel : string;
  mutable retries : int;
  mutable ready_us : float;
      (* when this attempt entered the queue: arrival for the first
         attempt, re-queue time after a crash retry *)
}

(* An in-service task: enough to interrupt it when its node dies.  The
   completion event stays queued after an interruption (the simulator
   has no cancel), so it checks [cancelled] before acting. *)
type inflight = {
  pend : pending;
  depl : Runtime.deployment;
  mutable cancelled : bool;
}

(* Deployment dimensions for labeled metrics and lifecycle events:
   the primary (first) node and the device kind of the first
   placement. *)
let deployment_dims (d : Runtime.deployment) =
  let node = match Runtime.nodes_used d with n :: _ -> Some n | [] -> None in
  let kind =
    match d.Runtime.placements with
    | p :: _ -> Device.kind_name p.Runtime.bitstream.Mlv_vital.Bitstream.device
    | [] -> "none"
  in
  (node, kind)

(* Closed-loop serving state.  Requests for the same accelerator
   instance form a group; a group owns replicas (live deployments kept
   warm across batches) and a backlog of batches that could not be
   placed yet. *)
type stask = {
  s_task : Genset.task;
  s_deadline_us : float;  (* class SLO deadline; 0 = multiplier rule *)
  s_session : Session.session option;
      (* front-door session (sticky routing, in-order delivery);
         None when sessions are off *)
  s_seq : int;  (* in-session sequence number; 0 when sessions are off *)
  s_compile_us : float;
      (* mapping-compilation time this request pays (cache miss);
         0 on a hit or without a mapping cache *)
}

type replica = {
  r_id : int;
  r_depl : Runtime.deployment;
  r_queue : stask list Queue.t;  (* batches assigned, not yet started *)
  mutable r_busy : bool;
  mutable r_fresh : bool;  (* reconfiguration not yet charged *)
  mutable r_idle_since : float;
  mutable r_epoch : int;
      (* bumped when a preemption cancels the in-flight batch, so the
         already-scheduled completion event recognizes it is void *)
  mutable r_inflight : stask list;  (* the batch currently in service *)
}

type sgroup = {
  g_accel : string;
  g_tracker : Autoscaler.tracker;
  mutable g_replicas : replica list;  (* creation order *)
  g_by_id : (int, replica) Hashtbl.t;  (* r_id -> replica *)
  g_backlog : stask list Queue.t;  (* batches with no replica to run on *)
  mutable g_backlog_tasks : int;  (* Σ batch sizes across g_backlog *)
  mutable g_assigned_tasks : int;  (* Σ batch sizes across replica queues *)
  mutable g_priority : int;
      (* highest tl_priority among tenants that routed work here — the
         conservative "work priority" the preemption policy compares *)
  mutable g_arrivals : int;
      (* admitted requests routed here — the predictive demand signal;
         a pure counter, no effect outside predictive mode *)
  mutable g_last_arrivals : int;  (* g_arrivals at the previous control tick *)
  g_pt : Autoscaler.ptracker option;
      (* per-group rate forecaster (predictive mode only) *)
  g_rate_s : Series.t option;
      (* serve.arrivals.rate{accel=..}: the per-tick admitted-arrival
         rate the forecaster consumes (predictive mode only) *)
}

(* ---------------- the shared engine skeleton ---------------- *)

(* [memo f] caches [f] per key: for the pure name and handle lookups
   the per-event paths would otherwise redo (a sprintf, a label list, a
   registry probe).  A hit allocates nothing. *)
let memo f =
  let tbl = Hashtbl.create 16 in
  fun k ->
    match Hashtbl.find tbl k with
    | v -> v
    | exception Not_found ->
      let v = f k in
      Hashtbl.replace tbl k v;
      v

(* [push_front q xs] puts [xs], in order, ahead of everything already
   in [q]: re-queued work is the oldest, and FIFO order must survive a
   retry. *)
let push_front q xs =
  let tmp = Queue.create () in
  List.iter (fun x -> Queue.add x tmp) xs;
  Queue.transfer q tmp;
  Queue.transfer tmp q

(* What both engines set up and tally the same way: the cluster and
   runtime, the task stream, the hoisted metric handles, the completion
   tallies and the telemetry state.  Each engine keeps its own queueing
   state (the open loop in its closure, serving in a [fleet] record) and
   drives these through the helpers below. *)
type state = {
  cfg : config;
  cluster : Cluster.t;
  runtime : Runtime.t;
  sim : Sim.t;
  tasks : Genset.task list;
  ntasks : int;
  multi : bool;
  tallies : (string * ttally) list;
  accel_name : int -> string;
      (* memoized by instance size: computing the name per arrival
         cost a sprintf per task *)
  completed_node : int -> Obs.Counter.t;
  sojourn_kind : string -> Obs.Histogram.t;
      (* labeled series are interned by (name, labels): memoized per
         dimension value so completions stop allocating label lists *)
  (* Metric handles are interned by name; hoisting the string-keyed
     registry lookups out of the per-event closures lets the hot path
     emit through direct handles. *)
  rejected_c : Obs.Counter.t;
  completed_c : Obs.Counter.t;
  arrived_c : Obs.Counter.t;
  slo_miss_c : Obs.Counter.t;
  wait_attempt_h : Obs.Histogram.t;
  service_h : Obs.Histogram.t;
  wait_h : Obs.Histogram.t;
  sojourn_h : Obs.Histogram.t;
  mutable completed : int;
  mutable rejected : int;
  mutable shed : int;  (* serving only *)
  mutable preempted : int;  (* serving only *)
  mutable slo_misses : int;
  mutable latencies : float list;  (* sojourns, newest first *)
  mutable waits : float list;  (* arrival-to-deployment waits *)
  mutable services : float list;
  mutable peak_queue : int;
  mutable makespan : float;
  mutable scrapes : int;
  mutable sojourn_s : Series.t option;  (* telemetry's sojourn p99 *)
}

let setup ~registry cfg =
  let cluster = Cluster.create ~kinds:cfg.cluster_kinds () in
  let cache =
    Option.map (fun capacity -> Bitstream.Cache.create ~capacity ()) cfg.bitstream_cache
  in
  let runtime = Runtime.create ~policy:cfg.policy ?cache cluster registry in
  let rng = Rng.create cfg.seed in
  (* Bound one by one, not inside the record below (whose field
     evaluation order is unspecified), so the metrics register in this
     order. *)
  let rejected_c = Obs.Counter.get "sysim.tasks.rejected" in
  let completed_c = Obs.Counter.get "sysim.tasks.completed" in
  let arrived_c = Obs.Counter.get "sysim.tasks.arrived" in
  let slo_miss_c = Obs.Counter.get "sysim.slo_misses" in
  let wait_attempt_h = Obs.Histogram.get "sysim.task_wait_attempt_us" in
  let service_h = Obs.Histogram.get "sysim.task_service_us" in
  let wait_h = Obs.Histogram.get "sysim.task_wait_us" in
  let sojourn_h = Obs.Histogram.get "sysim.task_sojourn_us" in
  let tasks = generate_tasks ~rng cfg in
  let tallies = make_tallies cfg in
  {
    cfg;
    cluster;
    runtime;
    sim = cluster.Cluster.sim;
    tasks;
    ntasks = task_count cfg;
    multi = cfg.tenants <> [];
    tallies;
    accel_name = memo (fun tiles -> Framework.accel_name ~tiles);
    completed_node =
      memo (fun n ->
          Obs.Counter.get_labeled "sysim.tasks.completed" [ ("node", string_of_int n) ]);
    sojourn_kind =
      memo (fun kind ->
          Obs.Histogram.get_labeled "sysim.task_sojourn_us" [ ("kind", kind) ]);
    rejected_c;
    completed_c;
    arrived_c;
    slo_miss_c;
    wait_attempt_h;
    service_h;
    wait_h;
    sojourn_h;
    completed = 0;
    rejected = 0;
    shed = 0;
    preempted = 0;
    slo_misses = 0;
    latencies = [];
    waits = [];
    services = [];
    peak_queue = 0;
    makespan = 0.0;
    scrapes = 0;
    sojourn_s = None;
  }

let accel_of_point st point = st.accel_name (instance_for ~policy:st.cfg.policy point)

let tally_of st tenant = if st.multi then List.assoc_opt tenant st.tallies else None

(* Some task is still unresolved: the periodic ticks run only while
   this holds, so a drained run terminates. *)
let unfinished st = st.completed + st.rejected + st.shed + st.preempted < st.ntasks

(* [every sim ~interval_us ~while_ f] runs [f] every [interval_us] of
   simulated time from one interval on, for as long as [while_ ()]
   holds at the tick. *)
let every sim ~interval_us ~while_ f =
  let rec tick () =
    if while_ () then begin
      f ();
      Sim.schedule sim ~delay:interval_us tick
    end
  in
  Sim.schedule sim ~delay:interval_us tick

(* Every arrival fires the shared bookkeeping (arrival counter, tenant
   tally, accelerator choice, lifecycle event), then the engine's
   [admit]. *)
let schedule_arrivals st admit =
  List.iter
    (fun (task : Genset.task) ->
      Sim.schedule_at st.sim ~at:task.Genset.arrival_us (fun () ->
          Obs.Counter.incr st.arrived_c;
          let tally = tally_of st task.Genset.tenant in
          (match tally with
          | Some t -> t.tt_arrived <- t.tt_arrived + 1
          | None -> ());
          let accel = accel_of_point st task.Genset.point in
          Obs.Trace.task Obs.Trace.Arrive task.Genset.task_id ~label:accel;
          admit task tally accel))
    st.tasks

let note_reject st (task : Genset.task) ~retries ~label =
  st.rejected <- st.rejected + 1;
  Obs.Counter.incr st.rejected_c;
  (match tally_of st task.Genset.tenant with
  | Some t -> t.tt_rejected <- t.tt_rejected + 1
  | None -> ());
  Obs.Trace.task Obs.Trace.Reject task.Genset.task_id ~retries ~label

(* One completed task: the completion counter, the sojourn histograms
   ([kind_h] is the deployment-kind one) and p99 series, the lifecycle
   event, the SLO test against [deadline_us], the makespan and the
   tenant tally.  Returns the sojourn. *)
let record_completion st ?node ~deployment ~retries ~label ~kind_h ~finished
    ~deadline_us (task : Genset.task) =
  st.completed <- st.completed + 1;
  Obs.Counter.incr st.completed_c;
  let sojourn = finished -. task.Genset.arrival_us in
  st.latencies <- sojourn :: st.latencies;
  Obs.Histogram.observe st.sojourn_h sojourn;
  (match st.sojourn_s with
  | Some s -> Series.observe s ~now_us:finished sojourn
  | None -> ());
  Obs.Histogram.observe kind_h sojourn;
  Obs.Trace.task Obs.Trace.Complete task.Genset.task_id ?node ~deployment ~retries
    ~label;
  let missed = sojourn > deadline_us in
  if missed then begin
    st.slo_misses <- st.slo_misses + 1;
    Obs.Counter.incr st.slo_miss_c
  end;
  st.makespan <- Float.max st.makespan finished;
  (match tally_of st task.Genset.tenant with
  | Some t ->
    t.tt_completed <- t.tt_completed + 1;
    t.tt_latencies <- sojourn :: t.tt_latencies;
    if missed then t.tt_slo_misses <- t.tt_slo_misses + 1;
    Obs.Counter.incr t.tt_completed_c
  | None -> ());
  sojourn

(* Telemetry scrape loop.  Ticks ride the event queue at absolute
   times k*interval so series bucket epochs align exactly with scrape
   boundaries.  A tick reschedules only while other work remains
   queued (at execution time the tick itself is already off the
   queue), so a drained run terminates instead of the loop keeping
   itself alive forever. *)
let start_scrape_loop sim ~interval_us f =
  let rec tick k () =
    f ~now_us:(Sim.now sim);
    if Sim.pending sim > 0 then
      Sim.schedule_at sim
        ~at:(float_of_int (k + 1) *. interval_us)
        (tick (k + 1))
  in
  Sim.schedule_at sim ~at:interval_us (tick 1)

(* A series owned by this run: a previous run in this process may have
   registered the name with a different interval or capacity. *)
let own_series tel kind name =
  Series.remove name;
  Series.create ~buckets:tel.series_buckets ~kind ~interval_us:tel.scrape_interval_us
    name

(* The optional scrape loop: each interval it samples the completed,
   rejected and SLO-missed rates, the engine's own [rate] tally, the
   [queue_depth] and the engine's own [gauge], plus the per-tenant
   completion and SLO-miss rates, then evaluates the alert rules; the
   sojourn p99 series is fed by {!record_completion}.  Sampling only
   reads state, so results are identical with telemetry on or off;
   series are re-created at setup so back-to-back runs in one process
   stay independent. *)
let start_telemetry st ~rate:(rate_name, rate) ~queue_depth ~gauge:(gauge_name, gauge)
    =
  Option.map
    (fun tel ->
      let engine = Alert.create tel.rules in
      let iv = tel.scrape_interval_us in
      let mk = own_series tel in
      let completed_s = mk Series.Rate "sysim.completed.rate" in
      let rejected_s = mk Series.Rate "sysim.rejected.rate" in
      let rate_s = mk Series.Rate rate_name in
      let slo_s = mk Series.Rate "sysim.slo_missed.rate" in
      let queue_s = mk Series.Gauge "sysim.queue_depth" in
      let gauge_s = mk Series.Gauge gauge_name in
      st.sojourn_s <- Some (mk (Series.Quantile 0.99) "sysim.sojourn_us.p99");
      let tenant_series =
        List.map
          (fun (_, t) ->
            let lbl = [ ("tenant", t.tt_name) ] in
            let mk_l kind name =
              Series.remove (Obs.Labels.key name lbl);
              Series.create_labeled ~buckets:tel.series_buckets ~kind ~interval_us:iv
                name lbl
            in
            ( t,
              mk_l Series.Rate "sysim.tenant.completed.rate",
              ref 0,
              mk_l Series.Rate "sysim.tenant.slo_missed.rate",
              ref 0 ))
          st.tallies
      in
      (* One scrape's worth of a monotonically growing tally: the delta
         since the previous scrape. *)
      let delta v last =
        let d = v - !last in
        last := v;
        float_of_int d
      in
      let lc = ref 0 and lr = ref 0 and lx = ref 0 and ls = ref 0 in
      start_scrape_loop st.sim ~interval_us:iv (fun ~now_us ->
          st.scrapes <- st.scrapes + 1;
          Series.observe completed_s ~now_us (delta st.completed lc);
          Series.observe rejected_s ~now_us (delta st.rejected lr);
          Series.observe rate_s ~now_us (delta (rate ()) lx);
          Series.observe slo_s ~now_us (delta st.slo_misses ls);
          Series.observe queue_s ~now_us (float_of_int (queue_depth ()));
          Series.observe gauge_s ~now_us (float_of_int (gauge ()));
          List.iter
            (fun (t, cs, lc', ss, ls') ->
              Series.observe cs ~now_us (delta t.tt_completed lc');
              Series.observe ss ~now_us (delta t.tt_slo_misses ls'))
            tenant_series;
          Alert.eval engine ~now_us);
      engine)
    st.cfg.telemetry

(* The event loop proper; returns its wall-clock seconds. *)
let run_loop st =
  let t0 = Obs.wall_us () in
  Sim.run st.sim;
  (Obs.wall_us () -. t0) /. 1e6

(* The result fields both engines derive the same way, with every
   engine-specific field at its neutral value; each engine overrides
   its own fields on the returned record. *)
let finish st ~loop_wall_s ~alerts =
  let lost = st.ntasks - st.completed - st.rejected - st.shed - st.preempted in
  if lost > 0 then Obs.Counter.add (Obs.Counter.get "sysim.tasks.lost") lost;
  let mean xs = Mlv_util.Stats.mean xs in
  let p50, p95, p99 = latency_percentiles st.latencies in
  let per_s n =
    if st.makespan > 0.0 then float_of_int n /. (st.makespan /. 1e6) else 0.0
  in
  let throughput = per_s st.completed in
  let cache_hits, cache_misses = cache_stats st.runtime in
  {
    completed = st.completed;
    retried = 0;
    rejected = st.rejected;
    shed = st.shed;
    lost;
    makespan_us = st.makespan;
    throughput_per_s = throughput;
    goodput_per_s = per_s (st.completed - st.slo_misses);
    fault_downtime_us = 0.0;
    fault_free_throughput_per_s = throughput;
    mean_latency_us = mean st.latencies;
    mean_wait_us = mean st.waits;
    wait_attempts = List.length st.waits;
    mean_wait_per_attempt_us = mean st.waits;
    mean_service_us = mean st.services;
    p50_latency_us = p50;
    p95_latency_us = p95;
    p99_latency_us = p99;
    peak_queue = st.peak_queue;
    latencies_us = List.rev st.latencies;
    slo_misses = st.slo_misses;
    batches = 0;
    scale_ups = 0;
    scale_downs = 0;
    preempted = st.preempted;
    preemptions = 0;
    defrag_moves = 0;
    cache_hits;
    cache_misses;
    sessions_opened = 0;
    sessions_expired = 0;
    sticky_hits = 0;
    sticky_misses = 0;
    held_results = 0;
    mapcache_hits = 0;
    mapcache_misses = 0;
    mapcache_evictions = 0;
    per_tenant = tenant_stats_of ~makespan_us:st.makespan st.tallies;
    scrapes = st.scrapes;
    alert_transitions =
      (match alerts with Some e -> Alert.transitions e | None -> []);
    loop_wall_s;
  }

(* ---------------- the open loop ---------------- *)

(* Fault-window bookkeeping: the nodes down now, the closed
   [start, stop] outage intervals (≥ 1 node down), and the completions
   that landed inside one. *)
type outages = {
  down : (int, unit) Hashtbl.t;
  mutable since : float option;  (* start of the open outage *)
  mutable closed : (float * float) list;
  mutable completed_in : int;
}

let outage_crash o node ~now =
  if Hashtbl.length o.down = 0 then o.since <- Some now;
  Hashtbl.replace o.down node ()

let outage_close o ~now =
  (match o.since with Some t0 -> o.closed <- (t0, now) :: o.closed | None -> ());
  o.since <- None

(* [since] is set exactly while some node is down, so restoring a node
   that is up closes nothing. *)
let outage_restore o node ~now =
  Hashtbl.remove o.down node;
  if Hashtbl.length o.down = 0 then outage_close o ~now

(* The downtime, and the throughput outside the fault window:
   completions that landed while every node was up, over the makespan
   minus the downtime overlapping it. *)
let fault_window o st (r : result) =
  let down_until stop =
    List.fold_left
      (fun acc (t0, t1) -> acc +. Float.max 0.0 (Float.min t1 stop -. t0))
      0.0 o.closed
  in
  let downtime = down_until infinity in
  let up_time = st.makespan -. down_until st.makespan in
  ( downtime,
    if downtime = 0.0 then r.throughput_per_s
    else if up_time > 0.0 then
      float_of_int (st.completed - o.completed_in) /. (up_time /. 1e6)
    else 0.0 )

(* Start [p] on its fresh deployment [d]: the service time, the
   lifecycle events and the completion, which releases [d], records
   the task and calls [on_done]. *)
let start_task st inflight o ~sojourn_kind_node (p : pending) d ~on_done =
  let now = Sim.now st.sim in
  let node, kind = deployment_dims d in
  Obs.Trace.task Obs.Trace.Deploy p.task.Genset.task_id ?node
    ~deployment:d.Runtime.id ~retries:p.retries ~label:p.accel;
  let wait = now -. p.task.Genset.arrival_us in
  let service =
    d.Runtime.reconfig_us
    +. (float_of_int st.cfg.repeats_per_task
       *. service_latency_us ~policy:st.cfg.policy
            ~added_latency_us:(Network.added_latency_us st.cluster.Cluster.network)
            p.task.Genset.point d)
  in
  st.services <- service :: st.services;
  Obs.Histogram.observe st.service_h service;
  Obs.Trace.task Obs.Trace.Service p.task.Genset.task_id ?node ~deployment:d.Runtime.id
    ~retries:p.retries ~label:p.accel;
  let fl = { pend = p; depl = d; cancelled = false } in
  let fe = Flight_table.add inflight fl ~nodes:(Runtime.nodes_used d) in
  Sim.schedule st.sim ~delay:service (fun () ->
      if not fl.cancelled then begin
        Flight_table.remove inflight fe;
        Runtime.undeploy st.runtime d;
        if Hashtbl.length o.down > 0 then o.completed_in <- o.completed_in + 1;
        Option.iter (fun n -> Obs.Counter.incr (st.completed_node n)) node;
        st.waits <- wait :: st.waits;
        Obs.Histogram.observe st.wait_h wait;
        (* SLO: a task should finish within slo_multiplier x its
           unqueued service time. *)
        let sojourn =
          record_completion st ?node ~deployment:d.Runtime.id ~retries:p.retries
            ~label:p.accel ~kind_h:(st.sojourn_kind kind) ~finished:(Sim.now st.sim)
            ~deadline_us:(st.cfg.slo_multiplier *. service)
            p.task
        in
        Option.iter
          (fun n -> Obs.Histogram.observe (sojourn_kind_node (kind, n)) sojourn)
          node;
        on_done ()
      end)

(* Open loop: a FIFO queue in front of the runtime, one deployment per
   task, optionally under a fault plan. *)
let run_open_loop ~registry cfg =
  let st = setup ~registry cfg in
  let sim = st.sim and runtime = st.runtime and cluster = st.cluster in
  let retried_c = Obs.Counter.get "sysim.tasks.retried" in
  let sojourn_kind_node =
    memo (fun (kind, n) ->
        Obs.Histogram.get_labeled "sysim.task_sojourn_us"
          [ ("kind", kind); ("node", string_of_int n) ])
  in
  let queue : pending Queue.t = Queue.create () in
  let inflight : inflight Flight_table.t = Flight_table.create () in
  let retried = ref 0 in
  let attempt_waits = ref [] in
  let o = { down = Hashtbl.create 4; since = None; closed = []; completed_in = 0 } in
  let alerts =
    start_telemetry st
      ~rate:("sysim.retried.rate", fun () -> !retried)
      ~queue_depth:(fun () -> Queue.length queue)
      ~gauge:("sysim.nodes_down", fun () -> Hashtbl.length o.down)
  in
  let reject (p : pending) = note_reject st p.task ~retries:p.retries ~label:p.accel in
  let rec try_start () =
    if not (Queue.is_empty queue) then begin
      let p = Queue.peek queue in
      match Runtime.deploy runtime ~accel:p.accel with
      | Error _ ->
        (* The head blocks the FIFO queue to avoid starvation — but a
           head that cannot deploy even on an empty, fully healthy
           cluster will never start: reject it instead of stalling the
           queue (and the run's accounting) forever. *)
        if Runtime.deployments runtime = [] && Runtime.failed_nodes runtime = []
        then begin
          ignore (Queue.pop queue);
          reject p;
          try_start ()
        end
      | Ok d ->
        ignore (Queue.pop queue);
        (* Two wait views: end-to-end (from the task's original arrival
           to the deployment that actually completes, so a crash retry
           accumulates every round of queueing into one entry —
           recorded once the service survives) and per attempt (from
           when this attempt entered the queue, recorded here).  They
           differ only for retried tasks. *)
        let attempt_wait = Sim.now sim -. p.ready_us in
        attempt_waits := attempt_wait :: !attempt_waits;
        Obs.Histogram.observe st.wait_attempt_h attempt_wait;
        start_task st inflight o ~sojourn_kind_node p d ~on_done:try_start;
        try_start ()
    end
  in
  let max_retries = match cfg.faults with Some f -> f.max_retries | None -> 0 in
  let on_crash node =
    Runtime.mark_node_failed runtime node;
    outage_crash o node ~now:(Sim.now sim);
    (* Interrupt every in-service task with a piece on the dead node:
       its partial progress is gone, its surviving placements free up,
       and it goes back to the head of the queue — unless it already
       burnt its retry budget, in which case it is rejected rather
       than starving the queue. *)
    let hit =
      List.map Flight_table.value (Flight_table.take_node inflight node)
      |> List.sort (fun a b ->
             compare a.pend.task.Genset.task_id b.pend.task.Genset.task_id)
    in
    List.iter
      (fun fl ->
        fl.cancelled <- true;
        Runtime.undeploy runtime fl.depl;
        Obs.Trace.task Obs.Trace.Crash_interrupt fl.pend.task.Genset.task_id
          ~node ~deployment:fl.depl.Runtime.id ~retries:fl.pend.retries
          ~label:fl.pend.accel)
      hit;
    let again, exhausted =
      List.partition (fun fl -> fl.pend.retries < max_retries) hit
    in
    List.iter
      (fun fl ->
        fl.pend.retries <- fl.pend.retries + 1;
        fl.pend.ready_us <- Sim.now sim;
        incr retried;
        Obs.Counter.incr retried_c;
        Obs.Trace.task Obs.Trace.Retry fl.pend.task.Genset.task_id ~node
          ~retries:fl.pend.retries ~label:fl.pend.accel)
      again;
    push_front queue (List.map (fun fl -> fl.pend) again);
    List.iter (fun fl -> reject fl.pend) exhausted;
    try_start ()
  in
  let on_restore node =
    Runtime.restore_node runtime node;
    outage_restore o node ~now:(Sim.now sim);
    try_start ()
  in
  let on_degrade us = Network.set_added_latency_us cluster.Cluster.network us in
  schedule_arrivals st (fun task _ accel ->
      Queue.add { task; accel; retries = 0; ready_us = task.Genset.arrival_us } queue;
      Obs.Trace.task Obs.Trace.Queue task.Genset.task_id ~label:accel;
      st.peak_queue <- max st.peak_queue (Queue.length queue);
      try_start ());
  Option.iter
    (fun f ->
      (match Fault_plan.validate f.plan ~nodes:(Cluster.node_count cluster) with
      | Ok () -> ()
      | Error e -> invalid_arg ("Sysim.run: " ^ e));
      Fault_plan.schedule f.plan sim ~on_crash ~on_restore ~on_degrade)
    cfg.faults;
  let loop_wall_s = run_loop st in
  (* Tasks still queued when the events drained could not be served
     (e.g. a crash that was never restored): reject them so every
     task is accounted for instead of silently starving. *)
  Queue.iter reject queue;
  Queue.clear queue;
  outage_close o ~now:(Sim.now sim);
  let r = finish st ~loop_wall_s ~alerts in
  let fault_downtime_us, fault_free_throughput_per_s = fault_window o st r in
  {
    r with
    retried = !retried;
    fault_downtime_us;
    fault_free_throughput_per_s;
    wait_attempts = List.length !attempt_waits;
    mean_wait_per_attempt_us = Mlv_util.Stats.mean !attempt_waits;
  }

(* ---------------- the serving engine ---------------- *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* Closed-loop serving: admission gate -> batcher -> router ->
   replicas, with control ticks on the sim clock.  The engine's state
   is one record; its stages are the functions below, each calling only
   stages defined above it: place (grow, reclaim, preempt), complete
   (start service, completion, in-order delivery), dispatch (sticky
   pick, router), admit (gate, session, mapping cache, batcher), the
   control ticks (autoscale, defrag, session expiry) and the drain.

   Groups live in a map keyed by accelerator name: its ascending key
   order is the one deterministic order every fleet-wide decision
   sweeps in.  [starved] holds the groups whose backlog is non-empty;
   only the backlog helpers touch it, so it stays exact and a
   completion with nothing starved costs one emptiness test. *)
type fleet = {
  st : state;
  serving : serving;
  fe : frontend;
  gate : Slo.t;
  sessions : Session.t option;
  mapcache : (unit Mapcache.t * float) option;  (* (cache, compile_us) *)
  shape_sig_of : string -> string;
      (* shape signatures are a pure function of the registered plan;
         memoized so the admission path pays one hash lookup *)
  feasible : string -> bool;
  batcher : stask Batcher.t;
  router : Router.t;
  batches_c : Obs.Counter.t;
  shed_c : Obs.Counter.t;
  autoscale_backlog_s : Series.t option;
      (* sampled by the autoscaler tick, not by the scrape loop *)
  mutable groups : sgroup Smap.t;
  mutable starved : Sset.t;
  mutable busy : int;  (* replicas with a batch in service *)
  mutable queued : int;  (* admitted requests not yet in service *)
  mutable arrivals_in : int;
  mutable scale_ups : int;  (* also the next replica id *)
  mutable scale_downs : int;
  mutable preemptions : int;
  mutable defrag_moves : int;
}

let create_fleet ~registry cfg serving =
  let st = setup ~registry cfg in
  let batches_c = Obs.Counter.get "sysim.serving.batches" in
  let shed_c = Obs.Counter.get "sysim.serving.shed" in
  let gate = Slo.create serving.classes in
  (match serving.tenant_pool with
  | None -> ()
  | Some (rate_per_s, burst) ->
    if not st.multi then
      invalid_arg "Sysim.run: serving.tenant_pool requires config.tenants";
    Slo.set_tenant_pool gate ~rate_per_s ~burst
      (List.map
         (fun (l : Genset.tenant_load) ->
           Slo.tenant_spec ~weight:l.Genset.tl_weight ~priority:l.Genset.tl_priority
             l.Genset.tl_name)
         cfg.tenants));
  (* The serving front door: all-None (the default) takes none of its
     branches and is bit-identical to a build without it. *)
  let fe = match cfg.frontend with Some f -> f | None -> default_frontend in
  let sessions = Option.map Session.create fe.sessions in
  let mapcache =
    Option.map
      (fun (capacity, compile_us) -> (Mapcache.create ~capacity (), compile_us))
      fe.mapping_cache
  in
  let batcher = Batcher.create serving.batch in
  let router = Router.create () in
  {
    st;
    serving;
    fe;
    gate;
    sessions;
    mapcache;
    shape_sig_of =
      memo (fun accel ->
          match Registry.plan registry accel with
          | Some p -> Mapdb.shape_signature p
          | None -> accel);
    (* An accelerator that cannot deploy even on an empty, fully
       healthy cluster must never trigger an eviction — the freed space
       could not satisfy it anyway.  Probed once per accelerator on a
       scratch clone of the configured cluster. *)
    feasible =
      memo (fun accel ->
          let scratch =
            Runtime.create ~policy:cfg.policy
              (Cluster.create ~kinds:cfg.cluster_kinds ())
              registry
          in
          match Runtime.deploy scratch ~accel with Ok _ -> true | Error _ -> false);
    batcher;
    router;
    batches_c;
    shed_c;
    autoscale_backlog_s =
      Option.map
        (fun tel -> own_series tel Series.Gauge "sysim.autoscale.backlog")
        cfg.telemetry;
    groups = Smap.empty;
    starved = Sset.empty;
    busy = 0;
    queued = 0;
    arrivals_in = 0;
    scale_ups = 0;
    scale_downs = 0;
    preemptions = 0;
    defrag_moves = 0;
  }

let group_of fl accel =
  match Smap.find accel fl.groups with
  | g -> g
  | exception Not_found ->
    let g =
      {
        g_accel = accel;
        g_tracker = Autoscaler.tracker ~name:("sojourn." ^ accel);
        g_replicas = [];
        g_by_id = Hashtbl.create 8;
        g_backlog = Queue.create ();
        g_backlog_tasks = 0;
        g_assigned_tasks = 0;
        g_priority = 0;
        g_arrivals = 0;
        g_last_arrivals = 0;
        g_pt = Option.map Autoscaler.ptracker fl.fe.predict;
        g_rate_s =
          (match (fl.fe.predict, fl.serving.autoscale) with
          | Some _, Some acfg ->
            let lbl = [ ("accel", accel) ] in
            (* Own the name: a previous run in this process may have
               registered it with a different interval. *)
            Series.remove (Obs.Labels.key "serve.arrivals.rate" lbl);
            Some
              (Series.create_labeled ~buckets:512 ~kind:Series.Gauge
                 ~interval_us:acfg.interval_us "serve.arrivals.rate" lbl)
          | _ -> None);
      }
    in
    fl.groups <- Smap.add accel g fl.groups;
    g

let is_idle r = (not r.r_busy) && Queue.is_empty r.r_queue

(* [fold_replicas fl f init] folds [f] over every replica: groups in
   key order, each group's replicas in creation order. *)
let fold_replicas fl f init =
  Smap.fold
    (fun _ g acc -> List.fold_left (fun acc r -> f acc g r) acc g.g_replicas)
    fl.groups init

(* The longer-idle of [best] and [r] when [r] is idle; a tie keeps
   [best], the earlier one in sweep order. *)
let longest_idle best g r =
  if not (is_idle r) then best
  else
    match best with
    | Some (_, b) when b.r_idle_since <= r.r_idle_since -> best
    | _ -> Some (g, r)

(* ---- backlog: the only writers of [starved] ---- *)

let backlog_push fl g batch =
  Queue.add batch g.g_backlog;
  g.g_backlog_tasks <- g.g_backlog_tasks + List.length batch;
  fl.starved <- Sset.add g.g_accel fl.starved

let backlog_pop fl g =
  let b = Queue.pop g.g_backlog in
  g.g_backlog_tasks <- g.g_backlog_tasks - List.length b;
  if Queue.is_empty g.g_backlog then fl.starved <- Sset.remove g.g_accel fl.starved;
  b

(* An evicted replica's queued batches are its group's oldest work:
   append the backlog behind them, then move the lot back. *)
let backlog_requeue fl g r =
  if not (Queue.is_empty r.r_queue) then begin
    Queue.iter
      (fun b ->
        let n = List.length b in
        g.g_assigned_tasks <- g.g_assigned_tasks - n;
        g.g_backlog_tasks <- g.g_backlog_tasks + n)
      r.r_queue;
    Queue.transfer g.g_backlog r.r_queue;
    Queue.transfer r.r_queue g.g_backlog;
    fl.starved <- Sset.add g.g_accel fl.starved
  end

(* A dropped request (rejected or preempted) must not block its
   session's in-order stream. *)
let skip_session fl req ~now_us =
  match (fl.sessions, req.s_session) with
  | Some stbl, Some sess -> Session.skip stbl sess ~seq:req.s_seq ~now_us
  | _ -> ()

let reject_stask fl ~accel req =
  fl.queued <- fl.queued - 1;
  skip_session fl req ~now_us:(Sim.now fl.st.sim);
  note_reject fl.st req.s_task ~retries:0 ~label:accel

let reject_backlog fl g =
  while not (Queue.is_empty g.g_backlog) do
    List.iter (reject_stask fl ~accel:g.g_accel) (backlog_pop fl g)
  done

(* ---- place: grow, reclaim, preempt ---- *)

let remove_replica fl g r =
  Router.remove_replica fl.router ~key:g.g_accel ~replica_id:r.r_id;
  g.g_replicas <- List.filter (fun x -> x != r) g.g_replicas;
  Hashtbl.remove g.g_by_id r.r_id;
  Runtime.undeploy fl.st.runtime r.r_depl

let add_replica fl g d =
  let now = Sim.now fl.st.sim in
  let id = fl.scale_ups in
  let r =
    {
      r_id = id;
      r_depl = d;
      r_queue = Queue.create ();
      r_busy = false;
      r_fresh = true;
      r_idle_since = now;
      r_epoch = 0;
      r_inflight = [];
    }
  in
  Router.add_replica fl.router ~key:g.g_accel ~replica_id:id ~weight:1.0;
  g.g_replicas <- g.g_replicas @ [ r ];
  Hashtbl.replace g.g_by_id id r;
  fl.scale_ups <- id + 1;
  Obs.Counter.incr (Obs.Counter.get "sysim.serving.scale_up");
  Autoscaler.mark_scaled g.g_tracker ~now_us:now

(* The longest-idle idle replica of any group but [excluding] — the
   reclaim candidate when a starved group cannot deploy. *)
let reclaim_candidate fl ~excluding =
  fold_replicas fl
    (fun best g r -> if g == excluding then best else longest_idle best g r)
    None

(* Add a replica to [g]: deploy, optionally reclaiming idle replicas
   from other groups until the deploy fits.  [`Dead] means the accel
   can never deploy: nothing is busy, nothing is left to reclaim, and
   the mapper still refuses — mirror the open loop and reject rather
   than wait forever. *)
let rec grow fl g ~allow_reclaim =
  match Runtime.deploy fl.st.runtime ~accel:g.g_accel with
  | Ok d ->
    add_replica fl g d;
    `Ok
  | Error _ ->
    if allow_reclaim then
      match reclaim_candidate fl ~excluding:g with
      | Some (g', r) ->
        Obs.Counter.incr (Obs.Counter.get "sysim.serving.reclaimed");
        remove_replica fl g' r;
        grow fl g ~allow_reclaim
      | None -> if fl.busy > 0 then `Full else `Dead
    else if fl.busy > 0 || g.g_replicas <> [] then `Full
    else if reclaim_candidate fl ~excluding:g = None then `Dead
    else `Full

(* Victim for a priority preemption: any replica of a group whose work
   priority is below the demanding batch's — lowest priority first,
   idle before queued before busy, then lowest replica id (the
   deterministic tie-break). *)
let preempt_candidate fl ~excluding ~prio =
  fold_replicas fl
    (fun best g r ->
      if g == excluding || g.g_priority >= prio then best
      else
        let rank = if is_idle r then 0 else if not r.r_busy then 1 else 2 in
        let key = (g.g_priority, rank, r.r_id) in
        match best with
        | Some (bkey, _, _) when bkey <= key -> best
        | _ -> Some (key, g, r))
    None

(* Evict a victim replica: cancel its in-flight batch (those tasks are
   preempted losses, closing the per-tenant identity arrived =
   completed + shed + rejected + preempted), requeue its untouched
   batches at the front of its own group's backlog, and undeploy. *)
let preempt_replica fl g r ~now =
  let st = fl.st in
  if r.r_busy then begin
    r.r_epoch <- r.r_epoch + 1 (* orphan the scheduled completion *);
    r.r_busy <- false;
    fl.busy <- fl.busy - 1;
    List.iter
      (fun (req : stask) ->
        st.preempted <- st.preempted + 1;
        Obs.Counter.incr (Obs.Counter.get "sysim.serving.preempted");
        skip_session fl req ~now_us:now;
        Option.iter
          (fun t -> t.tt_preempted <- t.tt_preempted + 1)
          (tally_of st req.s_task.Genset.tenant))
      r.r_inflight;
    r.r_inflight <- []
  end;
  backlog_requeue fl g r;
  remove_replica fl g r;
  fl.preemptions <- fl.preemptions + 1;
  Obs.Counter.incr (Obs.Counter.get "sysim.serving.preemptions");
  Autoscaler.mark_scaled g.g_tracker ~now_us:now

(* Admission with preemption: when the mapper refuses and the
   demanding batch carries tenant priority, evict lower-priority work.
   An idle victim is first relocated (force-migrate; the rollback
   guarantee keeps it live on failure) in case a denser packing alone
   frees the needed device; a victim that stays in the way is
   undeployed.  [tried] lists replicas already relocated so none
   relocates twice — every step then either grows [tried] (bounded by
   the replica count) or evicts a replica, so the loop terminates. *)
let rec grow_preempting fl g ~prio ~tried =
  match grow fl g ~allow_reclaim:(fl.serving.autoscale <> None) with
  | (`Ok | `Dead) as outcome -> outcome
  | `Full when not (fl.feasible g.g_accel) -> `Dead
  | `Full -> (
    match preempt_candidate fl ~excluding:g ~prio with
    | None -> `Full
    | Some (_, g', r) ->
      if
        (not (List.mem r.r_id tried))
        && is_idle r
        &&
        match Runtime.migrate ~force:true fl.st.runtime r.r_depl with
        | Ok m -> m > 0
        | Error _ -> false
      then grow_preempting fl g ~prio ~tried:(r.r_id :: tried)
      else begin
        preempt_replica fl g' r ~now:(Sim.now fl.st.sim);
        grow_preempting fl g ~prio ~tried
      end)

(* ---- complete: start service, completion, in-order delivery ---- *)

(* Route a batch onto a replica: router bookkeeping and the queue
   append, with the group's assigned-task counter kept in step. *)
let assign fl g r batch =
  let n = List.length batch in
  Router.begin_work fl.router ~key:g.g_accel ~replica_id:r.r_id n;
  g.g_assigned_tasks <- g.g_assigned_tasks + n;
  Queue.add batch r.r_queue

(* Start the replica's next queued batch.  Reconfiguration (and
   mapping compilation) is charged once per batch and amortized across
   its tasks; each task's share is computed here and carried to its
   completion. *)
let rec start_replica fl g r =
  if (not r.r_busy) && not (Queue.is_empty r.r_queue) then begin
    let st = fl.st in
    let batch = Queue.pop r.r_queue in
    let n = List.length batch in
    g.g_assigned_tasks <- g.g_assigned_tasks - n;
    r.r_busy <- true;
    fl.busy <- fl.busy + 1;
    r.r_inflight <- batch;
    let epoch = r.r_epoch in
    let now = Sim.now st.sim in
    let d = r.r_depl in
    let node, kind = deployment_dims d in
    let added = Network.added_latency_us st.cluster.Cluster.network in
    let reconfig = if r.r_fresh then d.Runtime.reconfig_us else 0.0 in
    r.r_fresh <- false;
    let per_task =
      List.map
        (fun req ->
          float_of_int st.cfg.repeats_per_task
          *. service_latency_us ~policy:st.cfg.policy ~added_latency_us:added
               req.s_task.Genset.point d)
        batch
    in
    (* Mapping-cache misses pay their compilation on the batch, like
       reconfiguration does; all-hit (or cacheless) batches add an
       exact 0.0, keeping service times bit-identical. *)
    let compile = List.fold_left (fun a req -> a +. req.s_compile_us) 0.0 batch in
    let service = reconfig +. compile +. List.fold_left ( +. ) 0.0 per_task in
    let amortized = (reconfig +. compile) /. float_of_int n in
    let task_services =
      List.map2
        (fun req svc ->
          fl.queued <- fl.queued - 1;
          let id = req.s_task.Genset.task_id in
          Obs.Trace.task Obs.Trace.Deploy id ?node ~deployment:d.Runtime.id ~retries:0
            ~label:g.g_accel;
          (* No retries in serving mode: per-attempt and end-to-end
             waits coincide. *)
          let wait = now -. req.s_task.Genset.arrival_us in
          st.waits <- wait :: st.waits;
          Obs.Histogram.observe st.wait_h wait;
          Obs.Histogram.observe st.wait_attempt_h wait;
          let task_service = svc +. amortized in
          st.services <- task_service :: st.services;
          Obs.Histogram.observe st.service_h task_service;
          Option.iter (fun pt -> Autoscaler.observe_service pt task_service) g.g_pt;
          Obs.Trace.task Obs.Trace.Service id ?node ~deployment:d.Runtime.id ~retries:0
            ~label:g.g_accel;
          task_service)
        batch per_task
    in
    Sim.schedule st.sim ~delay:service (fun () ->
        (* A preemption during service bumped the epoch: the replica is
           gone and its batch was already counted as preempted — this
           completion is void. *)
        if r.r_epoch = epoch then complete fl g r batch task_services ~node ~kind)
  end

and complete fl g r batch task_services ~node ~kind =
  let st = fl.st in
  let finished = Sim.now st.sim in
  r.r_busy <- false;
  fl.busy <- fl.busy - 1;
  r.r_inflight <- [];
  r.r_idle_since <- finished;
  Router.end_work fl.router ~key:g.g_accel ~replica_id:r.r_id (List.length batch);
  (* Looked up at completion, node counter first, as the open loop
     does: a held result still counts on the node that ran it. *)
  let node_c = Option.map st.completed_node node in
  let kind_h = st.sojourn_kind kind in
  (* One task's result delivery.  Without sessions it runs inline at
     [finished]; with sessions it routes through the in-order stream,
     so a held result is delivered (and timed) at the releasing event's
     clock. *)
  let record (req : stask) task_service ~finished =
    (match node_c with Some c -> Obs.Counter.incr c | None -> ());
    let deadline_us =
      if req.s_deadline_us > 0.0 then req.s_deadline_us
      else st.cfg.slo_multiplier *. task_service
    in
    let sojourn =
      record_completion st ?node ~deployment:r.r_depl.Runtime.id ~retries:0
        ~label:g.g_accel ~kind_h ~finished ~deadline_us req.s_task
    in
    Autoscaler.observe_sojourn g.g_tracker sojourn
  in
  List.iter2
    (fun req task_service ->
      match (fl.sessions, req.s_session) with
      | Some stbl, Some sess ->
        Session.complete stbl sess ~seq:req.s_seq ~now_us:finished (fun ~now_us ->
            record req task_service ~finished:now_us)
      | _ -> record req task_service ~finished)
    batch task_services;
  st.makespan <- Float.max st.makespan finished;
  if Queue.is_empty r.r_queue && not (Queue.is_empty g.g_backlog) then
    assign fl g r (backlog_pop fl g);
  start_replica fl g r;
  pump_all fl

(* A completion anywhere may unblock a starved group: retry bootstrap
   deploys for the groups whose backlog has no replica, in key
   order. *)
and pump_all fl =
  if not (Sset.is_empty fl.starved) then
    Sset.iter (fun k -> pump_group fl (Smap.find k fl.groups)) fl.starved

and pump_group fl g =
  if not (Queue.is_empty g.g_backlog) then begin
    match Router.pick fl.router ~key:g.g_accel with
    | Some rid ->
      let r = Hashtbl.find g.g_by_id rid in
      if is_idle r then begin
        assign fl g r (backlog_pop fl g);
        start_replica fl g r;
        pump_group fl g
      end
    | None -> (
      match grow fl g ~allow_reclaim:false with
      | `Ok -> pump_group fl g
      | `Dead -> reject_backlog fl g
      | `Full -> ())
  end

(* ---- dispatch: sticky pick, router ---- *)

(* Sticky routing: a batch whose head belongs to a session goes back to
   the replica that served that session last (warm weights, warm
   cache) when it is still alive; otherwise the router picks and the
   choice becomes the session's new affinity.  Without sessions this is
   exactly [Router.pick]. *)
let sticky_pick fl g batch =
  match (fl.sessions, batch) with
  | Some stbl, { s_session = Some sess; _ } :: _ -> (
    match Session.affinity sess ~accel:g.g_accel with
    | Some rid when Hashtbl.mem g.g_by_id rid ->
      Session.note_sticky stbl true;
      Some rid
    | _ -> (
      match Router.pick fl.router ~key:g.g_accel with
      | Some rid ->
        Session.note_sticky stbl false;
        Session.set_affinity sess ~accel:g.g_accel ~replica:rid;
        Some rid
      | None -> None))
  | _ -> Router.pick fl.router ~key:g.g_accel

let rec dispatch fl g batch =
  Obs.Counter.incr fl.batches_c;
  match sticky_pick fl g batch with
  | Some rid ->
    let r = Hashtbl.find g.g_by_id rid in
    assign fl g r batch;
    start_replica fl g r
  | None -> (
    (* the batch's highest tenant priority: 0, never preempting, without tenants *)
    let prio =
      if fl.serving.preempt then
        List.fold_left
          (fun a req ->
            match tally_of fl.st req.s_task.Genset.tenant with
            | Some t -> max a t.tt_priority
            | None -> a)
          0 batch
      else 0
    in
    let outcome =
      if prio > 0 then grow_preempting fl g ~prio ~tried:[]
      else grow fl g ~allow_reclaim:(fl.serving.autoscale <> None)
    in
    match outcome with
    | `Ok -> dispatch fl g batch
    | `Full -> backlog_push fl g batch
    | `Dead -> List.iter (reject_stask fl ~accel:g.g_accel) batch)

(* ---- admit: gate, session, mapping cache, batcher ---- *)

(* Front door: the request joins its client's session stream (one
   session per tenant) and probes the compiled-mapping cache — a miss
   pays [compile_us] of mapping work on top of service, a hit pays
   nothing. *)
let request fl (task : Genset.task) ~class_name ~accel ~now =
  let sess =
    Option.map (fun stbl -> Session.touch stbl ~now_us:now task.Genset.tenant) fl.sessions
  in
  let seq = match sess with Some s -> Session.submit s | None -> 0 in
  let compile_us =
    match fl.mapcache with
    | None -> 0.0
    | Some (mc, cost) -> (
      match Mapcache.find mc (fl.shape_sig_of accel) with
      | Some () -> 0.0
      | None ->
        Mapcache.put mc (fl.shape_sig_of accel) ();
        cost)
  in
  {
    s_task = task;
    s_deadline_us =
      (match Slo.find fl.gate class_name with Some c -> c.Slo.deadline_us | None -> 0.0);
    s_session = sess;
    s_seq = seq;
    s_compile_us = compile_us;
  }

let admit fl (task : Genset.task) tally accel =
  let st = fl.st in
  fl.arrivals_in <- fl.arrivals_in + 1;
  let now = Sim.now st.sim in
  let class_name = Sizes.name task.Genset.model_class in
  let verdict =
    if st.multi then Slo.admit ~tenant:task.Genset.tenant fl.gate ~class_name ~now_us:now
    else Slo.admit fl.gate ~class_name ~now_us:now
  in
  match verdict with
  | Slo.Shed_rate | Slo.Shed_priority | Slo.Shed_tenant ->
    st.shed <- st.shed + 1;
    Obs.Counter.incr fl.shed_c;
    Option.iter
      (fun t ->
        t.tt_shed <- t.tt_shed + 1;
        Obs.Counter.incr t.tt_shed_c)
      tally;
    Obs.Trace.task Obs.Trace.Reject task.Genset.task_id ~retries:0 ~label:accel
  | Slo.Admitted -> (
    (match tally with Some t -> t.tt_admitted <- t.tt_admitted + 1 | None -> ());
    let req = request fl task ~class_name ~accel ~now in
    fl.queued <- fl.queued + 1;
    st.peak_queue <- max st.peak_queue fl.queued;
    Obs.Trace.task Obs.Trace.Queue task.Genset.task_id ~label:accel;
    let g = group_of fl accel in
    g.g_arrivals <- g.g_arrivals + 1;
    (match tally with
    | Some t when t.tt_priority > g.g_priority -> g.g_priority <- t.tt_priority
    | _ -> ());
    match Batcher.add fl.batcher ~key:accel ~now_us:now req with
    | Batcher.Dispatch batch -> dispatch fl g batch
    | Batcher.Opened deadline ->
      Sim.schedule_at st.sim ~at:deadline (fun () ->
          match Batcher.flush_due fl.batcher ~key:accel ~now_us:(Sim.now st.sim) with
          | [] -> ()
          | batch -> dispatch fl g batch)
    | Batcher.Joined -> ())

(* ---- control ticks: autoscale, defrag, session expiry ---- *)

(* Scale-down takes the group's longest-idle idle replica, then tries
   to consolidate a surviving idle multi-piece replica into a denser
   packing (the mapping search sees the freed space). *)
let scale_down fl g ~now =
  match List.fold_left (fun best r -> longest_idle best g r) None g.g_replicas with
  | None -> ()
  | Some (_, r) ->
    remove_replica fl g r;
    fl.scale_downs <- fl.scale_downs + 1;
    Obs.Counter.incr (Obs.Counter.get "sysim.serving.scale_down");
    Autoscaler.mark_scaled g.g_tracker ~now_us:now;
    List.iter
      (fun r' ->
        if is_idle r' && List.length r'.r_depl.Runtime.placements > 1 then
          match Runtime.migrate ~force:true fl.st.runtime r'.r_depl with
          | Ok m when m > 0 ->
            Obs.Counter.incr (Obs.Counter.get "sysim.serving.consolidated")
          | Ok _ | Error _ -> ())
      g.g_replicas

(* One group's autoscaling decision; returns the group's backlog and
   whether a scale-up found the fabric full.  Predictive mode feeds the
   tick's admitted-arrival rate to the forecaster and grows toward its
   target in one tick; reactive mode keeps the one-step watermark rules
   (its target is the current size, so the growth loop runs exactly
   once). *)
let autoscale_group fl acfg g ~now =
  let backlog =
    Batcher.pending fl.batcher ~key:g.g_accel + g.g_backlog_tasks + g.g_assigned_tasks
  in
  let replicas = List.length g.g_replicas in
  let idle =
    List.length
      (List.filter
         (fun r -> is_idle r && now -. r.r_idle_since >= acfg.Autoscaler.idle_timeout_us)
         g.g_replicas)
  in
  let deadline_us = Slo.min_deadline_us fl.gate in
  let decision, target =
    match (g.g_pt, fl.fe.predict) with
    | Some pt, Some p ->
      let delta = g.g_arrivals - g.g_last_arrivals in
      g.g_last_arrivals <- g.g_arrivals;
      let rate = float_of_int delta /. (acfg.Autoscaler.interval_us /. 1e6) in
      (match g.g_rate_s with Some s -> Series.observe s ~now_us:now rate | None -> ());
      Autoscaler.observe_rate pt rate;
      Autoscaler.decide_predictive acfg p g.g_tracker pt ~now_us:now ~backlog ~replicas
        ~idle ~deadline_us
    | _ ->
      ( Autoscaler.decide acfg g.g_tracker ~now_us:now ~backlog ~replicas ~idle
          ~deadline_us,
        replicas )
  in
  let rec grow_n k =
    k > 0
    &&
    match grow fl g ~allow_reclaim:true with
    | `Ok ->
      pump_group fl g;
      grow_n (k - 1)
    | `Full -> true
    | `Dead ->
      reject_backlog fl g;
      false
  in
  let full =
    match decision with
    | Autoscaler.Scale_up -> grow_n (max 1 (target - replicas))
    | Autoscaler.Scale_down ->
      scale_down fl g ~now;
      false
    | Autoscaler.Hold -> false
  in
  (backlog, full)

(* Capacity-bound (some scale-up found the fabric full): shed the
   lowest-priority class at the gate until a tick passes without an
   unsatisfied scale-up. *)
let autoscale_tick fl acfg =
  let now = Sim.now fl.st.sim in
  let total_backlog, capacity_bound =
    Smap.fold
      (fun _ g (total, bound) ->
        let backlog, full = autoscale_group fl acfg g ~now in
        (total + backlog, bound || full))
      fl.groups (0, false)
  in
  if capacity_bound && Slo.classes fl.gate <> [] then
    Slo.set_shed_below fl.gate
      (List.fold_left
         (fun acc (c : Slo.class_spec) -> min acc c.priority)
         max_int (Slo.classes fl.gate)
      + 1)
  else Slo.set_shed_below fl.gate min_int;
  match fl.autoscale_backlog_s with
  | Some s -> Series.observe s ~now_us:now (float_of_int total_backlog)
  | None -> ()

(* Background defragmentation: compact idle replicas when the fleet is
   quiet (nothing starved) and the fragmentation index crosses the
   policy threshold.  In-flight batches are never moved — only
   deployments of idle replicas are eligible. *)
let defrag_tick fl dcfg =
  if Sset.is_empty fl.starved && Defrag.should_run dcfg fl.st.runtime then begin
    let ids = Hashtbl.create 16 in
    fold_replicas fl
      (fun () _ r -> if is_idle r then Hashtbl.replace ids r.r_depl.Runtime.id ())
      ();
    let pass =
      Defrag.run_pass
        ~eligible:(fun (d : Runtime.deployment) -> Hashtbl.mem ids d.Runtime.id)
        dcfg fl.st.runtime
    in
    fl.defrag_moves <- fl.defrag_moves + pass.Defrag.moved
  end

(* The defrag and session-expiry ticks must not keep the event queue
   alive once no progress is possible: when every arrival has fired,
   nothing is in service and no batch is lingering, the remaining
   backlog is permanently starved (e.g. its replica was preempted and
   the fabric never frees up) and the run must drain so the leftovers
   can be rejected. *)
let progressing fl =
  unfinished fl.st
  && not
       (fl.arrivals_in >= fl.st.ntasks
       && fl.busy = 0
       && Smap.for_all (fun k _ -> Batcher.pending fl.batcher ~key:k = 0) fl.groups)

(* ---- drain ---- *)

(* Whatever never reached a replica is rejected, and the warm pool is
   torn down, so every task and every placement is accounted for. *)
let drain fl =
  Smap.iter
    (fun k g ->
      List.iter (reject_stask fl ~accel:k) (Batcher.drain fl.batcher ~key:k);
      reject_backlog fl g;
      List.iter
        (fun r ->
          Queue.iter (fun b -> List.iter (reject_stask fl ~accel:k) b) r.r_queue;
          Queue.clear r.r_queue;
          Runtime.undeploy fl.st.runtime r.r_depl)
        g.g_replicas;
      g.g_replicas <- [])
    fl.groups

(* Fault plans are rejected up front (see [run]); every task ends as
   completed, shed, preempted or rejected. *)
let run_serving ~registry cfg serving =
  let fl = create_fleet ~registry cfg serving in
  let st = fl.st in
  let alerts =
    start_telemetry st
      ~rate:("sysim.shed.rate", fun () -> st.shed)
      ~queue_depth:(fun () -> fl.queued)
      ~gauge:("sysim.replicas", fun () -> fold_replicas fl (fun n _ _ -> n + 1) 0)
  in
  Option.iter
    (fun (acfg : Autoscaler.config) ->
      every st.sim ~interval_us:acfg.interval_us
        ~while_:(fun () -> unfinished st)
        (fun () -> autoscale_tick fl acfg))
    serving.autoscale;
  Option.iter
    (fun dcfg ->
      every st.sim ~interval_us:dcfg.Defrag.interval_us
        ~while_:(fun () -> progressing fl)
        (fun () -> defrag_tick fl dcfg))
    serving.defrag;
  (* Session idle expiry rides its own tick at the configured timeout
     period. *)
  (match (fl.sessions, fl.fe.sessions) with
  | Some stbl, Some scfg ->
    every st.sim ~interval_us:scfg.Session.idle_timeout_us
      ~while_:(fun () -> progressing fl)
      (fun () -> ignore (Session.expire stbl ~now_us:(Sim.now st.sim)))
  | _ -> ());
  schedule_arrivals st (admit fl);
  let loop_wall_s = run_loop st in
  drain fl;
  let count f = match fl.sessions with Some s -> f s | None -> 0 in
  let mapcount f = match fl.mapcache with Some (mc, _) -> f mc | None -> 0 in
  {
    (finish st ~loop_wall_s ~alerts) with
    batches = Batcher.batches fl.batcher;
    scale_ups = fl.scale_ups;
    scale_downs = fl.scale_downs;
    preemptions = fl.preemptions;
    defrag_moves = fl.defrag_moves;
    sessions_opened = count Session.opened;
    sessions_expired = count Session.expired;
    sticky_hits = count Session.sticky_hits;
    sticky_misses = count Session.sticky_misses;
    held_results = count Session.held;
    mapcache_hits = mapcount Mapcache.hits;
    mapcache_misses = mapcount Mapcache.misses;
    mapcache_evictions = mapcount Mapcache.evictions;
  }

let run ~registry (cfg : config) =
  (* A completed run releases its simulator's span clock — otherwise
     the closure keeps the whole sim state live and stamps stale sim
     times onto later, unrelated spans. *)
  Fun.protect ~finally:Obs.clear_sim_clock (fun () ->
      Obs.Span.with_ "sysim.run" (fun () ->
          match cfg.serving with
          | Some s ->
            if cfg.faults <> None then
              invalid_arg "Sysim.run: serving mode does not compose with fault plans";
            (match cfg.frontend with
            | Some f when f.predict <> None && s.autoscale = None ->
              invalid_arg "Sysim.run: frontend.predict requires serving.autoscale"
            | _ -> ());
            run_serving ~registry cfg s
          | None ->
            if cfg.frontend <> None then
              invalid_arg "Sysim.run: config.frontend requires serving mode";
            run_open_loop ~registry cfg))
