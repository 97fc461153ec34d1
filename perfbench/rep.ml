(* One repetition of a workload, run by run.py in a fresh process so
   the process-global service-model cache and Obs registries start
   cold and the peak heap is the repetition's own.

     rep.exe --workload NAME --seed N --mode run|traced|setup

   run:    Sysim.build_registry, then every step's Sysim.workload and
           Sysim.run (config.replay); end-to-end metrics.
   setup:  Sysim.build_registry only (more setup_s samples).
   traced: the same calls, with the registry built through its layers
           (Rtl_gen, Decompose, Mapping, Registry) and a span around
           every call; then a warm replay, a service-model probe
           (Codegen, Scale_out, Perf) and a telemetry off/on pair.
           Per-layer metrics, an attribution of the traced wall time
           and a Chrome trace in perfbench/out/.

   Prints one JSON object on stdout: metrics, digests, the attribution
   rows, the tasks played and every failed output check. *)

module Sysim = Mlv_sysim.Sysim
module Obs = Mlv_obs.Obs
module Genset = Mlv_workload.Genset
module Deepbench = Mlv_workload.Deepbench
module Registry = Mlv_core.Registry
module Mapdb = Mlv_core.Mapdb
module Mapping = Mlv_core.Mapping
module Decompose = Mlv_core.Decompose
module Framework = Mlv_core.Framework
module Scale_out = Mlv_core.Scale_out
module Runtime = Mlv_core.Runtime
module Config = Mlv_accel.Config
module Rtl_gen = Mlv_accel.Rtl_gen
module Perf = Mlv_accel.Perf
module Codegen = Mlv_isa.Codegen
module Program = Mlv_isa.Program
module Device = Mlv_fpga.Device

let now = Unix.gettimeofday
let fi = float_of_int

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let counter name = Obs.Counter.value (Obs.Counter.get name)

(* ---------------- output ---------------- *)

let metrics : (string * float) list ref = ref []
let strings : (string * string) list ref = ref []
let attribution : (string * float) list ref = ref []
let failures : string list ref = ref []
let metric name v = metrics := (name, v) :: !metrics
let check_failed fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let print_report ~tasks =
  print_endline
    (Out.obj
       [
         ("tasks", string_of_int tasks);
         ("metrics", Out.obj (List.rev_map (fun (k, v) -> (k, Out.num v)) !metrics));
         ("strings", Out.obj (List.rev_map (fun (k, v) -> (k, Out.str v)) !strings));
         ("attribution", Out.arr (List.map (fun (k, v) -> Out.arr [ Out.str k; Out.num v ]) !attribution));
         ("failures", Out.arr (List.rev_map Out.str !failures));
       ])

(* ---------------- digests and checks ---------------- *)

let hex_digest s = Digest.to_hex (Digest.string s)

(* Every simulated field of a result; loop_wall_s is host time. *)
let simulated (r : Sysim.result) = { r with Sysim.loop_wall_s = 0.0 }

let results_digest rs = hex_digest (Marshal.to_string (List.map simulated rs) [ Marshal.No_sharing ])

(* Telemetry only adds scrapes and alert transitions. *)
let without_telemetry (r : Sysim.result) = { (simulated r) with Sysim.scrapes = 0; alert_transitions = [] }

let registry_digest registry =
  Registry.names registry
  |> List.map (fun n ->
         match Registry.plan registry n with Some p -> n ^ "=" ^ Mapdb.shape_signature p | None -> n)
  |> String.concat ";" |> hex_digest

(* Conservation globally and per tenant with nothing lost, and one
   sojourn per completion. *)
let check_result ~label ~tasks (r : Sysim.result) =
  let open Sysim in
  let accounted = r.completed + r.rejected + r.shed + r.preempted + r.lost in
  if accounted <> tasks then
    check_failed "%s: completed+rejected+shed+preempted+lost = %d of %d tasks" label accounted tasks;
  if r.lost <> 0 then check_failed "%s: %d tasks lost" label r.lost;
  if List.length r.latencies_us <> r.completed then
    check_failed "%s: %d sojourns for %d completions" label (List.length r.latencies_us) r.completed;
  if r.per_tenant <> [] then begin
    let arrived = List.fold_left (fun a t -> a + t.tn_arrived) 0 r.per_tenant in
    if arrived <> tasks then check_failed "%s: tenants arrived %d of %d tasks" label arrived tasks;
    List.iter
      (fun t ->
        let acc = t.tn_completed + t.tn_shed + t.tn_rejected + t.tn_preempted_lost in
        if acc <> t.tn_arrived then
          check_failed "%s: tenant %s accounts for %d of %d arrivals" label t.tn_name acc t.tn_arrived)
      r.per_tenant
  end

(* ---------------- the played workload ---------------- *)

type played = {
  step : Workloads.step;
  tasks : Genset.task list;
  results : (string * Sysim.result) list;  (* one per run config *)
}

let ntasks played = List.fold_left (fun a p -> a + (List.length p.tasks * List.length p.results)) 0 played
let all_results played = List.concat_map (fun p -> List.map snd p.results) played

(* Generates and plays every step, with a span around each call when
   [spans] is given. *)
let play ?spans ~registry steps =
  let wrap ?args name f = match spans with Some s -> Spans.with_ s ?args name f | None -> f () in
  List.map
    (fun (step : Workloads.step) ->
      let tasks = wrap ~args:[ ("step", step.label) ] "workload.gen" (fun () -> Sysim.workload step.gen) in
      let results =
        List.map
          (fun (label, cfg) ->
            let args = [ ("step", step.label); ("run", label); ("tasks", string_of_int (List.length tasks)) ] in
            (label, wrap ~args "sysim.run" (fun () -> Sysim.run ~registry { cfg with Sysim.replay = Some tasks })))
          step.runs
      in
      { step; tasks; results })
    steps

let replay ~registry ?(telemetry = fun t -> t) played =
  List.map
    (fun p ->
      List.map
        (fun (_, cfg) ->
          Sysim.run ~registry { cfg with Sysim.replay = Some p.tasks; telemetry = telemetry cfg.Sysim.telemetry })
        p.step.runs)
    played
  |> List.concat

(* Checks and the simulated end-to-end metrics, pooled over every run. *)
let report_simulated (w : Workloads.t) played =
  List.iter
    (fun p ->
      List.iter
        (fun (label, r) -> check_result ~label:(p.step.label ^ "/" ^ label) ~tasks:(List.length p.tasks) r)
        p.results)
    played;
  let pooled =
    Arith.pool
      (List.concat_map
         (fun p ->
           List.map
             (fun (_, (r : Sysim.result)) ->
               {
                 Arith.tasks = List.length p.tasks;
                 completed = r.completed;
                 slo_misses = r.slo_misses;
                 makespan_us = r.makespan_us;
                 sojourns_us = r.latencies_us;
               })
             p.results)
         played)
  in
  (match Arith.tail_pct pooled.completed with
  | Some p when p >= w.tail_pct -> ()
  | _ ->
    check_failed "%d completions leave fewer than ten beyond p%g" pooled.completed w.tail_pct);
  metric "goodput_per_s" (Arith.goodput_per_s pooled);
  metric "p50_sojourn_ms" (Arith.sojourn_ms pooled 50.0);
  metric "tail_sojourn_ms" (Arith.sojourn_ms pooled w.tail_pct);
  metric "completed_ratio" (Arith.completed_ratio pooled);
  strings := ("result_digest", results_digest (all_results played)) :: !strings;
  (* Fig. 12: greedy against the AS-ISA-only baseline, pooled
     throughput over the ten sets (completions per simulated second). *)
  let policy name =
    List.filter_map (fun p -> List.assoc_opt name p.results) played
    |> List.fold_left (fun (c, s) (r : Sysim.result) -> (c + r.completed, s +. r.makespan_us)) (0, 0.0)
  in
  match (policy "greedy", policy "baseline") with
  | (gc, gs), (bc, bs) when gs > 0.0 && bs > 0.0 ->
    let speedup = Arith.ratio (fi gc /. gs) (fi bc /. bs) in
    metric "fig12.greedy_vs_baseline" speedup;
    if speedup <= 1.0 then check_failed "greedy does not beat the baseline (%.3fx)" speedup
  | _ -> ()

(* ---------------- the registry, built through its layers ---------------- *)

(* Framework.npu_registry's steps, one span per layer call. *)
let traced_registry spans =
  let registry = Registry.create () in
  let cost_cache = Mapping.cost_cache () in
  let leaf_blocks = ref 0 in
  List.iter
    (fun tiles ->
      let args = [ ("tiles", string_of_int tiles) ] in
      Spans.with_ spans ~args "core.registry.instance" (fun () ->
          let design = Spans.with_ spans ~args "accel.rtl_gen" (fun () -> Rtl_gen.generate (Config.make ~tiles ())) in
          match
            Spans.with_ spans ~args "core.decompose" (fun () ->
                Decompose.run ~config:Framework.decompose_config design ~top:Rtl_gen.top_name)
          with
          | Error e -> failwith (Printf.sprintf "decompose tiles=%d: %s" tiles e)
          | Ok d ->
            leaf_blocks := !leaf_blocks + d.Decompose.stats.Decompose.leaf_blocks;
            let mapping =
              Spans.with_ spans ~args "core.mapping" (fun () ->
                  Mapping.compile ~cost_model:Mapping.npu_cost_model ~cost_cache ~iterations:2
                    ~name:(Framework.accel_name ~tiles) ~control:d.Decompose.control ~data:d.Decompose.data ())
            in
            Spans.with_ spans ~args "core.registry.register" (fun () -> Registry.register registry mapping)))
    Sysim.instance_tile_counts;
  (registry, !leaf_blocks)

(* ---------------- service-model probe ---------------- *)

(* The distinct (point, part count, tiles per part) shapes the stream
   can draw: the levels of each point's instance plan, under every
   policy played, that have a device option for each piece and no more
   pieces than nodes.  A workload that never places a model across
   nodes draws only each plan's first such level. *)
let service_shapes (w : Workloads.t) ~registry played =
  List.concat_map
    (fun p ->
      let points = List.sort_uniq compare (List.map (fun t -> t.Genset.point) p.tasks) in
      List.concat_map
        (fun (_, (cfg : Sysim.config)) ->
          let policy = cfg.Sysim.policy and nodes = List.length cfg.Sysim.cluster_kinds in
          List.concat_map
            (fun (pt : Deepbench.point) ->
              let tiles = Sysim.instance_for ~policy pt in
              match Registry.plan registry (Framework.accel_name ~tiles) with
              | None -> []
              | Some plan ->
                let levels =
                  Mapdb.levels plan ~fewest_first:policy.Runtime.fewest_first
                    ~whole_device:policy.Runtime.whole_device
                  |> List.filter (fun (l : Mapdb.level_plan) ->
                         l.Mapdb.piece_count <= nodes
                         && List.for_all (fun pp -> pp.Mapdb.options <> []) l.Mapdb.pieces)
                in
                let levels = if w.scale_out then levels else List.filteri (fun i _ -> i = 0) levels in
                List.map
                  (fun (l : Mapdb.level_plan) ->
                    if l.Mapdb.piece_count >= 2 then
                      let parts, per_part =
                        Sysim.scale_out_shape ~hidden:pt.Deepbench.hidden ~nodes:l.Mapdb.piece_count ~tiles
                      in
                      (pt, parts, per_part)
                    else (pt, 1, tiles))
                  levels)
            points)
        p.step.runs)
    played
  |> List.sort_uniq compare

(* Calls the service model's layers on every shape: Codegen for one
   node, Scale_out.generate and reorder for several (once per point and
   part count, as the program does not depend on the tiles), and Perf
   on each shape's program. *)
let probe_service_model spans shapes =
  let device = Device.get Device.XCVU37P in
  let programs = Hashtbl.create 16 in
  let instrs = ref 0 in
  List.iter
    (fun ((pt : Deepbench.point), parts, tiles) ->
      let args = [ ("point", Deepbench.name pt); ("parts", string_of_int parts) ] in
      let kind = pt.Deepbench.kind and hidden = pt.Deepbench.hidden and timesteps = pt.Deepbench.timesteps in
      let program, sync_base =
        match Hashtbl.find_opt programs (pt, parts) with
        | Some ps -> ps
        | None ->
          let ps =
            if parts = 1 then
              (fst (Spans.with_ spans ~args "isa.codegen" (fun () -> Codegen.generate kind ~hidden ~input:hidden ~timesteps)), None)
            else begin
              let program, lay =
                Spans.with_ spans ~args "core.scale_out.generate" (fun () ->
                    Scale_out.generate kind ~hidden ~input:hidden ~timesteps ~parts ~part:0)
              in
              instrs := !instrs + Program.length program;
              let sync_base = lay.Scale_out.sync_base in
              (Spans.with_ spans ~args "core.scale_out.reorder" (fun () -> Scale_out.reorder ~sync_base program), Some sync_base)
            end
          in
          Hashtbl.replace programs (pt, parts) ps;
          ps
      in
      let cfg = Config.make ~tiles () in
      let deploy = Perf.vital_deploy ~virtual_blocks:((tiles / 2) + 2) ~pattern_aware:true in
      Spans.with_ spans ~args:(("tiles", string_of_int tiles) :: args) "accel.perf" (fun () ->
          ignore (Perf.program_latency cfg device ~deploy ?sync_base program)))
    shapes;
  !instrs

(* ---------------- per-layer counters ---------------- *)

let report_counters played =
  let rs = all_results played in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let open Sysim in
  let ok = counter "runtime.deploy.ok" and failed = counter "runtime.deploy.fail" in
  metric "runtime.deploys_ok" (fi ok);
  metric "runtime.deploys_failed" (fi failed);
  metric "runtime.deploy_success_ratio" (Arith.hit_ratio ~hits:ok ~misses:failed);
  metric "runtime.undeploys" (fi (counter "runtime.undeploy"));
  metric "core.defrag_moves" (fi (sum (fun r -> r.defrag_moves)));
  metric "vital.bitstream_hit_ratio"
    (Arith.hit_ratio ~hits:(sum (fun r -> r.cache_hits)) ~misses:(sum (fun r -> r.cache_misses)));
  let batches = sum (fun r -> r.batches) in
  metric "sched.batches" (fi batches);
  (* every request past the gate leaves in exactly one batch *)
  metric "sched.mean_batch_size" (Arith.per ~count:batches (fi (sum (fun r -> r.completed + r.rejected + r.preempted))));
  metric "sched.shed" (fi (sum (fun r -> r.shed)));
  metric "sched.scale_ups" (fi (sum (fun r -> r.scale_ups)));
  metric "sched.scale_downs" (fi (sum (fun r -> r.scale_downs)));
  metric "sched.preemptions" (fi (sum (fun r -> r.preemptions)));
  (* end-to-end wait of every completion, over all runs *)
  let completed = sum (fun r -> r.completed) in
  metric "sysim.mean_wait_ms"
    (Arith.per ~count:completed (List.fold_left (fun a r -> a +. (r.mean_wait_us *. fi r.completed)) 0.0 rs) /. 1e3);
  metric "sysim.peak_queue" (fi (List.fold_left (fun a r -> max a r.peak_queue) 0 rs));
  metric "serve.sticky_hit_ratio"
    (Arith.hit_ratio ~hits:(sum (fun r -> r.sticky_hits)) ~misses:(sum (fun r -> r.sticky_misses)));
  metric "serve.held_results" (fi (sum (fun r -> r.held_results)));
  metric "serve.mapcache_hit_ratio"
    (Arith.hit_ratio ~hits:(sum (fun r -> r.mapcache_hits)) ~misses:(sum (fun r -> r.mapcache_misses)));
  metric "obs.scrapes" (fi (sum (fun r -> r.scrapes)));
  metric "obs.alert_transitions" (fi (sum (fun r -> List.length r.alert_transitions)))

(* ---------------- modes ---------------- *)

let mb_of_words w = fi (w * (Sys.word_size / 8)) /. 1e6

let run_untraced (w : Workloads.t) ~seed =
  let t0 = now () in
  let registry = Sysim.build_registry () in
  let setup_s = now () -. t0 in
  let a0 = allocated_words () in
  let t1 = now () in
  let played = play ~registry (w.steps ~seed) in
  let host_s = now () -. t1 in
  let alloc = allocated_words () -. a0 in
  let n = ntasks played in
  metric "setup_s" setup_s;
  metric "host_tasks_per_s" (Arith.ratio (fi n) host_s);
  metric "alloc_words_per_task" (Arith.per ~count:n alloc);
  metric "peak_heap_mb" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
  metric "host_s" host_s;
  strings := ("registry_digest", registry_digest registry) :: !strings;
  report_simulated w played;
  n

let trace_dir = Filename.concat "perfbench" "out"

let run_traced (w : Workloads.t) ~seed =
  let run_id = Printf.sprintf "%s-seed%d" w.name seed in
  let spans = Spans.create ~run_id in
  let wrap ?args name f = Spans.with_ spans ?args name f in
  let a_setup = ref 0.0 and setup_s = ref 0.0 and host_s = ref 0.0 and alloc = ref 0.0 in
  let played = ref [] and leaf_blocks = ref 0 and events = ref 0 in
  Spans.with_ spans ~args:[ ("workload", w.name); ("seed", string_of_int seed) ] "bench.rep" (fun () ->
      let t0 = now () and a0 = allocated_words () in
      let registry, leaves = wrap "setup" (fun () -> traced_registry spans) in
      setup_s := now () -. t0;
      a_setup := allocated_words () -. a0;
      leaf_blocks := leaves;
      strings := ("registry_digest", registry_digest registry) :: !strings;
      let a1 = allocated_words () and t1 = now () in
      let events0 = counter "sim.events_processed" in
      played := play ~spans ~registry (w.steps ~seed);
      host_s := now () -. t1;
      alloc := allocated_words () -. a1;
      events := counter "sim.events_processed" - events0;
      report_counters !played;
      (* A warm replay hits the service cache on every lookup; the
         cold run's excess over it is the service model's cost. *)
      let cold = all_results !played in
      let warm = wrap "probe.warm_replay" (fun () -> replay ~registry !played) in
      if List.map simulated warm <> List.map simulated cold then check_failed "the warm replay differs from the cold run";
      metric "sysim.service_model_s" (Spans.total spans "sysim.run" -. Spans.total spans "probe.warm_replay");
      let shapes = service_shapes w ~registry !played in
      metric "sysim.service_shapes" (fi (List.length shapes));
      let instrs = wrap "probe.service_model" (fun () -> probe_service_model spans shapes) in
      metric "core.scale_out.instrs" (fi instrs);
      (* Telemetry off, then on, over the same tasks: scrapes only read
         state, so the results agree apart from the telemetry fields. *)
      let tel = function Some t -> Some t | None -> Some Mlv_sysim.Sysim.default_telemetry in
      let off = wrap "probe.telemetry_off" (fun () -> replay ~registry ~telemetry:(fun _ -> None) !played) in
      let on = wrap "probe.telemetry_on" (fun () -> replay ~registry ~telemetry:tel !played) in
      if List.map without_telemetry off <> List.map without_telemetry on then
        check_failed "telemetry changed the simulated result";
      if List.map without_telemetry off <> List.map without_telemetry cold then
        check_failed "the telemetry-off replay differs from the cold run");
  let root = List.hd (Spans.named spans "bench.rep") in
  let ms name = Spans.total spans name *. 1e3 in
  let n = ntasks !played in
  let loop_s = List.fold_left (fun a r -> a +. r.Sysim.loop_wall_s) 0.0 (all_results !played) in
  let run_s = Spans.total spans "sysim.run" in
  metric "setup_s" !setup_s;
  metric "host_s" !host_s;
  metric "accel.rtl_gen_ms" (ms "accel.rtl_gen");
  metric "core.decompose_ms" (ms "core.decompose");
  metric "core.decompose.leaf_blocks" (fi !leaf_blocks);
  metric "core.mapping_ms" (ms "core.mapping");
  metric "core.registry.register_ms" (ms "core.registry.register");
  metric "core.setup_alloc_mwords" (!a_setup /. 1e6);
  metric "isa.codegen_ms" (ms "isa.codegen");
  metric "core.scale_out.generate_ms" (ms "core.scale_out.generate");
  metric "core.scale_out.reorder_ms" (ms "core.scale_out.reorder");
  metric "accel.perf_ms" (ms "accel.perf");
  metric "workload.gen_ms" (ms "workload.gen");
  metric "sysim.run_s" run_s;
  metric "sysim.loop_s" loop_s;
  metric "sysim.events" (fi !events);
  metric "sysim.host_ns_per_event" (Arith.per ~count:!events run_s *. 1e9);
  metric "sysim.alloc_words_per_event" (Arith.per ~count:!events !alloc);
  metric "obs.telemetry_overhead_ratio"
    (Arith.ratio (Spans.total spans "probe.telemetry_on") (Spans.total spans "probe.telemetry_off"));
  metric "traced_wall_s" (Spans.duration root);
  (* Self time per layer; sysim.run splits into its event loop and the
     rest; the root's own self time is what no span covers. *)
  List.iter
    (fun (name, self_s) ->
      match name with
      | "bench.rep" -> metric "unattributed_s" self_s
      | "sysim.run" ->
        attribution := ("sysim.run (outside loop)", self_s -. loop_s) :: ("sysim.run (event loop)", loop_s) :: !attribution
      | _ -> attribution := (name, self_s) :: !attribution)
    (Spans.self_times spans ~root);
  attribution := List.rev !attribution;
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir (run_id ^ ".trace.json") in
  let oc = open_out path in
  output_string oc (Spans.to_chrome_json spans);
  close_out oc;
  strings := ("trace_file", path) :: !strings;
  report_simulated w !played;
  n

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the task streams");
      ("--mode", Arg.Symbol ([ "run"; "traced"; "setup" ], fun m -> mode := m), " what to run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rep.exe --workload NAME --seed N --mode run|traced|setup";
  match Workloads.find !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let tasks =
      match !mode with
      | "setup" ->
        let t0 = now () in
        let registry = Sysim.build_registry () in
        metric "setup_s" (now () -. t0);
        strings := ("registry_digest", registry_digest registry) :: !strings;
        0
      | "traced" -> run_traced w ~seed:!seed
      | _ -> run_untraced w ~seed:!seed
    in
    print_report ~tasks
