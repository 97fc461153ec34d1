(* Tests for the system-level simulation: policy comparisons at small
   scale (the full Fig. 12 runs live in the benchmark harness). *)

module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Deepbench = Mlv_workload.Deepbench
module Codegen = Mlv_isa.Codegen

(* The registry build compiles ten accelerator instances; share it. *)
let registry = lazy (Sysim.build_registry ())

let run ?(tasks = 40) policy set =
  let cfg = Sysim.default_config ~policy ~composition:Genset.table1.(set) in
  Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks }

let test_instances_registered () =
  let names = Mlv_core.Registry.names (Lazy.force registry) in
  Alcotest.(check int) "10 instances" 10 (List.length names);
  Alcotest.(check bool) "has t21" true (List.mem "npu-t21" names)

let test_instance_selection () =
  let small = { Deepbench.kind = Codegen.Gru; hidden = 512; timesteps = 1 } in
  let large = { Deepbench.kind = Codegen.Gru; hidden = 2560; timesteps = 100 } in
  let t_small = Sysim.instance_for ~policy:Runtime.greedy small in
  let t_large = Sysim.instance_for ~policy:Runtime.greedy large in
  Alcotest.(check bool) "small gets small" true (t_small <= 8);
  Alcotest.(check bool) "large gets multi-FPGA instance" true (t_large >= 32);
  (* The baseline cannot use instances beyond a single device. *)
  let t_large_base = Sysim.instance_for ~policy:Runtime.baseline large in
  Alcotest.(check int) "baseline capped" 21 t_large_base

let test_all_tasks_complete () =
  List.iter
    (fun policy ->
      let r = run policy 6 in
      Alcotest.(check int) policy.Runtime.policy_name 40 r.Sysim.completed;
      Alcotest.(check bool) "positive throughput" true (r.Sysim.throughput_per_s > 0.0))
    [ Runtime.baseline; Runtime.restricted; Runtime.greedy ]

let test_deterministic () =
  let a = run Runtime.greedy 6 in
  let b = run Runtime.greedy 6 in
  Alcotest.(check (float 1e-9)) "same throughput" a.Sysim.throughput_per_s
    b.Sysim.throughput_per_s;
  Alcotest.(check (float 1e-9)) "same makespan" a.Sysim.makespan_us b.Sysim.makespan_us

let test_slo_misses_grow_with_load () =
  (* A saturated arrival rate misses more SLOs than a relaxed one. *)
  let run_rate interarrival =
    let cfg =
      Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
    in
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 40; mean_interarrival_us = interarrival }
  in
  let tight = run_rate 50.0 in
  let relaxed = run_rate 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "tight %d vs relaxed %d misses" tight.Sysim.slo_misses
       relaxed.Sysim.slo_misses)
    true
    (tight.Sysim.slo_misses >= relaxed.Sysim.slo_misses);
  Alcotest.(check int) "no misses unloaded" 0 relaxed.Sysim.slo_misses

let test_greedy_beats_baseline () =
  (* The headline claim at small scale: spatial sharing plus
     multi-FPGA deployment outperforms per-device management. *)
  let g = run Runtime.greedy 6 in
  let b = run Runtime.baseline 6 in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f vs baseline %.1f" g.Sysim.throughput_per_s
       b.Sysim.throughput_per_s)
    true
    (g.Sysim.throughput_per_s > 1.5 *. b.Sysim.throughput_per_s)

let test_greedy_beats_restricted () =
  let g = run Runtime.greedy 7 in
  (* L-heavy set: heterogeneity matters most *)
  let r = run Runtime.restricted 7 in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f vs restricted %.1f" g.Sysim.throughput_per_s
       r.Sysim.throughput_per_s)
    true
    (g.Sysim.throughput_per_s >= r.Sysim.throughput_per_s)

(* ---------------- service-model regressions ---------------- *)

let test_scale_out_shape () =
  (* regression: when the hidden size does not divide across the
     nodes, parts clamps to 2 AND the per-part config is sized for 2
     parts (it used to be sized for the unclamped count) *)
  Alcotest.(check (pair int int)) "clamped to 2, per-part for 2" (2, 16)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:3 ~tiles:32);
  Alcotest.(check (pair int int)) "divisible keeps nodes" (4, 8)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:4 ~tiles:32);
  Alcotest.(check (pair int int)) "two nodes" (2, 16)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:2 ~tiles:32);
  (* per-part tiles never drop to zero *)
  Alcotest.(check (pair int int)) "tiny config floor" (2, 1)
    (Sysim.scale_out_shape ~hidden:15 ~nodes:2 ~tiles:2)

let test_instance_within () =
  let cands = [ 6; 8; 21 ] in
  (* regression: used to always return the largest candidate because
     the fold result was discarded *)
  Alcotest.(check (option int)) "smallest that covers" (Some 8)
    (Sysim.instance_within ~need:7 ~cap:64 cands);
  Alcotest.(check (option int)) "exact fit" (Some 6)
    (Sysim.instance_within ~need:6 ~cap:64 cands);
  Alcotest.(check (option int)) "oversized demand falls back to cap" (Some 21)
    (Sysim.instance_within ~need:100 ~cap:21 cands);
  Alcotest.(check (option int)) "cap excludes the cover" (Some 8)
    (Sysim.instance_within ~need:7 ~cap:8 cands);
  Alcotest.(check (option int)) "nothing fits the cap" None
    (Sysim.instance_within ~need:7 ~cap:5 cands);
  (* boundary cases for the single-pass rewrite *)
  Alcotest.(check (option int)) "empty candidates" None
    (Sysim.instance_within ~need:1 ~cap:64 []);
  Alcotest.(check (option int)) "need = cap exact" (Some 21)
    (Sysim.instance_within ~need:21 ~cap:21 cands);
  Alcotest.(check (option int)) "cap between candidates, oversized need"
    (Some 8)
    (Sysim.instance_within ~need:100 ~cap:20 cands);
  Alcotest.(check (option int)) "cap below smallest" None
    (Sysim.instance_within ~need:100 ~cap:5 cands);
  Alcotest.(check (option int)) "need below smallest" (Some 6)
    (Sysim.instance_within ~need:1 ~cap:64 cands)

(* ---------------- flight table ---------------- *)

module Flight_table = Mlv_sysim.Flight_table
module Flight_table_linear = Mlv_oracle.Flight_table_linear
module Rng = Mlv_util.Rng

let test_flight_table_basics () =
  let t : int Flight_table.t = Flight_table.create () in
  let a = Flight_table.add t 1 ~nodes:[ 0; 1 ] in
  let b = Flight_table.add t 2 ~nodes:[ 1 ] in
  let c = Flight_table.add t 3 ~nodes:[ 2 ] in
  Alcotest.(check int) "size" 3 (Flight_table.size t);
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ]
    (List.map Flight_table.value (Flight_table.to_list t));
  Flight_table.remove t b;
  Flight_table.remove t b;
  (* idempotent *)
  Alcotest.(check int) "size after double remove" 2 (Flight_table.size t);
  Alcotest.(check bool) "removed entry dead" false (Flight_table.live b);
  Alcotest.(check bool) "other entry live" true (Flight_table.live a);
  let hits = Flight_table.take_node t 1 in
  Alcotest.(check (list int)) "crash on node 1 hits the survivor" [ 1 ]
    (List.map Flight_table.value hits);
  Alcotest.(check bool) "taken entries dead" true
    (List.for_all (fun e -> not (Flight_table.live e)) hits);
  Alcotest.(check int) "only the untouched flight remains" 1
    (Flight_table.size t);
  Alcotest.(check (list int)) "node 2 still occupied" [ 3 ]
    (List.map Flight_table.value (Flight_table.take_node t 2));
  Alcotest.(check int) "empty" 0 (Flight_table.size t);
  ignore c

let test_flight_table_differential () =
  (* random add/remove/crash sequence: the indexed table and the
     linear oracle must expose identical contents at every step *)
  let rng = Rng.create 17 in
  let idx : int Flight_table.t = Flight_table.create () in
  let lin : int Flight_table_linear.t = Flight_table_linear.create () in
  let entries = ref [] in
  let values t = List.map Flight_table.value (Flight_table.to_list t) in
  let values_lin t =
    List.map Flight_table_linear.value (Flight_table_linear.to_list t)
  in
  for i = 0 to 499 do
    let r = Rng.float rng 1.0 in
    if r < 0.55 || !entries = [] then begin
      let nodes = [ Rng.int rng 8; Rng.int rng 8 ] in
      let ei = Flight_table.add idx i ~nodes in
      let el = Flight_table_linear.add lin i ~nodes in
      entries := (ei, el) :: !entries
    end
    else if r < 0.8 then begin
      let n = Rng.int rng (List.length !entries) in
      let ei, el = List.nth !entries n in
      Flight_table.remove idx ei;
      Flight_table_linear.remove lin el;
      entries := List.filteri (fun j _ -> j <> n) !entries
    end
    else begin
      let node = Rng.int rng 8 in
      let sorted value es = List.map value es |> List.sort compare in
      Alcotest.(check (list int))
        "crash hits agree"
        (sorted Flight_table_linear.value (Flight_table_linear.take_node lin node))
        (sorted Flight_table.value (Flight_table.take_node idx node));
      entries := List.filter (fun (ei, _) -> Flight_table.live ei) !entries
    end;
    Alcotest.(check int) "sizes agree" (Flight_table_linear.size lin)
      (Flight_table.size idx);
    Alcotest.(check (list int)) "contents agree" (values_lin lin) (values idx)
  done

(* ---------------- multi-tenant runs ---------------- *)

let tenant_cfg ~serving =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  {
    cfg with
    Sysim.seed = 5;
    tenants =
      [
        Genset.tenant_load ~tasks:15
          ~arrival:(Genset.Exponential { mean_us = 300.0 })
          "a";
        Genset.tenant_load ~weight:2.0 ~tasks:15
          ~arrival:
            (Genset.Bursty
               {
                 on_us = 2000.0;
                 off_us = 6000.0;
                 on_mean_us = 100.0;
                 off_mean_us = 2000.0;
               })
          "b";
        Genset.tenant_load ~tasks:10
          ~arrival:(Genset.Exponential { mean_us = 500.0 })
          "c";
      ];
    serving;
  }

let check_tenant_accounting (r : Sysim.result) =
  Alcotest.(check int) "three tenants" 3 (List.length r.Sysim.per_tenant);
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int)
        (t.Sysim.tn_name ^ " accounting closes")
        t.Sysim.tn_arrived
        (t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected))
    r.Sysim.per_tenant;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 r.Sysim.per_tenant in
  Alcotest.(check int) "tenant completions sum to the run's" r.Sysim.completed
    (sum (fun t -> t.Sysim.tn_completed));
  Alcotest.(check int) "tenant sheds sum to the run's" r.Sysim.shed
    (sum (fun t -> t.Sysim.tn_shed));
  Alcotest.(check int) "tenant rejects sum to the run's" r.Sysim.rejected
    (sum (fun t -> t.Sysim.tn_rejected))

(* ---------------- golden results ---------------- *)

(* A sharing-insensitive fingerprint of every deterministic result
   field (loop_wall_s is wall time and left out): ints in decimal,
   floats as exact hex, lists element by element, hashed to hex. *)
let fingerprint (r : Sysim.result) =
  let b = Buffer.create 4096 in
  let i n = Printf.bprintf b "%d " n in
  let f x = Printf.bprintf b "%h " x in
  let s x = Printf.bprintf b "%S " x in
  i r.Sysim.completed;
  i r.Sysim.retried;
  i r.Sysim.rejected;
  i r.Sysim.shed;
  i r.Sysim.lost;
  f r.Sysim.makespan_us;
  f r.Sysim.throughput_per_s;
  f r.Sysim.goodput_per_s;
  f r.Sysim.fault_downtime_us;
  f r.Sysim.fault_free_throughput_per_s;
  f r.Sysim.mean_latency_us;
  f r.Sysim.mean_wait_us;
  i r.Sysim.wait_attempts;
  f r.Sysim.mean_wait_per_attempt_us;
  f r.Sysim.mean_service_us;
  f r.Sysim.p50_latency_us;
  f r.Sysim.p95_latency_us;
  f r.Sysim.p99_latency_us;
  i r.Sysim.peak_queue;
  List.iter f r.Sysim.latencies_us;
  i r.Sysim.slo_misses;
  i r.Sysim.batches;
  i r.Sysim.scale_ups;
  i r.Sysim.scale_downs;
  i r.Sysim.preempted;
  i r.Sysim.preemptions;
  i r.Sysim.defrag_moves;
  i r.Sysim.cache_hits;
  i r.Sysim.cache_misses;
  i r.Sysim.sessions_opened;
  i r.Sysim.sessions_expired;
  i r.Sysim.sticky_hits;
  i r.Sysim.sticky_misses;
  i r.Sysim.held_results;
  i r.Sysim.mapcache_hits;
  i r.Sysim.mapcache_misses;
  i r.Sysim.mapcache_evictions;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      s t.Sysim.tn_name;
      i t.Sysim.tn_arrived;
      i t.Sysim.tn_admitted;
      i t.Sysim.tn_shed;
      i t.Sysim.tn_completed;
      i t.Sysim.tn_rejected;
      i t.Sysim.tn_preempted_lost;
      i t.Sysim.tn_slo_misses;
      f t.Sysim.tn_goodput_per_s;
      f t.Sysim.tn_p99_latency_us)
    r.Sysim.per_tenant;
  i r.Sysim.scrapes;
  List.iter
    (fun (tr : Mlv_obs.Alert.transition) ->
      s tr.Mlv_obs.Alert.rule_name;
      s (Mlv_obs.Alert.event_name tr.Mlv_obs.Alert.event);
      f tr.Mlv_obs.Alert.at_us;
      f tr.Mlv_obs.Alert.value)
    r.Sysim.alert_transitions;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The golden values were taken from the engines as they stood before
   the config.indexed shapes were retired and the open-loop and
   serving engines were folded onto one skeleton (the tenant runs from
   the linear shapes).  Any drift in a simulated decision changes
   them. *)
let check_golden name golden r =
  Alcotest.(check string) (name ^ " matches the golden fingerprint") golden
    (fingerprint r)

let tenant_serving =
  Some { Sysim.default_serving with Sysim.tenant_pool = Some (20_000.0, 12) }

let test_golden_tenant_open_loop () =
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      (tenant_cfg ~serving:None)
  in
  check_golden "open loop" "4f0eae9008488dd12f79b706b6c421ea" r;
  check_tenant_accounting r

let test_golden_tenant_serving () =
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      (tenant_cfg ~serving:tenant_serving)
  in
  check_golden "serving" "347296c3d417d52e17016c31b54ffd31" r;
  check_tenant_accounting r

module Batcher = Mlv_sched.Batcher
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Defrag = Mlv_core.Defrag
module Alert = Mlv_obs.Alert

(* Every serving feature at once on a small fleet: prioritized tenants
   behind a fair-share pool, preemption, defragmentation, a bitstream
   cache, sessions, a mapping cache, predictive autoscaling, diurnal
   arrivals with a flash crowd, and telemetry with a burn-rate rule. *)
let all_features_cfg () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  let diurnal =
    Genset.Diurnal
      {
        period_us = 20_000.0;
        trough_mean_us = 4_000.0;
        peak_mean_us = 500.0;
        flash_start_us = 5_000.0;
        flash_us = 3_000.0;
        flash_mean_us = 150.0;
      }
  in
  (* t0 outranks the others and asks for large models, so its groups
     differ from theirs and a full fabric makes it preempt. *)
  let tenant i =
    if i = 0 then
      Genset.tenant_load ~weight:2.0 ~priority:1
        ~composition:{ Genset.s = 0.0; m = 0.2; l = 0.8 }
        ~tasks:30 ~arrival:diurnal "t0"
    else
      Genset.tenant_load
        ~composition:{ Genset.s = 0.7; m = 0.3; l = 0.0 }
        ~tasks:40 ~arrival:diurnal (Printf.sprintf "t%d" i)
  in
  let burn =
    {
      Alert.name = "t0-burn";
      condition =
        Alert.Burn_rate
          {
            bad = "sysim.tenant.slo_missed.rate{tenant=t0}";
            total = "sysim.tenant.completed.rate{tenant=t0}";
            objective = 0.9;
            factor = 1.0;
            long_window = 6;
            short_window = 2;
          };
      for_intervals = 1;
      cooldown_intervals = 2;
    }
  in
  {
    cfg with
    Sysim.seed = 9;
    repeats_per_task = 4;
    slo_multiplier = 4.0;
    cluster_kinds =
      Mlv_fpga.Device.[ XCVU37P; XCVU37P; XCKU115; XCKU115 ];
    tenants = List.init 3 tenant;
    bitstream_cache = Some 8;
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.batch = Batcher.config ~max_batch:3 ~max_linger_us:200.0 ();
          autoscale =
            Some
              (Autoscaler.config ~max_replicas:6 ~idle_timeout_us:2_000.0 ());
          tenant_pool = Some (6_000.0, 10);
          preempt = true;
          defrag =
            Some
              (Defrag.config ~frag_threshold:0.05 ~min_node_fill:0.9
                 ~interval_us:1_000.0 ());
        };
    frontend =
      Some
        {
          Sysim.sessions = Some (Session.config ~idle_timeout_us:1_000.0 ());
          mapping_cache = Some (2, 400.0);
          predict = Some Autoscaler.default_predict;
        };
    telemetry =
      Some
        {
          Sysim.default_telemetry with
          Sysim.scrape_interval_us = 500.0;
          rules = [ burn ];
        };
  }

let test_golden_all_features () =
  let go () = Sysim.run ~registry:(Lazy.force registry) (all_features_cfg ()) in
  let r = go () in
  check_golden "all features" "e709ef8420fa10eb46ec6f77ebf998cb" r;
  Alcotest.(check string) "run twice, same fingerprint" (fingerprint r)
    (fingerprint (go ()));
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int)
        (t.Sysim.tn_name ^ ": arrived = completed + shed + rejected + preempted")
        t.Sysim.tn_arrived
        (t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected
       + t.Sysim.tn_preempted_lost))
    r.Sysim.per_tenant;
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

let test_golden_open_loop_faults () =
  let plan =
    match Mlv_cluster.Fault_plan.of_string "crash@3000:1,restore@9000:1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let rules =
    match Alert.of_string "outage gt sysim.nodes_down 0 1 1 0" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7)
  in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      {
        cfg with
        Sysim.tasks = 40;
        faults = Some (Sysim.default_faults plan);
        telemetry =
          Some
            {
              Sysim.default_telemetry with
              Sysim.scrape_interval_us = 1_000.0;
              rules;
            };
      }
  in
  check_golden "open loop with faults" "517386726ed97903548a537f5f5dc985" r;
  Alcotest.(check bool) "the crash interrupted work" true (r.Sysim.retried > 0);
  Alcotest.(check bool) "the outage alert fired" true
    (r.Sysim.alert_transitions <> []);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

(* Whole runs on the event queue.  These goldens were taken from both
   the heap and the wheel queue, which agreed, before the heap left
   the library: the wheel must keep reproducing what the heap
   produced.  Queue-level orderings are checked against the heap
   oracle in test_sim_engine. *)
let test_queue_golden_open_loop () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks = 30 }
  |> check_golden "open loop" "5a7e671d1e18c41265963fe918b710b0"

let test_queue_golden_faults () =
  let plan =
    match
      Mlv_cluster.Fault_plan.of_string
        "crash@8000:1,degrade@12000:0.6,restore@20000:1"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  Sysim.run ~registry:(Lazy.force registry)
    { cfg with Sysim.tasks = 30; faults = Some (Sysim.default_faults plan) }
  |> check_golden "fault plan" "9944a29db1d6f3081288e521cdcba7ed"

let test_queue_golden_serving () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7)
  in
  Sysim.run ~registry:(Lazy.force registry)
    {
      cfg with
      Sysim.tasks = 40;
      mean_interarrival_us = 120.0;
      serving = Some Sysim.default_serving;
    }
  |> check_golden "serving" "a52f68b28e9af316143e537bc4d7cd1e"

(* Serving paths the goldens above never reach.  An all-L workload on
   a lone XCKU115 can never deploy, so [grow] answers [`Dead] and every
   request is rejected; a bursty mixed workload on a small mixed fleet
   scales an L group down while a multi-piece sibling replica sits idle,
   so scale-down consolidates it. *)
let counter_value name =
  match List.assoc_opt name (Mlv_obs.Obs.counters ()) with Some v -> v | None -> 0

let test_golden_serving_dead () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 0.0; m = 0.0; l = 1.0 }
  in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      {
        cfg with
        Sysim.tasks = 5;
        cluster_kinds = [ Mlv_fpga.Device.XCKU115 ];
        serving = Some Sysim.default_serving;
      }
  in
  check_golden "dead accelerator" "b3e8719a6c3a66ee705d61e59de4d010" r;
  Alcotest.(check int) "every request rejected" 5 r.Sysim.rejected;
  Alcotest.(check int) "none completed" 0 r.Sysim.completed

let test_golden_serving_consolidation () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 0.3; m = 0.3; l = 0.4 }
  in
  let before = counter_value "sysim.serving.consolidated" in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      {
        cfg with
        Sysim.tasks = 60;
        mean_interarrival_us = 300.0;
        repeats_per_task = 2;
        cluster_kinds =
          Mlv_fpga.Device.[ XCVU37P; XCKU115; XCKU115; XCKU115; XCKU115; XCVU37P ];
        arrival =
          Some
            (Genset.Diurnal
               {
                 period_us = 40_000.0;
                 trough_mean_us = 8_000.0;
                 peak_mean_us = 300.0;
                 flash_start_us = 0.0;
                 flash_us = 0.0;
                 flash_mean_us = 300.0;
               });
        serving =
          Some
            {
              Sysim.default_serving with
              Sysim.batch = Batcher.config ~max_batch:1 ~max_linger_us:0.0 ();
              autoscale =
                Some
                  (Autoscaler.config ~idle_timeout_us:200.0 ~cooldown_us:500.0
                     ~high_backlog_per_replica:1.0 ());
            };
      }
  in
  check_golden "consolidation" "74cdc890d852d13df15fe924ae5b7f54" r;
  Alcotest.(check bool) "scale-down consolidated a replica" true
    (counter_value "sysim.serving.consolidated" > before);
  Alcotest.(check int) "every request completed" 60 r.Sysim.completed

(* ---------------- fault injection ---------------- *)

module Fault_plan = Mlv_cluster.Fault_plan
module Device = Mlv_fpga.Device

let plan_of_string s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* One long-running task on a one-node cluster: deterministic timing
   for crash-interruption tests. *)
let single_node_config ~plan =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    cfg with
    Sysim.tasks = 1;
    mean_interarrival_us = 1.0;
    repeats_per_task = 500;
    cluster_kinds = [ Device.XCVU37P ];
    faults = Some (Sysim.default_faults plan);
  }

let test_crash_retries_once () =
  (* crash mid-service, restore later: the task is retried exactly
     once and still completes *)
  let plan = plan_of_string "crash@2000:0,restore@4000:0" in
  let r = Sysim.run ~registry:(Lazy.force registry) (single_node_config ~plan) in
  Alcotest.(check int) "completed" 1 r.Sysim.completed;
  Alcotest.(check int) "retried exactly once" 1 r.Sysim.retried;
  Alcotest.(check int) "not rejected" 0 r.Sysim.rejected;
  Alcotest.(check int) "none lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "downtime recorded" true (r.Sysim.fault_downtime_us > 0.0)

let test_crash_without_capacity_rejects () =
  (* the only node dies and never comes back: the interrupted task is
     retried, cannot restart, and is rejected — not hung, not lost *)
  let plan = plan_of_string "crash@2000:0" in
  let r = Sysim.run ~registry:(Lazy.force registry) (single_node_config ~plan) in
  Alcotest.(check int) "nothing completes" 0 r.Sysim.completed;
  Alcotest.(check int) "retried once" 1 r.Sysim.retried;
  Alcotest.(check int) "rejected, not hung" 1 r.Sysim.rejected;
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

let test_undeployable_head_rejected () =
  (* regression: an all-L workload on a lone KU115 used to stall the
     queue forever behind a head that could never deploy; now the run
     terminates with every task accounted for *)
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:{ Genset.s = 0.0; m = 0.0; l = 1.0 }
  in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 5; cluster_kinds = [ Device.XCKU115 ] }
  in
  Alcotest.(check bool) "some rejected" true (r.Sysim.rejected > 0);
  Alcotest.(check int) "all accounted" 5 (r.Sysim.completed + r.Sysim.rejected);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

let test_late_crash_does_not_perturb () =
  (* a fault plan firing after the last completion must not change the
     modeled numbers at all *)
  let base = run Runtime.greedy 6 in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  let plan = plan_of_string "crash@1e9:1" in
  let faulted =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
  in
  Alcotest.(check (float 0.0)) "same makespan" base.Sysim.makespan_us
    faulted.Sysim.makespan_us;
  Alcotest.(check (float 0.0)) "same throughput" base.Sysim.throughput_per_s
    faulted.Sysim.throughput_per_s;
  Alcotest.(check int) "nothing retried" 0 faulted.Sysim.retried

let test_availability_acceptance () =
  (* the PR's acceptance run: default cluster, mid-run crash of a busy
     node with a later restore — every task completes (some retried),
     nothing is lost *)
  let base = run Runtime.greedy 7 in
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 0.3 *. base.Sysim.makespan_us; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 0.6 *. base.Sysim.makespan_us; action = Fault_plan.Restore 1 };
      ]
  in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7) in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
  in
  Alcotest.(check int) "all tasks complete" 40 r.Sysim.completed;
  Alcotest.(check bool) "some were retried" true (r.Sysim.retried > 0);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "fault-free tput at least the faulted rate" true
    (r.Sysim.fault_free_throughput_per_s >= r.Sysim.throughput_per_s *. 0.9)

(* ---------------- lifecycle tracing & labeled metrics ---------------- *)

module Obs = Mlv_obs.Obs

let test_trace_closed_accounting () =
  (* a faulted run with tracing on: every lifecycle count must close
     against the run's own accounting, crash-requeue path included *)
  let base = run Runtime.greedy 7 in
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 0.3 *. base.Sysim.makespan_us; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 0.6 *. base.Sysim.makespan_us; action = Fault_plan.Restore 1 };
      ]
  in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7) in
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Obs.Trace.set_enabled true;
      let r =
        Sysim.run ~registry:(Lazy.force registry)
          { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
      in
      Alcotest.(check int) "arrive events = tasks" 40
        (Obs.Trace.count Obs.Trace.Arrive);
      Alcotest.(check int) "queue events = tasks" 40
        (Obs.Trace.count Obs.Trace.Queue);
      Alcotest.(check int) "complete events = completed" r.Sysim.completed
        (Obs.Trace.count Obs.Trace.Complete);
      Alcotest.(check int) "reject events = rejected" r.Sysim.rejected
        (Obs.Trace.count Obs.Trace.Reject);
      Alcotest.(check int) "retry events = retried" r.Sysim.retried
        (Obs.Trace.count Obs.Trace.Retry);
      Alcotest.(check bool) "crash interrupted in-flight work" true
        (Obs.Trace.count Obs.Trace.Crash_interrupt > 0);
      Alcotest.(check int) "deploy events = service events"
        (Obs.Trace.count Obs.Trace.Deploy)
        (Obs.Trace.count Obs.Trace.Service);
      Alcotest.(check int) "fault marks on the timeline" 2
        (Obs.Trace.count Obs.Trace.Mark);
      Alcotest.(check int) "run accounting closes" 40
        (r.Sysim.completed + r.Sysim.rejected + r.Sysim.lost))

let test_labeled_metrics_deterministic () =
  (* two identical runs must produce byte-identical sysim counter and
     histogram series (names, labels, values) — sim-clock-derived
     metrics cannot depend on wall time *)
  let snapshot () =
    Obs.reset ();
    ignore (run Runtime.greedy 7);
    let prefixed n = String.length n >= 6 && String.sub n 0 6 = "sysim." in
    let counters = List.filter (fun (n, _) -> prefixed n) (Obs.counters ()) in
    let hists =
      Obs.histograms ()
      |> List.filter (fun (n, _) -> prefixed n)
      |> List.map (fun (n, h) -> (n, (Obs.Histogram.count h, Obs.Histogram.sum h)))
    in
    (counters, hists)
  in
  let ca, ha = snapshot () in
  let cb, hb = snapshot () in
  Alcotest.(check (list (pair string int))) "counter series identical" ca cb;
  Alcotest.(check (list (pair string (pair int (float 1e-6)))))
    "histogram series identical" ha hb;
  Alcotest.(check bool) "labeled series present" true
    (List.exists (fun (n, _) -> String.contains n '{') ca
    && List.exists (fun (n, _) -> String.contains n '{') ha)

let test_wait_reasonable () =
  let r = run ~tasks:20 Runtime.greedy 0 in
  (* an all-S set at this arrival rate should barely queue *)
  Alcotest.(check bool) "waits bounded" true (r.Sysim.mean_wait_us < r.Sysim.makespan_us);
  Alcotest.(check bool) "service positive" true (r.Sysim.mean_service_us > 0.0);
  Alcotest.(check bool) "p95 >= mean" true (r.Sysim.p95_latency_us >= r.Sysim.mean_latency_us *. 0.5);
  Alcotest.(check int) "latency per task" r.Sysim.completed (List.length r.Sysim.latencies_us);
  Alcotest.(check bool) "slo misses bounded" true
    (r.Sysim.slo_misses >= 0 && r.Sysim.slo_misses <= r.Sysim.completed)

let () =
  Alcotest.run "sysim"
    [
      ( "sysim",
        [
          Alcotest.test_case "instances registered" `Quick test_instances_registered;
          Alcotest.test_case "instance selection" `Quick test_instance_selection;
          Alcotest.test_case "all tasks complete" `Quick test_all_tasks_complete;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "greedy beats baseline" `Quick test_greedy_beats_baseline;
          Alcotest.test_case "SLO misses grow with load" `Quick test_slo_misses_grow_with_load;
          Alcotest.test_case "greedy vs restricted" `Quick test_greedy_beats_restricted;
          Alcotest.test_case "waits reasonable" `Quick test_wait_reasonable;
          Alcotest.test_case "scale-out shape" `Quick test_scale_out_shape;
          Alcotest.test_case "instance within cap" `Quick test_instance_within;
          Alcotest.test_case "open loop bit-identical" `Quick
            test_queue_golden_open_loop;
          Alcotest.test_case "fault plan bit-identical" `Quick
            test_queue_golden_faults;
          Alcotest.test_case "serving bit-identical" `Quick
            test_queue_golden_serving;
        ] );
      ( "flight_table",
        [
          Alcotest.test_case "basics" `Quick test_flight_table_basics;
          Alcotest.test_case "shapes differential" `Quick
            test_flight_table_differential;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "open-loop golden" `Quick test_golden_tenant_open_loop;
          Alcotest.test_case "serving golden" `Quick test_golden_tenant_serving;
        ] );
      ( "golden",
        [
          Alcotest.test_case "all serving features" `Quick test_golden_all_features;
          Alcotest.test_case "open loop with faults" `Quick
            test_golden_open_loop_faults;
          Alcotest.test_case "serving dead accelerator" `Quick
            test_golden_serving_dead;
          Alcotest.test_case "serving consolidation" `Quick
            test_golden_serving_consolidation;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash retries once" `Quick test_crash_retries_once;
          Alcotest.test_case "crash without capacity rejects" `Quick
            test_crash_without_capacity_rejects;
          Alcotest.test_case "undeployable head rejected" `Quick
            test_undeployable_head_rejected;
          Alcotest.test_case "late crash does not perturb" `Quick
            test_late_crash_does_not_perturb;
          Alcotest.test_case "availability acceptance" `Quick
            test_availability_acceptance;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "closed accounting" `Quick test_trace_closed_accounting;
          Alcotest.test_case "labeled metrics deterministic" `Quick
            test_labeled_metrics_deterministic;
        ] );
    ]
