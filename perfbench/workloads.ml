(* The benchmark's workloads.  Each is a list of steps; a step draws
   one task stream with Sysim.workload from its generation config and
   plays it with Sysim.run (config.replay) once per run config.  All
   arrivals are open-loop schedules on the simulated clock, drawn from
   the seed alone. *)

module Sysim = Mlv_sysim.Sysim
module Genset = Mlv_workload.Genset
module Runtime = Mlv_core.Runtime
module Device = Mlv_fpga.Device
module Batcher = Mlv_sched.Batcher
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Defrag = Mlv_core.Defrag
module Alert = Mlv_obs.Alert

type step = {
  label : string;  (* span argument, e.g. "set3" *)
  gen : Sysim.config;
  runs : (string * Sysim.config) list;  (* (label, config) played over the stream *)
}

type t = {
  name : string;
  tail_pct : float;  (* fixed per workload; see Arith.tail_pct *)
  scale_out : bool;  (* places models across nodes *)
  steps : seed:int -> step list;
}

(* ---------------- paper-fig12 ---------------- *)

(* Tasks per Table-1 set.  At 240 the distinct scale-out shapes the
   sweep draws saturate: the cold service-model cost, which is nearly
   all of the sweep's host time, no longer depends on the seed. *)
let fig12_tasks = 480

let fig12_policies =
  [ ("baseline", Runtime.baseline); ("restricted", Runtime.restricted); ("greedy", Runtime.greedy) ]

let paper_fig12 ~seed =
  Array.to_list
    (Array.mapi
       (fun i composition ->
         let gen =
           {
             (Sysim.default_config ~policy:Runtime.greedy ~composition) with
             Sysim.tasks = fig12_tasks;
             seed = (seed * 16) + i;
           }
         in
         {
           label = Printf.sprintf "set%d" (i + 1);
           gen;
           runs =
             List.map (fun (name, policy) -> (name, { gen with Sysim.policy })) fig12_policies;
         })
       Genset.table1)

(* ---------------- serve-scale ---------------- *)

let serve_scale_nodes = 2048
let serve_scale_tasks = 400_000

(* Mean inter-arrival of the combined stream, µs: below what the
   fleet serves, so the backlog stays bounded. *)
let serve_scale_unit_us = 60.0

(* 3:1 XCVU37P:XCKU115, the paper's heterogeneous mix at datacenter
   node counts. *)
let fleet nodes = List.init nodes (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)

let small_models = { Genset.s = 1.0; m = 0.0; l = 0.0 }

let serve_scale ~seed =
  let u = serve_scale_unit_us and n = serve_scale_tasks in
  let a = n * 2 / 5 and b = n * 2 / 5 in
  let tenants =
    [
      Genset.tenant_load "alice" ~weight:0.4 ~tasks:a ~arrival:(Genset.Exponential { mean_us = u /. 0.4 });
      (* about four times its average rate while on, near-silent while off *)
      Genset.tenant_load "bob" ~weight:0.4 ~tasks:b
        ~arrival:
          (Genset.Bursty_phased
             { on_us = u *. 150.0; off_us = u *. 450.0; on_mean_us = u *. 0.66; off_mean_us = u *. 37.5 });
      Genset.tenant_load "carol" ~weight:0.2 ~tasks:(n - a - b)
        ~arrival:(Genset.Exponential { mean_us = u /. 0.2 });
    ]
  in
  let cfg =
    {
      (Sysim.default_config ~policy:Runtime.greedy ~composition:small_models) with
      Sysim.seed;
      repeats_per_task = 8;
      slo_multiplier = 50.0;
      cluster_kinds = fleet serve_scale_nodes;
      tenants;
      serving =
        Some
          {
            Sysim.default_serving with
            Sysim.batch = Batcher.config ~max_batch:4 ~max_linger_us:50.0 ();
            autoscale =
              Some
                (Autoscaler.config ~interval_us:250.0 ~high_backlog_per_replica:2.0
                   ~low_backlog_per_replica:0.0 ~cooldown_us:0.0 ~idle_timeout_us:1e9
                   ~max_replicas:512 ());
            (* a quarter above the offered mean *)
            tenant_pool = Some (1.25e6 /. u, 64);
          };
    }
  in
  [ { label = "fleet"; gen = cfg; runs = [ ("serve", cfg) ] } ]

(* ---------------- frontdoor ---------------- *)

let frontdoor_tenants = 16
let frontdoor_tasks_per_tenant = 6_000
let frontdoor_nodes = 256

let burn_rule =
  {
    Alert.name = "t0-slo-burn";
    condition =
      Alert.Burn_rate
        {
          bad = "sysim.tenant.slo_missed.rate{tenant=t00}";
          total = "sysim.tenant.completed.rate{tenant=t00}";
          objective = 0.9;
          factor = 2.0;
          long_window = 10;
          short_window = 3;
        };
    for_intervals = 2;
    cooldown_intervals = 5;
  }

let backlog_rule =
  {
    Alert.name = "backlog";
    condition = Alert.Threshold { series = "sysim.queue_depth"; window = 1; cmp = Alert.Gt; threshold = 64.0 };
    for_intervals = 2;
    cooldown_intervals = 5;
  }

let frontdoor ~seed =
  (* One 32 ms day-night cycle (the forecaster's season) with a 6 ms
     flash crowd at a fixed phase; each tenant offers a sixteenth of the
     fleet's load. *)
  let tenant i =
    let arrival =
      Genset.Diurnal
        {
          period_us = 32_000.0;
          trough_mean_us = 64_000.0;
          peak_mean_us = 16_000.0;
          flash_start_us = 8_000.0;
          flash_us = 6_000.0;
          flash_mean_us = 4_800.0;
        }
    in
    Genset.tenant_load ~priority:(if i = 0 then 1 else 0) ~tasks:frontdoor_tasks_per_tenant
      ~arrival (Printf.sprintf "t%02d" i)
  in
  let cfg =
    {
      (Sysim.default_config ~policy:Runtime.greedy ~composition:small_models) with
      Sysim.seed;
      repeats_per_task = 1;
      slo_multiplier = 4.0;
      cluster_kinds = fleet frontdoor_nodes;
      tenants = List.init frontdoor_tenants tenant;
      bitstream_cache = Some 64;
      serving =
        Some
          {
            Sysim.default_serving with
            Sysim.batch = Batcher.config ~max_batch:4 ~max_linger_us:300.0 ();
            autoscale = Some (Autoscaler.config ~max_replicas:64 ~idle_timeout_us:20_000.0 ());
            preempt = true;
            defrag = Some Defrag.default;
          };
      frontend =
        Some
          {
            Sysim.sessions = Some (Session.config ~idle_timeout_us:5_000.0 ());
            mapping_cache = Some (64, 500.0);
            predict = Some Autoscaler.default_predict;
          };
      telemetry =
        Some { Sysim.default_telemetry with Sysim.scrape_interval_us = 1_000.0; rules = [ burn_rule; backlog_rule ] };
    }
  in
  [ { label = "front"; gen = cfg; runs = [ ("serve", cfg) ] } ]

let all =
  [
    { name = "paper-fig12"; tail_pct = 99.0; scale_out = true; steps = paper_fig12 };
    { name = "serve-scale"; tail_pct = 99.9; scale_out = false; steps = serve_scale };
    { name = "frontdoor"; tail_pct = 99.9; scale_out = false; steps = frontdoor };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
