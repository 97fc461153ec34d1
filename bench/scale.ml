(* Datacenter-scale serving benchmark: ~1M tasks from three tenants
   through the closed-loop serving engine at 10k and 100k nodes.

   Throughput is tasks per second of event-loop wall time
   (result.loop_wall_s): workload generation and cluster construction
   are excluded, so it isolates the per-event cost this benchmark
   targets.  A second run at --big-nodes checks that throughput
   degrades sub-linearly in cluster size.  A calm/bursty tenant pair
   behind the weighted fair-share admission pool asserts the isolation
   invariant: the bursty tenant is shed at admission while a
   well-behaved tenant keeps (within --isolation-margin) the goodput it
   had when every tenant was calm.

   The hot-path microbenchmark times the Router and the in-flight
   table against their linear reference shapes (the test oracle
   library) at the same node count, asserting that both shapes make
   identical decisions; --assert-speedup is a floor on the slower of
   the two indexed/linear ratios.  The router replays traffic shaped
   by the serving run above (its replicas, groups, batch size and
   outstanding depth); the in-flight table replays the traced events
   of a faulted open-loop run, the engine that uses it.  For the
   smoke and the full configuration the serving run's digest must
   also equal the golden digest captured from the linear shapes.

   Usage: scale.exe [--nodes N] [--big-nodes N] [--tasks N] [--seed S]
                    [--mean-us F] [--repeats N] [--max-replicas N]
                    [--out FILE] [--assert-speedup X] [--smoke]
   `make bench-scale-smoke` runs the small 1k-node configuration
   (golden digest + shape agreement + isolation + allocation-free
   counter checks) as part of `make check`; `make bench-scale` runs
   the full configuration and writes BENCH_scale.json. *)

module Sysim = Mlv_sysim.Sysim
module Genset = Mlv_workload.Genset
module Runtime = Mlv_core.Runtime
module Device = Mlv_fpga.Device
module Batcher = Mlv_sched.Batcher
module Router = Mlv_sched.Router
module Router_linear = Mlv_oracle.Router_linear
module Flight_table = Mlv_sysim.Flight_table
module Flight_table_linear = Mlv_oracle.Flight_table_linear
module Rng = Mlv_util.Rng
module Autoscaler = Mlv_sched.Autoscaler
module Obs = Mlv_obs.Obs

(* ---------------- workload ---------------- *)

(* Tenant mix: alice and carol are steady Poisson streams, bob is
   either calm (Poisson, same average rate as alice) or bursty (short
   on-phases at several times his fair share).  [unit_mean_us] is the
   mean inter-arrival of the combined stream; shares are 40/40/20. *)
let tenant_loads ~tasks ~unit_mean_us ~bursty =
  let a = tasks * 2 / 5 in
  let b = tasks * 2 / 5 in
  let c = tasks - a - b in
  let bob_arrival =
    if bursty then
      Genset.Bursty
        {
          (* Phases scale with the stream so each on-phase carries a
             couple hundred arrivals — enough to overwhelm a fair-share
             token bucket, not just ride it. *)
          on_us = unit_mean_us *. 150.0;
          off_us = unit_mean_us *. 450.0;
          (* ~4x the calm rate while on, near-silent while off: the
             duty cycle keeps the average near the calm stream's. *)
          on_mean_us = unit_mean_us *. 0.66;
          off_mean_us = unit_mean_us *. 37.5;
        }
    else Genset.Exponential { mean_us = unit_mean_us /. 0.4 }
  in
  [
    Genset.tenant_load "alice" ~tasks:a
      ~arrival:(Genset.Exponential { mean_us = unit_mean_us /. 0.4 });
    Genset.tenant_load "bob" ~tasks:b ~arrival:bob_arrival;
    Genset.tenant_load "carol" ~tasks:c
      ~arrival:(Genset.Exponential { mean_us = unit_mean_us /. 0.2 });
  ]

let total_tasks loads =
  List.fold_left (fun acc l -> acc + l.Genset.tl_tasks) 0 loads

(* A 3:1 XCVU37P:XCKU115 mix, the heterogeneous-cloud shape of the
   paper scaled out to datacenter node counts. *)
let cluster_kinds nodes =
  List.init nodes (fun i ->
      if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)

let scale_config ~nodes ~tasks ~unit_mean_us ~max_replicas ~repeats ~seed
    ~bursty ~tenant_pool =
  let base =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    base with
    Sysim.seed;
    repeats_per_task = repeats;
    slo_multiplier = 50.0;
    cluster_kinds = cluster_kinds nodes;
    tenants = tenant_loads ~tasks ~unit_mean_us ~bursty;
    serving =
      Some
        {
          Sysim.classes = [];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:50.0 ();
          autoscale =
            Some
              (Autoscaler.config ~interval_us:250.0
                 ~high_backlog_per_replica:2.0 ~low_backlog_per_replica:0.0
                 ~cooldown_us:0.0 ~idle_timeout_us:1e9 ~max_replicas ());
          tenant_pool;
          preempt = false;
          defrag = None;
        };
  }

(* ---------------- measurement ---------------- *)

type outcome = {
  label : string;
  nodes : int;
  tasks : int;
  wall_s : float;
  loop_wall_s : float;
  tasks_per_s : float;  (* tasks / loop_wall_s: serving-loop throughput *)
  digest : int;
  result : Sysim.result;
}

let fbits f = Int64.to_int (Int64.bits_of_float f)

(* Order-sensitive fold over every deterministic result field
   (loop_wall_s is real time and excluded): two runs agree on the
   digest iff they made the identical event-by-event decisions. *)
let digest_result (r : Sysim.result) =
  let d = ref 0 in
  let mix v = d := (!d * 31) + v in
  mix r.Sysim.completed;
  mix r.Sysim.rejected;
  mix r.Sysim.shed;
  mix r.Sysim.lost;
  mix r.Sysim.slo_misses;
  mix r.Sysim.batches;
  mix r.Sysim.scale_ups;
  mix r.Sysim.scale_downs;
  mix r.Sysim.peak_queue;
  mix (fbits r.Sysim.makespan_us);
  mix (fbits r.Sysim.mean_latency_us);
  mix (fbits r.Sysim.p99_latency_us);
  List.iter (fun l -> mix (fbits l)) r.Sysim.latencies_us;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      mix (Hashtbl.hash t.Sysim.tn_name);
      mix t.Sysim.tn_arrived;
      mix t.Sysim.tn_admitted;
      mix t.Sysim.tn_shed;
      mix t.Sysim.tn_completed;
      mix t.Sysim.tn_rejected;
      mix t.Sysim.tn_slo_misses;
      mix (fbits t.Sysim.tn_goodput_per_s);
      mix (fbits t.Sysim.tn_p99_latency_us))
    r.Sysim.per_tenant;
  !d

let tenant_line (t : Sysim.tenant_stats) =
  Printf.sprintf
    "%s: arrived %d admitted %d shed %d completed %d goodput %.0f/s p99 %.0fus"
    t.Sysim.tn_name t.Sysim.tn_arrived t.Sysim.tn_admitted t.Sysim.tn_shed
    t.Sysim.tn_completed t.Sysim.tn_goodput_per_s t.Sysim.tn_p99_latency_us

let run_case ~registry ~label cfg =
  Obs.reset ();
  let tasks = total_tasks cfg.Sysim.tenants in
  let nodes = List.length cfg.Sysim.cluster_kinds in
  let t0 = Unix.gettimeofday () in
  let r = Sysim.run ~registry cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  if r.Sysim.lost <> 0 then begin
    Printf.eprintf "FAIL: %s lost %d tasks\n" label r.Sysim.lost;
    exit 1
  end;
  let o =
    {
      label;
      nodes;
      tasks;
      wall_s;
      loop_wall_s = r.Sysim.loop_wall_s;
      tasks_per_s =
        (if r.Sysim.loop_wall_s > 0.0 then
           float_of_int tasks /. r.Sysim.loop_wall_s
         else 0.0);
      digest = digest_result r;
      result = r;
    }
  in
  Printf.printf
    "%-18s %6dk tasks %7d nodes  %8.0f tasks/s  loop %6.2fs (wall %6.2fs)  \
     completed %d shed %d rejected %d replicas %d svc %.0fus makespan %.2fs \
     p99 %.0fus\n%!"
    label (tasks / 1000) nodes o.tasks_per_s o.loop_wall_s wall_s
    r.Sysim.completed r.Sysim.shed r.Sysim.rejected r.Sysim.scale_ups
    r.Sysim.mean_service_us (r.Sysim.makespan_us /. 1e6)
    r.Sysim.p99_latency_us;
  List.iter (fun t -> Printf.printf "    %s\n%!" (tenant_line t)) r.Sysim.per_tenant;
  o

(* ---------------- hot-path microbenchmark ---------------- *)

(* Both structures replay traffic taken from this benchmark's own runs
   and are timed against their linear test oracles, best of
   [hot_reps]. *)
let hot_ops = 20_000
let hot_reps = 3

(* Router traffic shaped by the measured serving run: its live
   replicas (scale-ups net of scale-downs) spread over the workload's
   accelerator groups by task share, one pick/begin per mean-size
   batch with the groups in arrival order, and a window of outstanding
   batches as deep as the run's mean (Little's law: batches x mean
   sojourn / makespan).  Every replica has weight 1, as in the engine. *)
type router_traffic = {
  replicas : int array;  (* per group *)
  plan : int array;  (* group of each op *)
  batch : int;
  depth : int;
}

let router_traffic cfg (r : Sysim.result) =
  let tasks = Array.of_list (Sysim.workload cfg) in
  let accel (t : Genset.task) =
    Mlv_core.Framework.accel_name
      ~tiles:(Sysim.instance_for ~policy:cfg.Sysim.policy t.Genset.point)
  in
  let index = Hashtbl.create 8 in
  let group t =
    let a = accel t in
    match Hashtbl.find_opt index a with
    | Some g -> g
    | None ->
      let g = Hashtbl.length index in
      Hashtbl.add index a g;
      g
  in
  let of_task = Array.map group tasks in
  let ngroups = Hashtbl.length index in
  let share = Array.make ngroups 0 in
  Array.iter (fun g -> share.(g) <- share.(g) + 1) of_task;
  let live = max ngroups (r.Sysim.scale_ups - r.Sysim.scale_downs) in
  let replicas = Array.map (fun n -> max 1 (live * n / Array.length tasks)) share in
  (* The rounding remainder goes to the busiest group. *)
  let busiest = ref 0 in
  Array.iteri (fun g n -> if n > share.(!busiest) then busiest := g) share;
  replicas.(!busiest) <- replicas.(!busiest) + live - Array.fold_left ( + ) 0 replicas;
  let batch =
    max 1 (int_of_float (Float.round (float_of_int r.Sysim.completed /. float_of_int (max 1 r.Sysim.batches))))
  in
  let depth =
    int_of_float
      (float_of_int r.Sysim.batches *. r.Sysim.mean_latency_us /. r.Sysim.makespan_us)
  in
  let ops = min hot_ops (Array.length tasks / batch) in
  { replicas; plan = Array.init ops (fun i -> of_task.(i * batch)); batch; depth }

(* Replays the traffic; returns seconds and every pick in order. *)
let router_ops (module R : Mlv_oracle.Sigs.ROUTER) tr =
  let r = R.create () in
  let keys = Array.mapi (fun g _ -> "g" ^ string_of_int g) tr.replicas in
  let next_id = ref 0 in
  Array.iteri
    (fun g n ->
      for _ = 1 to n do
        R.add_replica r ~key:keys.(g) ~replica_id:!next_id ~weight:1.0;
        incr next_id
      done)
    tr.replicas;
  let outstanding = Queue.create () in
  let picks = Array.make (Array.length tr.plan) (-1) in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i g ->
      let key = keys.(g) in
      (match R.pick r ~key with
      | Some id ->
        picks.(i) <- id;
        R.begin_work r ~key ~replica_id:id tr.batch;
        Queue.add (key, id) outstanding
      | None -> ());
      if Queue.length outstanding > tr.depth then begin
        let key, id = Queue.pop outstanding in
        R.end_work r ~key ~replica_id:id tr.batch
      end)
    tr.plan;
  (Unix.gettimeofday () -. t0, picks)

(* In-flight table traffic of a real open-loop run: a traced,
   faulted open-loop run of the benchmark's tenants at the same node
   count, its Service / Complete / crash events decoded into add /
   remove / take_node on flight slots.  Flights are keyed by their
   primary node; the replay must interrupt exactly the tasks the
   engine interrupted at every crash. *)
type flight_op = Add of int * int  (* slot, node *) | Remove of int | Crash of int

(* Each task is one add and one remove. *)
let flight_tasks = hot_ops / 2
let flight_crashes = 32

let flight_traffic ~registry ~nodes ~unit_mean_us ~repeats ~seed =
  let span_us = float_of_int flight_tasks *. unit_mean_us in
  let plan =
    List.concat_map
      (fun i ->
        let at = span_us *. float_of_int (i + 1) /. float_of_int (flight_crashes + 1) in
        let node = i * 7919 mod nodes in
        [
          { Mlv_cluster.Fault_plan.at; action = Crash node };
          { at = at +. (span_us /. 64.0); action = Restore node };
        ])
      (List.init flight_crashes Fun.id)
  in
  let cfg =
    {
      (scale_config ~nodes ~tasks:flight_tasks ~unit_mean_us ~max_replicas:1 ~repeats
         ~seed ~bursty:false ~tenant_pool:None)
      with
      Sysim.serving = None;
      faults = Some (Sysim.default_faults (Mlv_cluster.Fault_plan.make plan));
    }
  in
  Obs.reset ();
  Obs.Trace.set_enabled true;
  ignore (Sysim.run ~registry cfg);
  Obs.Trace.set_enabled false;
  if Obs.Trace.dropped () > 0 then begin
    prerr_endline "FAIL: the open-loop flight trace overflowed its ring";
    exit 1
  end;
  let slot_of = Hashtbl.create 1024 and slots = ref 0 in
  let ops = ref [] and interrupted = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match (e.Obs.Trace.phase, e.Obs.Trace.task, e.Obs.Trace.node) with
      | Obs.Trace.Service, Some task, Some node ->
        Hashtbl.replace slot_of task !slots;
        ops := Add (!slots, node) :: !ops;
        incr slots
      | Obs.Trace.Complete, Some task, _ -> ops := Remove (Hashtbl.find slot_of task) :: !ops
      | Obs.Trace.Mark, None, Some node when e.Obs.Trace.label = "fault.crash" ->
        ops := Crash node :: !ops;
        interrupted := [] :: !interrupted
      | Obs.Trace.Crash_interrupt, Some task, _ -> (
        match !interrupted with
        | hits :: rest -> interrupted := (Hashtbl.find slot_of task :: hits) :: rest
        | [] -> assert false)
      | _ -> ())
    (Obs.Trace.events ());
  Obs.reset ();
  (Array.of_list (List.rev !ops), !slots, List.rev_map List.rev !interrupted)

(* Replays the traffic; returns seconds and each crash's sorted hit
   slots. *)
let flight_ops (module F : Mlv_oracle.Sigs.FLIGHT_TABLE) (ops, slots) =
  let t = F.create () in
  let entries = Array.make slots None in
  let hits = ref [] in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (function
      | Add (slot, node) -> entries.(slot) <- Some (F.add t slot ~nodes:[ node ])
      | Remove slot -> Option.iter (F.remove t) entries.(slot)
      | Crash node -> hits := List.map F.value (F.take_node t node) :: !hits)
    ops;
  let secs = Unix.gettimeofday () -. t0 in
  (secs, List.rev_map (List.sort compare) !hits)

type hot = {
  structure : string;
  indexed_s : float;  (* best of the repetitions *)
  linear_s : float;
  ratio : float;  (* linear_s / indexed_s *)
}

(* Best-of-[hot_reps] seconds of both shapes; exits when they
   disagree. *)
let hot_pair ~structure indexed linear =
  let best f =
    let out = ref None in
    let s =
      List.fold_left
        (fun acc _ ->
          let secs, d = f () in
          out := Some d;
          Float.min acc secs)
        infinity (List.init hot_reps Fun.id)
    in
    (s, Option.get !out)
  in
  let indexed_s, di = best indexed in
  let linear_s, dl = best linear in
  if di <> dl then begin
    Printf.eprintf "FAIL: %s shapes disagree with the linear oracle\n" structure;
    exit 1
  end;
  let ratio = if indexed_s > 0.0 then linear_s /. indexed_s else infinity in
  Printf.printf "  %-14s indexed %8.4fs  linear %8.4fs  %7.1fx\n%!" structure indexed_s
    linear_s ratio;
  ({ structure; indexed_s; linear_s; ratio }, di)

let hot_paths ~registry ~serving_cfg ~serving ~nodes ~unit_mean_us ~repeats ~seed =
  let tr = router_traffic serving_cfg serving in
  Printf.printf
    "router traffic of the serving run: %d replicas in %d groups, batch %d, %d \
     outstanding, %d ops\n%!"
    (Array.fold_left ( + ) 0 tr.replicas)
    (Array.length tr.replicas) tr.batch tr.depth (Array.length tr.plan);
  let router, _ =
    hot_pair ~structure:"router"
      (fun () -> router_ops (module Router) tr)
      (fun () -> router_ops (module Router_linear) tr)
  in
  let ops, slots, interrupted =
    flight_traffic ~registry ~nodes ~unit_mean_us ~repeats ~seed
  in
  Printf.printf
    "in-flight traffic of a faulted open-loop run: %d flights, %d ops, %d crashes \
     interrupting %d\n%!"
    slots (Array.length ops) (List.length interrupted)
    (List.fold_left (fun a l -> a + List.length l) 0 interrupted);
  let flights, hits =
    hot_pair ~structure:"flight_table"
      (fun () -> flight_ops (module Flight_table) (ops, slots))
      (fun () -> flight_ops (module Flight_table_linear) (ops, slots))
  in
  if hits <> List.map (List.sort compare) interrupted then begin
    prerr_endline "FAIL: the flight-table replay diverged from the engine's crash hits";
    exit 1
  end;
  [ router; flights ]

(* ---------------- allocation-free counter checks ---------------- *)

(* The incrementally maintained read paths the serving tick leans on
   must not allocate: warm the caches, then demand (near-)zero
   allocation over a thousand calls.  512 bytes of slack absorbs the
   boxed floats of [Gc.allocated_bytes] itself. *)
let assert_no_alloc () =
  let router = Router.create () in
  for i = 0 to 63 do
    Router.add_replica router
      ~key:("g" ^ string_of_int (i land 7))
      ~replica_id:i ~weight:1.0;
    Router.begin_work router
      ~key:("g" ^ string_of_int (i land 7))
      ~replica_id:i (1 + (i land 3))
  done;
  let batcher = Batcher.create (Batcher.config ~max_batch:8 ~max_linger_us:100.0 ()) in
  for i = 0 to 31 do
    ignore (Batcher.add batcher ~key:("g" ^ string_of_int (i land 7)) ~now_us:(float_of_int i) i)
  done;
  let sink = ref 0 in
  let measure name f =
    for _ = 1 to 10 do
      sink := !sink + f ()
    done;
    let b0 = Gc.allocated_bytes () in
    for _ = 1 to 1000 do
      sink := !sink + f ()
    done;
    let delta = Gc.allocated_bytes () -. b0 in
    if delta > 512.0 then begin
      Printf.eprintf "FAIL: %s allocated %.0f bytes over 1000 calls\n" name delta;
      exit 1
    end;
    Printf.printf "  %-28s %.0f bytes / 1000 calls\n" name delta
  in
  Printf.printf "allocation-free counter checks:\n";
  measure "Router.keys" (fun () ->
      List.length (Sys.opaque_identity (Router.keys router)));
  measure "Router.total_outstanding" (fun () ->
      Sys.opaque_identity (Router.total_outstanding router));
  measure "Batcher.keys" (fun () ->
      List.length (Sys.opaque_identity (Batcher.keys batcher)));
  measure "Batcher.total_pending" (fun () ->
      Sys.opaque_identity (Batcher.total_pending batcher));
  measure "Batcher.nonempty_kinds" (fun () ->
      Sys.opaque_identity (Batcher.nonempty_kinds batcher));
  ignore (Sys.opaque_identity !sink)

(* ---------------- json ---------------- *)

let tenant_json (t : Sysim.tenant_stats) =
  Obs.Json.Obj
    [
      ("tenant", Obs.Json.String t.Sysim.tn_name);
      ("arrived", Obs.Json.Int t.Sysim.tn_arrived);
      ("admitted", Obs.Json.Int t.Sysim.tn_admitted);
      ("shed", Obs.Json.Int t.Sysim.tn_shed);
      ("completed", Obs.Json.Int t.Sysim.tn_completed);
      ("rejected", Obs.Json.Int t.Sysim.tn_rejected);
      ("slo_misses", Obs.Json.Int t.Sysim.tn_slo_misses);
      ("goodput_per_s", Obs.Json.Float t.Sysim.tn_goodput_per_s);
      ("p99_latency_us", Obs.Json.Float t.Sysim.tn_p99_latency_us);
    ]

let hot_json h =
  Obs.Json.Obj
    [
      ("indexed_s", Obs.Json.Float h.indexed_s);
      ("linear_s", Obs.Json.Float h.linear_s);
      ("speedup", Obs.Json.Float h.ratio);
    ]

let outcome_json o =
  let r = o.result in
  Obs.Json.Obj
    [
      ("label", Obs.Json.String o.label);
      ("nodes", Obs.Json.Int o.nodes);
      ("tasks", Obs.Json.Int o.tasks);
      ("wall_s", Obs.Json.Float o.wall_s);
      ("loop_wall_s", Obs.Json.Float o.loop_wall_s);
      ("tasks_per_s", Obs.Json.Float o.tasks_per_s);
      ("digest", Obs.Json.Int o.digest);
      ("completed", Obs.Json.Int r.Sysim.completed);
      ("shed", Obs.Json.Int r.Sysim.shed);
      ("rejected", Obs.Json.Int r.Sysim.rejected);
      ("slo_misses", Obs.Json.Int r.Sysim.slo_misses);
      ("batches", Obs.Json.Int r.Sysim.batches);
      ("replicas", Obs.Json.Int r.Sysim.scale_ups);
      ("makespan_us", Obs.Json.Float r.Sysim.makespan_us);
      ("p50_latency_us", Obs.Json.Float r.Sysim.p50_latency_us);
      ("p99_latency_us", Obs.Json.Float r.Sysim.p99_latency_us);
      ("goodput_per_s", Obs.Json.Float r.Sysim.goodput_per_s);
      ("per_tenant", Obs.Json.List (List.map tenant_json r.Sysim.per_tenant));
    ]

(* ---------------- driver ---------------- *)

(* [digest_result] of the serving run of the smoke and the full
   configuration, keyed by (nodes, tasks, seed, mean-us, repeats,
   max-replicas).  Both were captured from the linear data shapes (the
   differential oracle) before those were retired from the engine; the
   indexed engine must keep reproducing them bit for bit. *)
let golden_digests =
  [
    ((1_000, 24_000, 11, 33.0, 8, 96), 3361769800954537541);
    ((10_000, 1_000_000, 11, 2.5, 8, 2048), -4479000516483470899);
  ]

let () =
  let nodes = ref 10_000
  and big_nodes = ref 100_000
  and tasks = ref 1_000_000
  and seed = ref 11
  and mean_us = ref 2.5
  and repeats = ref 8
  and max_replicas = ref 2048
  and out = ref "BENCH_scale.json"
  and assert_speedup = ref 0.0
  and isolation_margin = ref 0.85
  and smoke = ref false in
  Arg.parse
    [
      ( "--nodes",
        Arg.Set_int nodes,
        "cluster size of the serving run and the hot-path pair (default 10000)" );
      ( "--big-nodes",
        Arg.Set_int big_nodes,
        "cluster size of the scaling run (default 100000; 0 skips)" );
      ("--tasks", Arg.Set_int tasks, "tasks across the three tenants (default 1000000)");
      ("--seed", Arg.Set_int seed, "workload seed (default 11)");
      ( "--mean-us",
        Arg.Set_float mean_us,
        "mean inter-arrival of the combined stream, us (default 2.5)" );
      ("--repeats", Arg.Set_int repeats, "inferences per deployment (default 8)");
      ( "--max-replicas",
        Arg.Set_int max_replicas,
        "autoscaler replica ceiling per group (default 2048)" );
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_scale.json)");
      ( "--assert-speedup",
        Arg.Set_float assert_speedup,
        "exit non-zero unless both hot paths' linear/indexed time ratio reaches this"
      );
      ( "--isolation-margin",
        Arg.Set_float isolation_margin,
        "minimum bursty/calm SLO-met-completion ratio for the calm tenant \
         (default 0.85)" );
      ( "--smoke",
        Arg.Set smoke,
        "small configuration: 1k nodes, 24k tasks, golden digest + isolation + \
         allocation checks" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "datacenter-scale serving benchmark";
  if !smoke then begin
    nodes := 1_000;
    big_nodes := 0;
    tasks := 24_000;
    mean_us := 33.0;
    max_replicas := 96
  end;
  if !nodes <= 0 || !tasks <= 0 || !mean_us <= 0.0 || !max_replicas <= 0 then begin
    prerr_endline "nodes, tasks, mean-us and max-replicas must be positive";
    exit 1
  end;
  Printf.printf
    "scale serving: %d tasks over %d nodes (big run %d), mean %.2fus, seed %d\n%!"
    !tasks !nodes !big_nodes !mean_us !seed;
  let registry = Sysim.build_registry () in
  let serving_cfg =
    scale_config ~nodes:!nodes ~tasks:!tasks ~unit_mean_us:!mean_us
      ~max_replicas:!max_replicas ~repeats:!repeats ~seed:!seed ~bursty:true
      ~tenant_pool:None
  in
  let indexed = run_case ~registry ~label:"indexed" serving_cfg in
  let golden =
    List.assoc_opt (!nodes, !tasks, !seed, !mean_us, !repeats, !max_replicas)
      golden_digests
  in
  let golden_ok = Option.fold ~none:true ~some:(( = ) indexed.digest) golden in
  let hot =
    hot_paths ~registry ~serving_cfg ~serving:indexed.result ~nodes:!nodes
      ~unit_mean_us:!mean_us ~repeats:!repeats ~seed:!seed
  in
  let speedup = List.fold_left (fun acc h -> Float.min acc h.ratio) infinity hot in
  (* Sub-quadratic scaling: 10x the nodes may not cost more than ~3x
     the per-event throughput (linear-in-nodes hot paths would cost
     ~10x). *)
  let big =
    if !big_nodes > !nodes then begin
      let cfg =
        scale_config ~nodes:!big_nodes ~tasks:!tasks ~unit_mean_us:!mean_us
          ~max_replicas:!max_replicas ~repeats:!repeats ~seed:!seed ~bursty:true
          ~tenant_pool:None
      in
      let o = run_case ~registry ~label:"indexed-big" cfg in
      let ratio =
        if o.tasks_per_s > 0.0 then indexed.tasks_per_s /. o.tasks_per_s
        else infinity
      in
      Printf.printf "throughput cost of %dx nodes: %.2fx\n%!"
        (!big_nodes / !nodes) ratio;
      if ratio > 3.0 then begin
        Printf.eprintf
          "FAIL: %d-node throughput degraded %.2fx vs %d nodes (super-linear)\n"
          !big_nodes ratio !nodes;
        exit 1
      end;
      Some (o, ratio)
    end
    else None
  in
  (* Isolation: same cluster scale-down, fair-share pool on; bob calm
     vs bob bursty.  alice must keep her goodput and bursty bob must
     actually be shed. *)
  (* The throughput pair runs saturated (sustained backlog keeps the
     router and the per-tick accounting under pressure); the isolation
     pair runs at moderate utilization — a 16x slower stream over a
     fifth of the cluster — so goodput and shedding are about the
     admission pool, not about raw capacity. *)
  let iso_nodes = max 200 (!nodes / 5) in
  let iso_tasks = max 6_000 (!tasks / 8) in
  let iso_mean = !mean_us *. 16.0 in
  let iso_replicas = max 16 (!max_replicas / 4) in
  (* Pool sized at ~1.65x the combined calm rate: a third each is
     comfortably above alice's and calm bob's 40% shares, far below
     bob's on-phase burst rate. *)
  let pool_rate = 1.65 /. (iso_mean /. 1e6) in
  let iso_cfg ~bursty =
    scale_config ~nodes:iso_nodes ~tasks:iso_tasks ~unit_mean_us:iso_mean
      ~max_replicas:iso_replicas ~repeats:!repeats ~seed:!seed ~bursty
      ~tenant_pool:(Some (pool_rate, 60))
  in
  let calm = run_case ~registry ~label:"iso-calm" (iso_cfg ~bursty:false) in
  let bursty = run_case ~registry ~label:"iso-bursty" (iso_cfg ~bursty:true) in
  let tenant_of o name =
    List.find_opt
      (fun (t : Sysim.tenant_stats) -> t.Sysim.tn_name = name)
      o.result.Sysim.per_tenant
  in
  (* Alice's arrival stream is drawn from her own seed split, so it is
     identical across the pair; compare her SLO-meeting completion
     counts (a rate would be skewed by the differing makespans of the
     two runs). *)
  let good_of o name =
    match tenant_of o name with
    | Some t -> t.Sysim.tn_completed - t.Sysim.tn_slo_misses
    | None -> 0
  in
  let shed_of o name =
    match tenant_of o name with Some t -> t.Sysim.tn_shed | None -> 0
  in
  let alice_ratio =
    let c = good_of calm "alice" in
    if c > 0 then float_of_int (good_of bursty "alice") /. float_of_int c
    else 0.0
  in
  let bob_shed = shed_of bursty "bob" in
  Printf.printf
    "isolation: alice SLO-met completions bursty/calm %.3f (floor %.2f), \
     bob shed %d\n%!"
    alice_ratio !isolation_margin bob_shed;
  if !smoke then assert_no_alloc ();
  let json =
    Obs.Json.Obj
      ([
         ("benchmark", Obs.Json.String "scale_serving");
         ("nodes", Obs.Json.Int !nodes);
         ("big_nodes", Obs.Json.Int !big_nodes);
         ("tasks", Obs.Json.Int !tasks);
         ("seed", Obs.Json.Int !seed);
         ("mean_us", Obs.Json.Float !mean_us);
         ("max_replicas", Obs.Json.Int !max_replicas);
         ("indexed", outcome_json indexed);
         ("hot_paths", Obs.Json.Obj (List.map (fun h -> (h.structure, hot_json h)) hot));
         ("speedup", Obs.Json.Float speedup);
       ]
      @ (if golden <> None then [ ("golden_digest_match", Obs.Json.Bool golden_ok) ]
         else [])
      @ (match big with
        | Some (o, ratio) ->
          [
            ("indexed_big", outcome_json o);
            ("big_throughput_cost", Obs.Json.Float ratio);
          ]
        | None -> [])
      @ [
          ("isolation_calm", outcome_json calm);
          ("isolation_bursty", outcome_json bursty);
          ("alice_goodput_ratio", Obs.Json.Float alice_ratio);
          ("bob_shed_bursty", Obs.Json.Int bob_shed);
        ])
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out;
  (match golden with
  | Some g when not golden_ok ->
    Printf.eprintf "FAIL: serving digest %d differs from the golden %d\n" indexed.digest g;
    exit 1
  | _ -> ());
  if alice_ratio < !isolation_margin then begin
    Printf.eprintf
      "FAIL: alice's SLO-met completions dropped to %.3f of calm under \
       bob's burst (floor %.2f)\n"
      alice_ratio !isolation_margin;
    exit 1
  end;
  if bob_shed = 0 then begin
    prerr_endline "FAIL: bursty bob was never shed by the fair-share pool";
    exit 1
  end;
  if !assert_speedup > 0.0 && speedup < !assert_speedup then begin
    Printf.eprintf "FAIL: speedup %.2fx below required %.2fx\n" speedup
      !assert_speedup;
    exit 1
  end
