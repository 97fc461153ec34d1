(* Placement-churn microbenchmark: deploy/undeploy/fail/restore churn
   on a synthetic heterogeneous cluster, driven through the one
   runtime and its capacity index.  At every deploy the snapshot-scan
   test oracle ([Mlv_oracle.Placement_scan]) first chooses on the same
   state; the run fails unless the scan's choice is exactly the
   deploy's placement, which makes this the scan differential at
   fleet scale.

   The two calls are timed apart.  "indexed" is the churn's own wall
   (the oracle's time taken out); "naive" is that wall with each
   timed deploy's time replaced by the scan's.  The scan only
   chooses, while a deploy also performs the controller loads a scan
   allocator pays as well, so the index/scan ratio understates the
   allocator speedup.  Emits BENCH_place.json with deploy attempts
   per second of churn and p50/p99 per-call latency (recorded through
   the Mlv_obs histograms) for each, plus their ratio.

   Usage: place.exe [--nodes N] [--ops K] [--seed S] [--out FILE]
                    [--assert-speedup X]
   Defaults model a thousand-node pod; `make bench-place-smoke` runs
   a small fast configuration as part of `make check`. *)

module Device = Mlv_fpga.Device
module Cluster = Mlv_cluster.Cluster
module Runtime = Mlv_core.Runtime
module Framework = Mlv_core.Framework
module Rng = Mlv_util.Rng
module Obs = Mlv_obs.Obs
module Bitstream = Mlv_vital.Bitstream
module Placement_scan = Mlv_oracle.Placement_scan

let accels = [| "npu-t6"; "npu-t10"; "npu-t21" |]

(* 3:1 XCVU37P:XCKU115, the paper cluster's ratio at scale. *)
let pod nodes =
  List.init nodes (fun i -> if i mod 4 = 3 then Device.XCKU115 else Device.XCVU37P)

type outcome = {
  engine : string;
  deploy_ok : int;
  deploy_fail : int;
  undeploys : int;
  failovers : int;
  restores : int;
  wall_s : float;
  deploys_per_s : float;
  p50_us : float;
  p99_us : float;
}

(* A choice as (node, bitstream id) pairs in piece order, [None] when
   nothing fits: the scan's prediction and the deploy's placements
   must give the same list. *)
let choice_of_scan = Option.map (List.map (fun (n, bs) -> (n, Bitstream.id bs)))

let choice_of_deploy = function
  | Ok (d : Runtime.deployment) ->
    Some
      (List.map
         (fun (p : Runtime.placement) -> (p.Runtime.node_id, Bitstream.id p.Runtime.bitstream))
         d.Runtime.placements)
  | Error _ -> None

let churn ~nodes ~ops ~seed registry =
  let cluster = Cluster.create ~kinds:(pod nodes) () in
  let rt = Runtime.create ~policy:Runtime.greedy cluster registry in
  let rng = Rng.create seed in
  let scan_h = Obs.Histogram.get "bench.place.naive.deploy_us" in
  let index_h = Obs.Histogram.get "bench.place.indexed.deploy_us" in
  (* [oracle_s] is the time spent in the scan and the comparison,
     which the indexed churn does not pay *)
  let scan_s = ref 0.0 and deploy_s = ref 0.0 and oracle_s = ref 0.0 in
  let deploy_ok = ref 0
  and deploy_fail = ref 0
  and undeploys = ref 0
  and failovers = ref 0
  and restores = ref 0 in
  let t0 = Unix.gettimeofday () in
  for op = 1 to ops do
    let roll = Rng.int rng 100 in
    if roll < 60 then begin
      let accel = accels.(Rng.int rng (Array.length accels)) in
      let ta = Unix.gettimeofday () in
      let scan = Placement_scan.choose rt ~accel in
      let tb = Unix.gettimeofday () in
      let deployed = Runtime.deploy rt ~accel in
      let tc = Unix.gettimeofday () in
      if choice_of_scan scan <> choice_of_deploy deployed then begin
        Printf.eprintf "FAIL: op %d: the scan and the index chose differently for %s\n"
          op accel;
        exit 1
      end;
      if Result.is_ok deployed then incr deploy_ok else incr deploy_fail;
      scan_s := !scan_s +. (tb -. ta);
      deploy_s := !deploy_s +. (tc -. tb);
      Obs.Histogram.observe scan_h ((tb -. ta) *. 1e6);
      Obs.Histogram.observe index_h ((tc -. tb) *. 1e6);
      oracle_s := !oracle_s +. (tb -. ta) +. (Unix.gettimeofday () -. tc)
    end
    else if roll < 90 then (
      match Runtime.deployments rt with
      | [] -> ()
      | l ->
        Runtime.undeploy rt (Rng.choose rng l);
        incr undeploys)
    else if roll < 95 then begin
      let n = Rng.int rng nodes in
      if not (List.mem n (Runtime.failed_nodes rt)) then begin
        ignore (Runtime.fail_node rt n);
        incr failovers
      end
    end
    else
      match Runtime.failed_nodes rt with
      | [] -> ()
      | l ->
        Runtime.restore_node rt (Rng.choose rng l);
        incr restores
  done;
  let index_wall = Unix.gettimeofday () -. t0 -. !oracle_s in
  let scan_wall = index_wall -. !deploy_s +. !scan_s in
  let attempts = !deploy_ok + !deploy_fail in
  let outcome engine wall_s hist =
    {
      engine;
      deploy_ok = !deploy_ok;
      deploy_fail = !deploy_fail;
      undeploys = !undeploys;
      failovers = !failovers;
      restores = !restores;
      wall_s;
      deploys_per_s = (if wall_s > 0.0 then float_of_int attempts /. wall_s else 0.0);
      p50_us = Obs.Histogram.percentile hist 50.0;
      p99_us = Obs.Histogram.percentile hist 99.0;
    }
  in
  (outcome "naive" scan_wall scan_h, outcome "indexed" index_wall index_h)

let outcome_json o =
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String o.engine);
      ("deploy_ok", Obs.Json.Int o.deploy_ok);
      ("deploy_fail", Obs.Json.Int o.deploy_fail);
      ("undeploys", Obs.Json.Int o.undeploys);
      ("failovers", Obs.Json.Int o.failovers);
      ("restores", Obs.Json.Int o.restores);
      ("wall_s", Obs.Json.Float o.wall_s);
      ("deploys_per_s", Obs.Json.Float o.deploys_per_s);
      ("p50_us", Obs.Json.Float o.p50_us);
      ("p99_us", Obs.Json.Float o.p99_us);
    ]

let () =
  let nodes = ref 1000
  and ops = ref 4000
  and seed = ref 1
  and out = ref "BENCH_place.json"
  and assert_speedup = ref 0.0 in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "cluster size (default 1000)");
      ("--ops", Arg.Set_int ops, "churn operations (default 4000)");
      ("--seed", Arg.Set_int seed, "op-stream seed (default 1)");
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_place.json)");
      ( "--assert-speedup",
        Arg.Set_float assert_speedup,
        "exit non-zero unless the index/scan throughput ratio reaches this" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "placement-churn microbenchmark";
  Printf.printf "building mapping-result database (%s)...\n%!"
    (String.concat " " (Array.to_list accels));
  let registry = Framework.npu_registry ~tile_counts:[ 6; 10; 21 ] () in
  Printf.printf "churn: %d nodes, %d ops, seed %d\n%!" !nodes !ops !seed;
  let naive, indexed = churn ~nodes:!nodes ~ops:!ops ~seed:!seed registry in
  let speedup =
    if naive.deploys_per_s > 0.0 then indexed.deploys_per_s /. naive.deploys_per_s
    else 0.0
  in
  List.iter
    (fun o ->
      Printf.printf
        "%-8s %7d ok / %5d full  %9.1f deploys/s  p50 %8.1fus  p99 %8.1fus  (%.2fs)\n"
        o.engine o.deploy_ok o.deploy_fail o.deploys_per_s o.p50_us o.p99_us o.wall_s)
    [ naive; indexed ];
  Printf.printf "scan and index agreed on all %d choices; index/scan throughput: %.1fx\n"
    (indexed.deploy_ok + indexed.deploy_fail) speedup;
  let json =
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.String "placement_churn");
        ("nodes", Obs.Json.Int !nodes);
        ("ops", Obs.Json.Int !ops);
        ("seed", Obs.Json.Int !seed);
        ("naive", outcome_json naive);
        ("indexed", outcome_json indexed);
        ("speedup", Obs.Json.Float speedup);
      ]
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out;
  if !assert_speedup > 0.0 && speedup < !assert_speedup then begin
    Printf.eprintf "FAIL: speedup %.2fx below required %.2fx\n" speedup !assert_speedup;
    exit 1
  end
