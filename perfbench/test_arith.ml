(* The benchmark's own arithmetic: tail percentile, pooling over runs
   and the base of every ratio.  Run by `dune runtest`. *)

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let () =
  (* ten completions beyond the percentile, never fewer *)
  check "no tail below 100 completions" (Arith.tail_pct 99 = None);
  check "p90 at 100" (Arith.tail_pct 100 = Some 90.0);
  check "p90 at 999" (Arith.tail_pct 999 = Some 90.0);
  check "p99 at 1000" (Arith.tail_pct 1000 = Some 99.0);
  check "p99.9 at 10000" (Arith.tail_pct 10_000 = Some 99.9);
  check "p99.9 at 99999" (Arith.tail_pct 99_999 = Some 99.9);
  check "p99.99 at 100000" (Arith.tail_pct 100_000 = Some 99.99);
  List.iter
    (fun n ->
      match Arith.tail_pct n with
      | Some p -> check (Printf.sprintf "ten beyond at %d" n) (float_of_int n *. (100.0 -. p) /. 100.0 >= 10.0 -. 1e-6)
      | None -> check "tail exists" false)
    [ 100; 150; 1000; 4321; 10_000; 123_456 ]

let run ~tasks ~completed ~slo_misses ~makespan_us sojourns =
  { Arith.tasks; completed; slo_misses; makespan_us; sojourns_us = sojourns }

let () =
  (* pooling: counts and simulated seconds add, sojourns concatenate *)
  let a = run ~tasks:10 ~completed:4 ~slo_misses:1 ~makespan_us:2e6 [ 1.0; 2.0; 3.0; 4.0 ]
  and b = run ~tasks:6 ~completed:2 ~slo_misses:0 ~makespan_us:1e6 [ 10.0; 20.0 ] in
  let p = Arith.pool [ a; b ] in
  check "pooled tasks" (p.Arith.tasks = 16);
  check "pooled completions" (p.Arith.completed = 6);
  check "one sojourn per completion" (List.length p.Arith.sojourns_us = p.Arith.completed);
  (* goodput pools met completions over pooled simulated seconds:
     (3 + 2) / 3 s, not the mean of 1.5/s and 2/s *)
  check "pooled goodput" (close (Arith.goodput_per_s p) (5.0 /. 3.0));
  check "completed ratio over offered tasks" (close (Arith.completed_ratio p) (6.0 /. 16.0));
  check "pooled median" (close (Arith.sojourn_ms p 50.0) (Mlv_util.Stats.percentile 50.0 [ 1.0; 2.0; 3.0; 4.0; 10.0; 20.0 ] /. 1e3));
  let one = Arith.pool [ a ] in
  check "pool of one is itself"
    ({ one with Arith.sojourns_us = List.sort compare one.Arith.sojourns_us } = a);
  check "empty pool" (Arith.goodput_per_s (Arith.pool []) = 0.0 && Arith.sojourn_ms (Arith.pool []) 50.0 = 0.0)

let () =
  (* bases: hits over lookups, per unit of the count, 0 on an empty base *)
  check "hit ratio base is hits + misses" (close (Arith.hit_ratio ~hits:3 ~misses:1) 0.75);
  check "hit ratio of no lookups" (Arith.hit_ratio ~hits:0 ~misses:0 = 0.0);
  check "per task" (close (Arith.per ~count:4 10.0) 2.5);
  check "per nothing" (Arith.per ~count:0 10.0 = 0.0);
  check "ratio" (close (Arith.ratio 1.0 4.0) 0.25)

let () =
  if !failures > 0 then exit 1;
  print_endline "test_arith: ok"
