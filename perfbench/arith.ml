(* The arithmetic behind the benchmark's metrics: the tail percentile,
   pooling over several Sysim.run calls, and the base of every ratio.
   Kept free of the simulator so test_arith.ml can pin it. *)

(* [ratio num den] is [num /. den], and 0 when the base is empty. *)
let ratio num den = if den > 0.0 then num /. den else 0.0

let fi = float_of_int

(* The highest of p90, p99, p99.9, ... that has at least ten
   completions beyond it: p = 100 (1 - 10^-k) leaves n 10^-k samples
   above it, so the k-th is usable once n >= 10^(k+1).  [None] below
   100 completions. *)
let tail_pct completions =
  let rec nines pow = if completions >= 100 * pow then nines (pow * 10) else pow in
  if completions < 100 then None else Some (100.0 -. (100.0 /. fi (nines 10)))

(* One Sysim.run, reduced to what the end-to-end metrics need. *)
type run = {
  tasks : int;  (* offered, shed and rejected ones included *)
  completed : int;
  slo_misses : int;  (* among the completions *)
  makespan_us : float;  (* simulated *)
  sojourns_us : float list;  (* one per completion *)
}

(* Every run of a repetition pooled into one: counts and simulated
   seconds add up, sojourns concatenate. *)
let pool runs =
  List.fold_left
    (fun acc r ->
      {
        tasks = acc.tasks + r.tasks;
        completed = acc.completed + r.completed;
        slo_misses = acc.slo_misses + r.slo_misses;
        makespan_us = acc.makespan_us +. r.makespan_us;
        sojourns_us = List.rev_append r.sojourns_us acc.sojourns_us;
      })
    { tasks = 0; completed = 0; slo_misses = 0; makespan_us = 0.0; sojourns_us = [] }
    runs

(* SLO-meeting completions per simulated second. *)
let goodput_per_s p = ratio (fi (p.completed - p.slo_misses)) (p.makespan_us /. 1e6)

(* Completed over offered: shed, rejected, preempted and lost tasks
   all count against it. *)
let completed_ratio p = ratio (fi p.completed) (fi p.tasks)

let sojourn_ms p pct =
  match p.sojourns_us with [] -> 0.0 | xs -> Mlv_util.Stats.percentile pct xs /. 1e3

(* Hits over lookups (hits + misses). *)
let hit_ratio ~hits ~misses = ratio (fi hits) (fi (hits + misses))

(* [per ~count x] is [x] per unit of [count] (per task, per event). *)
let per ~count x = ratio x (fi count)
