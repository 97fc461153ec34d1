(* Differential suite for the event queue: the timing-wheel [Sim]
   must be bit-identical to the binary-heap oracle
   ([Mlv_oracle.Sim_heap]) — same event orderings (including FIFO
   tie-breaks) and same clocks.  The microbenchmark (bench/sim.ml)
   asserts the same contract over millions of events; this suite pins
   it in the test tier with small, fast cases, and test_sysim's golden
   fingerprints pin whole-run results. *)

module Sim = Mlv_cluster.Sim
module Sim_heap = Mlv_oracle.Sim_heap
module Rng = Mlv_util.Rng

type engine = (module Mlv_oracle.Sigs.SIM)

let heap : engine = (module Sim_heap)
let wheel : engine = (module Sim)

(* ---------------- Sim-level ordering ---------------- *)

(* Fire the spec on one engine and return the (time, tag) sequence. *)
let fire_order (module S : Mlv_oracle.Sigs.SIM) spec =
  let sim = S.create () in
  let log = ref [] in
  List.iter
    (fun (at, tag) ->
      S.schedule_at sim ~at (fun () -> log := (S.now sim, tag) :: !log))
    spec;
  S.run sim;
  S.release sim;
  List.rev !log

let check_same_order name spec =
  let h = fire_order heap spec in
  let w = fire_order wheel spec in
  Alcotest.(check (list (pair (float 0.0) int))) name h w

let test_fifo_tie_break () =
  (* Equal timestamps must fire in insertion order on both engines,
     interleaved with distinct times on either side.  [float 0.0]
     checks demand exact equality. *)
  let spec =
    [
      (5.0, 0);
      (3.0, 1);
      (5.0, 2);
      (1.0, 3);
      (5.0, 4);
      (3.0, 5);
      (9.0, 6);
      (5.0, 7);
    ]
  in
  check_same_order "tie order" spec;
  (* The wheel's in-bucket sort must yield FIFO for the ties itself,
     not just agree with the heap. *)
  let w = fire_order wheel spec in
  let ties = List.filter_map (fun (t, g) -> if t = 5.0 then Some g else None) w in
  Alcotest.(check (list int)) "FIFO among equal times" [ 0; 2; 4; 7 ] ties

let test_random_stream_differential () =
  (* A hold model over a deliberately nasty time distribution:
     clustered times (many bucket collisions and exact ties from the
     coarse quantisation) plus occasional far-future jumps that cross
     wheel levels. *)
  let spec (module S : Mlv_oracle.Sigs.SIM) =
    let rng = Rng.create 7 in
    let sim = S.create () in
    let log = ref [] in
    let count = ref 0 in
    let rec handler () =
      log := S.now sim :: !log;
      if !count < 3000 then begin
        incr count;
        let r = Rng.float rng 1.0 in
        let delay =
          if r < 0.5 then Float.of_int (Rng.int rng 40) (* exact ties *)
          else if r < 0.9 then Rng.float rng 5_000.0
          else Rng.float rng 40_000_000.0 (* level-2 / overflow hops *)
        in
        S.schedule sim ~delay handler
      end
    in
    for _ = 1 to 50 do
      S.schedule_at sim ~at:(Rng.float rng 100.0) handler
    done;
    S.run sim;
    S.release sim;
    List.rev !log
  in
  let h = spec heap and w = spec wheel in
  Alcotest.(check int) "same length" (List.length h) (List.length w);
  Alcotest.(check (list (float 0.0))) "same pop times" h w

let test_run_until_agrees () =
  let go (module S : Mlv_oracle.Sigs.SIM) =
    let sim = S.create () in
    let fired = ref [] in
    List.iter
      (fun at -> S.schedule_at sim ~at (fun () -> fired := at :: !fired))
      [ 10.0; 250.0; 250.0; 4096.0; 100_000.0 ];
    S.run ~until:300.0 sim;
    let mid = (S.now sim, List.rev !fired, S.pending sim) in
    S.run sim;
    S.release sim;
    (mid, S.now sim, S.events_processed sim)
  in
  let h = go heap and w = go wheel in
  let (hn, hf, hp), hend, hev = h and (wn, wf, wp), wend, wev = w in
  Alcotest.(check (float 0.0)) "clock at limit" hn wn;
  Alcotest.(check (list (float 0.0))) "fired before limit" hf wf;
  Alcotest.(check int) "pending after limit" hp wp;
  Alcotest.(check (float 0.0)) "final clock" hend wend;
  Alcotest.(check int) "events processed" hev wev

let () =
  Alcotest.run "sim_engine"
    [
      ( "ordering",
        [
          Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tie_break;
          Alcotest.test_case "random stream differential" `Quick
            test_random_stream_differential;
          Alcotest.test_case "run ~until agrees" `Quick test_run_until_agrees;
        ] );
    ]
