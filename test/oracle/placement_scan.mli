(** Scan reference of {!Mlv_core.Runtime}'s placement search: the
    same level × target-kind × first/best-fit search, run over a
    per-call snapshot of every node's free blocks instead of the
    capacity index, reading only the runtime's public accessors.  It
    predicts placements and performs none; the differential tests and
    bench/place compare its choice with what [Runtime.deploy] does on
    the same state. *)

(** [free_blocks ?without rt] is every node's free virtual-block
    count, as the controllers report it, with the placements of the
    deployments in [without] (default none) counted as free: the state
    a migration or failover searches after tearing them down. *)
val free_blocks :
  ?without:Mlv_core.Runtime.deployment list -> Mlv_core.Runtime.t -> int array

(** [choose ?free rt ~accel] is the (node, bitstream) assignment a
    deploy of [accel] would make, in piece order and before a
    whole-device policy widens each bitstream to its device; [None]
    when no allocation fits or [accel] is unknown.  [free] (default
    {!free_blocks}) stands in for the controllers' free counts, so a
    caller can predict the deploys inside a migration, failover or
    rebalance; it is not modified.  Failed nodes come from the
    runtime. *)
val choose :
  ?free:int array ->
  Mlv_core.Runtime.t ->
  accel:string ->
  (int * Mlv_vital.Bitstream.t) list option

(** Scan versions of {!Mlv_core.Runtime.fragmentation} and
    {!Mlv_core.Runtime.whole_free_nodes}. *)
val fragmentation : Mlv_core.Runtime.t -> float

val whole_free_nodes : Mlv_core.Runtime.t -> int
