(** Binary-heap reference shape of {!Mlv_cluster.Sim}: the event queue
    is a [Mlv_util.Pqueue] of closures instead of the timing wheel.
    Same interface, same FIFO tie-break, same counters; the ordering
    tests and bench/sim run it against the wheel. *)

include Sigs.SIM
