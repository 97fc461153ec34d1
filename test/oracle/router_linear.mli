(** Linear reference shape of {!Mlv_sched.Router}: each group is a
    list sorted by replica id, {!pick} folds it, updates search it and
    the totals fold every group.  Same policy, same interface — least
    outstanding work per unit weight, ties to the lowest replica id —
    at O(replicas) per operation.  The differential tests and
    bench/scale run it against the min-heap router. *)

include Sigs.ROUTER
