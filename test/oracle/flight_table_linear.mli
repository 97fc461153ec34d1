(** Linear reference shape of {!Mlv_sysim.Flight_table}: a cons list,
    filtered per removal and partitioned per crash.  Same interface
    and observable contents at O(flights) per operation; the
    differential tests and bench/scale run it against the indexed
    table. *)

include Sigs.FLIGHT_TABLE
