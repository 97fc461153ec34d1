(* The interfaces the router, in-flight-table and event-queue oracles
   share with the structures they mirror, with types abstract so that
   both fit: the benches and tests run the two shapes through these. *)

module type ROUTER = sig
  type t

  val create : unit -> t

  (** @raise Invalid_argument on a non-positive weight or duplicate id
      under the same key. *)
  val add_replica : t -> key:string -> replica_id:int -> weight:float -> unit

  val remove_replica : t -> key:string -> replica_id:int -> unit
  val pick : t -> key:string -> int option
  val begin_work : t -> key:string -> replica_id:int -> int -> unit
  val end_work : t -> key:string -> replica_id:int -> int -> unit
  val outstanding : t -> key:string -> replica_id:int -> int
  val total_outstanding : t -> int
  val replicas : t -> key:string -> int list
  val keys : t -> string list
  val dispatched : t -> int
end

module type FLIGHT_TABLE = sig
  type 'a entry
  type 'a t

  val create : unit -> 'a t
  val add : 'a t -> 'a -> nodes:int list -> 'a entry

  (** Idempotent. *)
  val remove : 'a t -> 'a entry -> unit

  (** Removes and returns every live flight with a piece on the node,
      in unspecified order. *)
  val take_node : 'a t -> int -> 'a entry list

  val value : 'a entry -> 'a
  val size : 'a t -> int

  (** Entries newest-first (insertion order). *)
  val to_list : 'a t -> 'a entry list
end

module type SIM = sig
  type t

  val create : unit -> t
  val release : t -> unit
  val now : t -> float

  (** @raise Invalid_argument on a negative delay. *)
  val schedule : t -> delay:float -> (unit -> unit) -> unit

  (** @raise Invalid_argument on a time in the past. *)
  val schedule_at : t -> at:float -> (unit -> unit) -> unit

  val run : ?until:float -> t -> unit
  val step : t -> bool

  (** [infinity] when the queue is empty. *)
  val next_time : t -> float

  val pending : t -> int
  val events_processed : t -> int
end
