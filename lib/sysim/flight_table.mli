(** In-flight task table: intrusive doubly-linked list plus a
    per-node secondary index.

    The open-loop engine holds one entry per task in service.
    Completion removes its own entry in O(1); a node crash asks for
    the flights touching that node in O(hits) instead of scanning the
    whole system. *)

type 'a entry

type 'a t

(** [create ()] builds an empty table. *)
val create : unit -> 'a t

(** [add t x ~nodes] inserts a flight occupying [nodes] and returns
    its entry (keep it; removal is by entry, not by search). *)
val add : 'a t -> 'a -> nodes:int list -> 'a entry

(** [remove t e] detaches an entry; idempotent. *)
val remove : 'a t -> 'a entry -> unit

(** [take_node t node] removes and returns every live flight with a
    piece on [node], in unspecified order — callers sort if they need
    determinism. *)
val take_node : 'a t -> int -> 'a entry list

val value : 'a entry -> 'a

(** [live e] is false once the entry was removed. *)
val live : 'a entry -> bool

val size : 'a t -> int

(** Entries newest-first (insertion order); test/debug helper. *)
val to_list : 'a t -> 'a entry list
