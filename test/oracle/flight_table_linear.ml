(* The pre-index in-flight layout: one cons list, newest first. *)

type 'a entry = { value : 'a; nodes : int list; mutable live : bool }
type 'a t = { mutable flights : 'a entry list; mutable size : int }

let create () = { flights = []; size = 0 }
let value e = e.value
let size t = t.size
let to_list t = t.flights

let add t x ~nodes =
  let e = { value = x; nodes; live = true } in
  t.flights <- e :: t.flights;
  t.size <- t.size + 1;
  e

let remove t e =
  if e.live then begin
    e.live <- false;
    t.size <- t.size - 1;
    t.flights <- List.filter (fun x -> x != e) t.flights
  end

let take_node t node =
  let hit, alive = List.partition (fun e -> List.mem node e.nodes) t.flights in
  t.flights <- alive;
  List.iter
    (fun e ->
      e.live <- false;
      t.size <- t.size - 1)
    hit;
  hit
