(* The pre-index allocator: snapshot every node's free blocks, then
   for each level × target kind × piece filter the whole node list and
   pick first- or best-fit, backtracking by hand. *)

module Runtime = Mlv_core.Runtime
module Registry = Mlv_core.Registry
module Mapdb = Mlv_core.Mapdb
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module Device = Mlv_fpga.Device
module Bitstream = Mlv_vital.Bitstream

let free_blocks ?(without = []) rt =
  let c = Runtime.cluster rt in
  let free = Array.init (Cluster.node_count c) (fun i -> Node.free_vbs (Cluster.node c i)) in
  List.iter
    (fun (d : Runtime.deployment) ->
      List.iter
        (fun (p : Runtime.placement) ->
          free.(p.Runtime.node_id) <- free.(p.Runtime.node_id) + p.Runtime.bitstream.Bitstream.vbs)
        d.Runtime.placements)
    without;
  free

(* Tentative assignment of pieces (already in allocation order: the
   plan presorts them biggest-first) against [free], which is restored
   on every backtrack. *)
let try_assign rt ~free ~target_kind (pieces : Mapdb.piece_plan list) =
  let cluster = Runtime.cluster rt in
  let policy = Runtime.policy rt in
  let n = Cluster.node_count cluster in
  let total = Array.init n (fun i -> Node.total_vbs (Cluster.node cluster i)) in
  let choose_node (bs : Bitstream.t) =
    let need =
      if policy.Runtime.whole_device then
        (* whole-device granularity: demand an empty device *)
        fun i -> free.(i) = total.(i) && free.(i) >= bs.Bitstream.vbs
      else fun i -> free.(i) >= bs.Bitstream.vbs
    in
    let candidates =
      List.filter
        (fun i ->
          (not (Runtime.node_failed rt i))
          && Device.equal_kind (Cluster.node cluster i).Node.kind bs.Bitstream.device
          && need i)
        (List.init n Fun.id)
    in
    match candidates with
    | [] -> None
    | first :: _ ->
      if policy.Runtime.best_fit then
        Some
          (List.fold_left
             (fun best i -> if free.(i) < free.(best) then i else best)
             first candidates)
      else Some first
  in
  let rec assign acc = function
    | [] -> Some (List.rev acc)
    | (pp : Mapdb.piece_plan) :: rest -> (
      let rec try_options = function
        | [] -> None
        | (_, bs) :: more -> (
          match choose_node bs with
          | Some node ->
            let vbs =
              if policy.Runtime.whole_device then total.(node) else bs.Bitstream.vbs
            in
            free.(node) <- free.(node) - vbs;
            (match assign ((node, bs) :: acc) rest with
            | Some _ as ok -> ok
            | None ->
              free.(node) <- free.(node) + vbs;
              try_options more)
          | None -> try_options more)
      in
      try_options (Mapdb.options pp ~kind:target_kind))
  in
  assign [] pieces

let choose ?free rt ~accel =
  match Registry.plan (Runtime.registry rt) accel with
  | None -> None
  | Some plan ->
    let policy = Runtime.policy rt in
    let free = match free with Some f -> Array.copy f | None -> free_blocks rt in
    let target_kinds =
      if policy.Runtime.same_type_only then List.map Option.some Device.kinds
      else [ None ]
    in
    List.find_map
      (fun (lp : Mapdb.level_plan) ->
        List.find_map
          (fun target_kind -> try_assign rt ~free ~target_kind lp.Mapdb.pieces)
          target_kinds)
      (Mapdb.levels plan ~fewest_first:policy.Runtime.fewest_first
         ~whole_device:policy.Runtime.whole_device)

let frag_counts rt =
  let cluster = Runtime.cluster rt in
  let free_total = ref 0 and free_whole = ref 0 and whole_nodes = ref 0 in
  for i = 0 to Cluster.node_count cluster - 1 do
    if not (Runtime.node_failed rt i) then begin
      let node = Cluster.node cluster i in
      let free = Node.free_vbs node in
      free_total := !free_total + free;
      if free = Node.total_vbs node then begin
        free_whole := !free_whole + free;
        incr whole_nodes
      end
    end
  done;
  (!free_total, !free_whole, !whole_nodes)

let fragmentation rt =
  let free_total, free_whole, _ = frag_counts rt in
  if free_total = 0 then 0.0
  else float_of_int (free_total - free_whole) /. float_of_int free_total

let whole_free_nodes rt =
  let _, _, whole_nodes = frag_counts rt in
  whole_nodes
