type config = { max_batch : int; max_linger_us : float }

let config ?(max_batch = 4) ?(max_linger_us = 300.0) () =
  if max_batch < 1 then invalid_arg "Batcher.config: max_batch must be >= 1";
  if max_linger_us < 0.0 then invalid_arg "Batcher.config: negative linger";
  { max_batch; max_linger_us }

type 'a slot = {
  mutable items : 'a list;  (* newest first *)
  mutable count : int;
  mutable opened_us : float;
}

type 'a t = {
  cfg : config;
  slots : (string, 'a slot) Hashtbl.t;
  mutable dispatched : int;
  (* The totals below are maintained incrementally on add/take so the
     autoscaler tick reads them in O(1) without folding (or
     allocating over) the slot table. *)
  mutable total : int;  (* sum of slot counts *)
  mutable nonempty : int;  (* slots with count > 0 *)
  mutable keys_cache : string list;
  mutable keys_dirty : bool;
}

let create cfg =
  {
    cfg;
    slots = Hashtbl.create 8;
    dispatched = 0;
    total = 0;
    nonempty = 0;
    keys_cache = [];
    keys_dirty = false;
  }

type 'a outcome = Dispatch of 'a list | Opened of float | Joined

let slot t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = { items = []; count = 0; opened_us = 0.0 } in
    Hashtbl.replace t.slots key s;
    s

let take t s =
  let batch = List.rev s.items in
  if s.count > 0 then begin
    t.total <- t.total - s.count;
    t.nonempty <- t.nonempty - 1;
    t.keys_dirty <- true
  end;
  s.items <- [];
  s.count <- 0;
  if batch <> [] then t.dispatched <- t.dispatched + 1;
  batch

let add t ~key ~now_us x =
  let s = slot t key in
  s.items <- x :: s.items;
  s.count <- s.count + 1;
  t.total <- t.total + 1;
  if s.count = 1 then begin
    t.nonempty <- t.nonempty + 1;
    t.keys_dirty <- true
  end;
  if s.count >= t.cfg.max_batch then Dispatch (take t s)
  else if s.count = 1 then begin
    s.opened_us <- now_us;
    Opened (now_us +. t.cfg.max_linger_us)
  end
  else Joined

let flush_due t ~key ~now_us =
  match Hashtbl.find_opt t.slots key with
  | None -> []
  | Some s ->
    (* Only the batch whose own deadline has passed is released: a
       timer armed for an earlier, already-dispatched batch fires
       before the current batch's deadline and must not cut its
       linger short. *)
    if s.count > 0 && now_us >= s.opened_us +. t.cfg.max_linger_us -. 1e-9 then
      take t s
    else []

let drain t ~key =
  match Hashtbl.find_opt t.slots key with None -> [] | Some s -> take t s

let pending t ~key =
  match Hashtbl.find_opt t.slots key with None -> 0 | Some s -> s.count

let total_pending t = t.total
let nonempty_kinds t = t.nonempty

let keys t =
  if t.keys_dirty then begin
    t.keys_cache <-
      Hashtbl.fold
        (fun k s acc -> if s.count > 0 then k :: acc else acc)
        t.slots []
      |> List.sort compare;
    t.keys_dirty <- false
  end;
  t.keys_cache

let batches t = t.dispatched
