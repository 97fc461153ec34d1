(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent, run id and instance arguments, kept in
   memory and written out as Chrome trace JSON when the run ends. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root *)
  name : string;
  args : (string * string) list;
  start_s : float;
  mutable stop_s : float;
}

type t = { run_id : string; mutable open_ : int list; mutable spans : span list; mutable next : int }

let create ~run_id = { run_id; open_ = []; spans = []; next = 1 }

let with_ t ?(args = []) name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> 0 in
  let s = { id; parent; name; args; start_s = Unix.gettimeofday (); stop_s = nan } in
  t.spans <- s :: t.spans;
  t.open_ <- id :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop_s <- Unix.gettimeofday ();
      t.open_ <- List.tl t.open_)

let duration s = s.stop_s -. s.start_s
let all t = List.rev t.spans
let named t name = List.filter (fun s -> s.name = name) (all t)

(* Total seconds of every span with this name. *)
let total t name = List.fold_left (fun a s -> a +. duration s) 0.0 (named t name)

(* Self time per span name under [root]: a span's duration less its
   children's, summed by name, largest first.  The rows sum to the
   root's duration exactly; the root's own row is what no child
   covers. *)
let self_times t ~root =
  let spans = all t in
  let children_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt children_s s.parent) ~default:0.0 in
      Hashtbl.replace children_s s.parent (c +. duration s))
    spans;
  let rec under s = s.id = root.id || (s.parent <> 0 && under_id s.parent)
  and under_id id = match List.find_opt (fun s -> s.id = id) spans with Some p -> under p | None -> false in
  let rows = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if under s then begin
        let self = duration s -. Option.value (Hashtbl.find_opt children_s s.id) ~default:0.0 in
        let r = Option.value (Hashtbl.find_opt rows s.name) ~default:0.0 in
        Hashtbl.replace rows s.name (r +. self)
      end)
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [] |> List.sort (fun (_, a) (_, b) -> compare b a)

(* Chrome trace-event JSON: one complete ("X") event per span, times
   in µs from the first span's start. *)
let to_chrome_json t =
  let spans = all t in
  let t0 = match spans with s :: _ -> s.start_s | [] -> 0.0 in
  let event s =
    Out.obj
      [
        ("name", Out.str s.name);
        ("ph", Out.str "X");
        ("pid", "1");
        ("tid", "1");
        ("ts", Printf.sprintf "%.3f" ((s.start_s -. t0) *. 1e6));
        ("dur", Printf.sprintf "%.3f" (duration s *. 1e6));
        ( "args",
          Out.obj
            (("span_id", string_of_int s.id) :: ("parent", string_of_int s.parent) :: ("run_id", Out.str t.run_id)
            :: List.map (fun (k, v) -> (k, Out.str v)) s.args) );
      ]
  in
  Out.obj [ ("traceEvents", Out.arr (List.map event spans)); ("displayTimeUnit", Out.str "ms") ]
