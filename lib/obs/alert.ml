type cmp = Gt | Lt

type condition =
  | Threshold of {
      series : string;
      window : int;
      cmp : cmp;
      threshold : float;
    }
  | Burn_rate of {
      bad : string;
      total : string;
      objective : float;
      factor : float;
      long_window : int;
      short_window : int;
    }

type rule = {
  name : string;
  condition : condition;
  for_intervals : int;
  cooldown_intervals : int;
}

let bad_name_char c =
  match c with
  | ' ' | '\t' | '\n' | '\r' | ';' | '{' | '}' | '=' | ',' | '"' -> true
  | _ -> false

let validate_rule r =
  let fail fmt = Printf.ksprintf invalid_arg ("Obs.Alert: " ^^ fmt) in
  if r.name = "" then fail "empty rule name";
  String.iter
    (fun c -> if bad_name_char c then fail "rule name %S contains %C" r.name c)
    r.name;
  if r.for_intervals < 1 then fail "rule %s: for_intervals must be >= 1" r.name;
  if r.cooldown_intervals < 0 then
    fail "rule %s: cooldown_intervals must be >= 0" r.name;
  match r.condition with
  | Threshold { window; threshold; _ } ->
    if window < 1 then fail "rule %s: window must be >= 1" r.name;
    if Float.is_nan threshold || Float.abs threshold = infinity then
      fail "rule %s: threshold must be finite" r.name
  | Burn_rate { objective; factor; long_window; short_window; _ } ->
    if not (objective > 0.0 && objective < 1.0) then
      fail "rule %s: objective must be in (0, 1)" r.name;
    if not (factor > 0.0) || Float.abs factor = infinity then
      fail "rule %s: factor must be positive and finite" r.name;
    if long_window < 1 || short_window < 1 then
      fail "rule %s: windows must be >= 1" r.name;
    if short_window > long_window then
      fail "rule %s: short window must not exceed the long window" r.name

(* --- rule grammar ------------------------------------------------- *)

let rule_to_string r =
  match r.condition with
  | Threshold { series; window; cmp; threshold } ->
    Printf.sprintf "%s %s %s %g %d %d %d" r.name
      (match cmp with Gt -> "gt" | Lt -> "lt")
      series threshold window r.for_intervals r.cooldown_intervals
  | Burn_rate { bad; total; objective; factor; long_window; short_window } ->
    Printf.sprintf "%s burn %s %s %g %g %d %d %d %d" r.name bad total objective
      factor long_window short_window r.for_intervals r.cooldown_intervals

let to_string rules = String.concat "; " (List.map rule_to_string rules)

let parse_clause clause =
  let tokens =
    String.split_on_char ' '
      (String.map (function ' ' | '\t' | '\n' | '\r' -> ' ' | c -> c) clause)
    |> List.filter (fun s -> s <> "")
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let num what s k =
    match float_of_string_opt s with
    | Some v -> k v
    | None -> err "%s: bad %s %S" clause what s
  in
  let int_ what s k =
    match int_of_string_opt s with
    | Some v -> k v
    | None -> err "%s: bad %s %S" clause what s
  in
  let finish r =
    match validate_rule r with
    | () -> Ok r
    | exception Invalid_argument m -> Error m
  in
  match tokens with
  | [ name; ("gt" | "lt") as op; series; thr; win; for_; cool ] ->
    num "threshold" thr @@ fun threshold ->
    int_ "window" win @@ fun window ->
    int_ "for" for_ @@ fun for_intervals ->
    int_ "cooldown" cool @@ fun cooldown_intervals ->
    finish
      {
        name;
        condition =
          Threshold
            {
              series;
              window;
              cmp = (if op = "gt" then Gt else Lt);
              threshold;
            };
        for_intervals;
        cooldown_intervals;
      }
  | [ name; "burn"; bad; total; obj; fac; lw; sw; for_; cool ] ->
    num "objective" obj @@ fun objective ->
    num "factor" fac @@ fun factor ->
    int_ "long window" lw @@ fun long_window ->
    int_ "short window" sw @@ fun short_window ->
    int_ "for" for_ @@ fun for_intervals ->
    int_ "cooldown" cool @@ fun cooldown_intervals ->
    finish
      {
        name;
        condition =
          Burn_rate { bad; total; objective; factor; long_window; short_window };
        for_intervals;
        cooldown_intervals;
      }
  | [] -> err "empty alert rule"
  | name :: _ ->
    err
      "%s: expected \"%s gt|lt SERIES THRESHOLD WINDOW FOR COOLDOWN\" or \"%s \
       burn BAD TOTAL OBJECTIVE FACTOR LONG SHORT FOR COOLDOWN\""
      clause name name

let of_string s =
  let clauses =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
      match parse_clause c with
      | Ok r -> go (r :: acc) rest
      | Error m -> Error m)
  in
  go [] clauses

(* --- engine ------------------------------------------------------- *)

type state = Inactive | Pending | Firing

let state_name = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Firing -> "firing"

type event = Pend | Fire | Resolve

let event_name = function
  | Pend -> "pending"
  | Fire -> "firing"
  | Resolve -> "resolved"

type transition = {
  rule_name : string;
  event : event;
  at_us : float;
  value : float;
}

type rule_cell = {
  rule : rule;
  mutable state : state;
  mutable true_streak : int;  (* consecutive true evaluations *)
  mutable cooldown_left : int;  (* evaluations until re-arm *)
}

type t = {
  mutable cells : rule_cell list;  (* rule order, reversed internally *)
  mutable log : transition list;  (* newest first *)
  mutable nlog : int;
}

let create_cell r =
  validate_rule r;
  { rule = r; state = Inactive; true_streak = 0; cooldown_left = 0 }

let add_rule t r =
  if List.exists (fun c -> c.rule.name = r.name) t.cells then
    invalid_arg (Printf.sprintf "Obs.Alert: duplicate rule name %S" r.name);
  t.cells <- t.cells @ [ create_cell r ]

let create rules =
  let t = { cells = []; log = []; nlog = 0 } in
  List.iter (add_rule t) rules;
  t

let rules t = List.map (fun c -> c.rule) t.cells

(* Condition value is also what transitions report: the windowed value
   for thresholds, the long-window burn rate for burn rules. *)
let eval_condition c ~now_us =
  match c with
  | Threshold { series; window; cmp; threshold } -> (
    match Series.find series with
    | None -> (false, 0.0)
    | Some s ->
      let v = Series.window_value s ~now_us ~buckets:window in
      ((match cmp with Gt -> v > threshold | Lt -> v < threshold), v))
  | Burn_rate { bad; total; objective; factor; long_window; short_window } -> (
    match (Series.find bad, Series.find total) with
    | Some b, Some tot ->
      let burn w =
        let t_sum = Series.window_sum tot ~now_us ~buckets:w in
        if t_sum <= 0.0 then 0.0
        else
          let b_sum = Series.window_sum b ~now_us ~buckets:w in
          b_sum /. t_sum /. (1.0 -. objective)
      in
      let bl = burn long_window in
      let bs = burn short_window in
      (bl >= factor && bs >= factor, bl)
    | _ -> (false, 0.0))

let record t cell event ~at_us ~value =
  t.log <- { rule_name = cell.rule.name; event; at_us; value } :: t.log;
  t.nlog <- t.nlog + 1;
  Obs.Counter.incr
    (Obs.Counter.get_labeled "alert.transitions"
       [ ("rule", cell.rule.name); ("event", event_name event) ]);
  Obs.Trace.mark
    (Printf.sprintf "alert %s %s" cell.rule.name (event_name event))

let eval_cell t cell ~now_us =
  let holds, value = eval_condition cell.rule.condition ~now_us in
  match cell.state with
  | Inactive ->
    if cell.cooldown_left > 0 then cell.cooldown_left <- cell.cooldown_left - 1
    else if holds then begin
      cell.true_streak <- 1;
      if cell.rule.for_intervals <= 1 then begin
        cell.state <- Firing;
        record t cell Fire ~at_us:now_us ~value
      end
      else begin
        cell.state <- Pending;
        record t cell Pend ~at_us:now_us ~value
      end
    end
  | Pending ->
    if holds then begin
      cell.true_streak <- cell.true_streak + 1;
      if cell.true_streak >= cell.rule.for_intervals then begin
        cell.state <- Firing;
        record t cell Fire ~at_us:now_us ~value
      end
    end
    else begin
      (* Condition lapsed before for-duration was met: stand down
         silently, no cooldown (nothing fired). *)
      cell.state <- Inactive;
      cell.true_streak <- 0
    end
  | Firing ->
    if not holds then begin
      cell.state <- Inactive;
      cell.true_streak <- 0;
      cell.cooldown_left <- cell.rule.cooldown_intervals;
      record t cell Resolve ~at_us:now_us ~value
    end

let eval t ~now_us = List.iter (fun c -> eval_cell t c ~now_us) t.cells
let transitions t = List.rev t.log

let firing t =
  List.filter_map
    (fun c -> if c.state = Firing then Some c.rule.name else None)
    t.cells

let rule_state t name =
  List.find_map
    (fun c -> if c.rule.name = name then Some c.state else None)
    t.cells

let transition_json (tr : transition) =
  Obs.Json.Obj
    [
      ("rule", Obs.Json.String tr.rule_name);
      ("event", Obs.Json.String (event_name tr.event));
      ("at_us", Obs.Json.Float tr.at_us);
      ("value", Obs.Json.Float tr.value);
    ]

let render t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "alerts:\n";
  if t.cells = [] then Buffer.add_string buf "  (no rules)\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %-8s streak=%d cooldown=%d  %s\n" c.rule.name
           (state_name c.state) c.true_streak c.cooldown_left
           (rule_to_string c.rule)))
    t.cells;
  Buffer.add_string buf (Printf.sprintf "transitions (%d):\n" t.nlog);
  List.iter
    (fun (tr : transition) ->
      Buffer.add_string buf
        (Printf.sprintf "  %12.1fus %-24s %-8s value=%.4f\n" tr.at_us
           tr.rule_name (event_name tr.event) tr.value))
    (transitions t);
  Buffer.contents buf
