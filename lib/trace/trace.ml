module Json = St_obs.Json
module Mclock = St_util.Mclock

(* ---- Enablement ---- *)

let on = ref false
let set_enabled b = on := b
let enabled () = !on
let heat_requested = ref false

(* ---- Probes ----

   Interned (name, cat) pairs; the id indexes [!probes]. Registration
   takes a mutex (module-init time, never the hot path); emission reads
   only the immutable id. *)

type probe = int

let probes : (string * string) array ref = ref [||]
let probes_mu = Mutex.create ()

let probe ?(cat = "misc") name =
  Mutex.lock probes_mu;
  let arr = !probes in
  let n = Array.length arr in
  let rec find i =
    if i >= n then begin
      let arr' = Array.make (n + 1) (name, cat) in
      Array.blit arr 0 arr' 0 n;
      probes := arr';
      n
    end
    else if arr.(i) = (name, cat) then i
    else find (i + 1)
  in
  let id = find 0 in
  Mutex.unlock probes_mu;
  id

let probe_name id =
  let arr = !probes in
  if id < Array.length arr then fst arr.(id) else "?"

let probe_cat id =
  let arr = !probes in
  if id < Array.length arr then snd arr.(id) else "misc"

(* ---- Rings ----

   One ring per domain, reached through DLS so emission never locks.
   Record layout (20 bytes, little-endian):
     byte  0      event kind (0=begin 1=end 2=instant 3=counter)
     byte  1      reserved
     bytes 2-3    probe id (u16)
     bytes 4-11   timestamp, monotonic ns
     bytes 12-19  argument
   Every field goes through the stdlib's little-endian byte codecs;
   timestamps and arguments are native ints widened to 64 bits, so
   every value round-trips exactly. *)

let record_bytes = 20

type ring = {
  tid : int;
  mutable buf : Bytes.t;
  mutable cap : int;  (* capacity in records *)
  mutable len : int;  (* live records *)
  mutable head : int;  (* next slot to write *)
  mutable dropped : int;
}

let registry_mu = Mutex.create ()
let rings : ring list ref = ref []
let default_capacity = ref 65536
let next_tid = Atomic.make 0

let ring_key =
  Domain.DLS.new_key (fun () ->
      let cap = max 16 !default_capacity in
      let r =
        {
          tid = Atomic.fetch_and_add next_tid 1;
          buf = Bytes.create (cap * record_bytes);
          cap;
          len = 0;
          head = 0;
          dropped = 0;
        }
      in
      Mutex.lock registry_mu;
      rings := r :: !rings;
      Mutex.unlock registry_mu;
      r)

let configure ~capacity_events =
  let cap = max 16 capacity_events in
  default_capacity := cap;
  Mutex.lock registry_mu;
  List.iter
    (fun r ->
      r.buf <- Bytes.create (cap * record_bytes);
      r.cap <- cap;
      r.len <- 0;
      r.head <- 0;
      r.dropped <- 0)
    !rings;
  Mutex.unlock registry_mu

let reset () =
  Mutex.lock registry_mu;
  List.iter
    (fun r ->
      r.len <- 0;
      r.head <- 0;
      r.dropped <- 0)
    !rings;
  Mutex.unlock registry_mu

let dropped () =
  Mutex.lock registry_mu;
  let d = List.fold_left (fun acc r -> acc + r.dropped) 0 !rings in
  Mutex.unlock registry_mu;
  d

(* ---- Emission ---- *)

let emit kind id arg =
  let r = Domain.DLS.get ring_key in
  let off = r.head * record_bytes in
  let buf = r.buf in
  Bytes.unsafe_set buf off (Char.unsafe_chr kind);
  Bytes.unsafe_set buf (off + 1) '\000';
  Bytes.set_uint16_le buf (off + 2) id;
  Bytes.set_int64_le buf (off + 4) (Int64.of_int (Mclock.now_ns ()));
  Bytes.set_int64_le buf (off + 12) (Int64.of_int arg);
  let head = r.head + 1 in
  r.head <- (if head = r.cap then 0 else head);
  if r.len = r.cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1

let begin_span p = if !on then emit 0 p 0
let end_span p = if !on then emit 1 p 0
let instant p = if !on then emit 2 p 0
let counter p v = if !on then emit 3 p v

let with_span p f =
  if not !on then f ()
  else begin
    emit 0 p 0;
    match f () with
    | v ->
        emit 1 p 0;
        v
    | exception e ->
        emit 1 p 0;
        raise e
  end

(* ---- Snapshot ---- *)

module Ev = struct
  type kind = Begin | End | Instant | Counter

  type t = {
    name : string;
    cat : string;
    kind : kind;
    ts_ns : int;
    arg : int;
    tid : int;
  }
end

let kind_of_int = function
  | 0 -> Ev.Begin
  | 1 -> Ev.End
  | 2 -> Ev.Instant
  | _ -> Ev.Counter

let events () =
  Mutex.lock registry_mu;
  let rs = List.sort (fun a b -> compare a.tid b.tid) !rings in
  let out = ref [] in
  List.iter
    (fun r ->
      for i = r.len - 1 downto 0 do
        let slot = (r.head - r.len + i + r.cap) mod r.cap in
        let off = slot * record_bytes in
        let kind = kind_of_int (Char.code (Bytes.get r.buf off)) in
        let id = Bytes.get_uint16_le r.buf (off + 2) in
        out :=
          {
            Ev.name = probe_name id;
            cat = probe_cat id;
            kind;
            ts_ns = Int64.to_int (Bytes.get_int64_le r.buf (off + 4));
            arg = Int64.to_int (Bytes.get_int64_le r.buf (off + 12));
            tid = r.tid;
          }
          :: !out
      done)
    rs;
  Mutex.unlock registry_mu;
  (* [out] holds each ring oldest-first, rings in tid order; a stable
     sort on the timestamp keeps that order for ties. *)
  List.stable_sort
    (fun (a : Ev.t) (b : Ev.t) -> compare (a.ts_ns, a.tid) (b.ts_ns, b.tid))
    !out

(* ---- DFA state heat ---- *)

module Heat = struct
  type row = {
    state : int;
    visits : int;
    skipped : int;
    stop_bytes : int;
    rule : int;
    accel : bool;
  }

  type table = { label : string; states : int; bytes : int; rows : row list }

  let top ~n table =
    let heat r = r.visits + r.skipped in
    let rows =
      List.sort
        (fun a b ->
          match compare (heat b) (heat a) with
          | 0 -> compare a.state b.state
          | c -> c)
        table.rows
    in
    List.filteri (fun i _ -> i < n) rows

  let published_mu = Mutex.create ()
  let published_tables : table list ref = ref []

  let publish t =
    Mutex.lock published_mu;
    published_tables := t :: !published_tables;
    Mutex.unlock published_mu

  let published () =
    Mutex.lock published_mu;
    let ts = List.rev !published_tables in
    Mutex.unlock published_mu;
    ts

  let clear_published () =
    Mutex.lock published_mu;
    published_tables := [];
    Mutex.unlock published_mu

  let row_to_json r =
    Json.Obj
      [
        ("state", Json.Int r.state);
        ("visits", Json.Int r.visits);
        ("skipped", Json.Int r.skipped);
        ("stop_bytes", Json.Int r.stop_bytes);
        ("rule", Json.Int r.rule);
        ("accel", Json.Bool r.accel);
      ]

  let to_json t =
    Json.Obj
      [
        ("label", Json.String t.label);
        ("states", Json.Int t.states);
        ("bytes", Json.Int t.bytes);
        ("rows", Json.List (List.map row_to_json t.rows));
      ]

  let of_json j =
    let str k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_string_opt) in
    let int_of o k d =
      Option.value ~default:d (Option.bind (Json.member k o) Json.to_int_opt)
    in
    match Json.member "rows" j with
    | Some (Json.List rows) ->
        let row r =
          {
            state = int_of r "state" 0;
            visits = int_of r "visits" 0;
            skipped = int_of r "skipped" 0;
            stop_bytes = int_of r "stop_bytes" 0;
            rule = int_of r "rule" (-1);
            accel = (match Json.member "accel" r with Some (Json.Bool b) -> b | _ -> false);
          }
        in
        Ok
          {
            label = str "label" "";
            states = int_of j "states" 0;
            bytes = int_of j "bytes" 0;
            rows = List.map row rows;
          }
    | _ -> Error "heat table: missing rows"

  let to_text ?(top_n = 10) t =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "state heat: %s (%d states, %d bytes)\n" t.label
         t.states t.bytes);
    Buffer.add_string b
      "  state     visits    skipped  stop_bytes  rule  accel\n";
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "  %5d %10d %10d  %10d  %4d  %s\n" r.state r.visits
             r.skipped r.stop_bytes r.rule
             (if r.accel then "yes" else "no")))
      (top ~n:top_n t);
    Buffer.contents b
end

(* ---- Chrome trace-event exporter ---- *)

module Chrome = struct
  let ph_of_kind = function
    | Ev.Begin -> "B"
    | Ev.End -> "E"
    | Ev.Instant -> "i"
    | Ev.Counter -> "C"

  let kind_of_ph = function
    | "B" -> Some Ev.Begin
    | "E" -> Some Ev.End
    | "i" | "I" -> Some Ev.Instant
    | "C" -> Some Ev.Counter
    | _ -> None

  let event_to_json ~t0 (e : Ev.t) =
    let base =
      [
        ("name", Json.String e.name);
        ("cat", Json.String e.cat);
        ("ph", Json.String (ph_of_kind e.kind));
        ("ts", Json.Float (float_of_int (e.ts_ns - t0) /. 1e3));
        ("pid", Json.Int 0);
        ("tid", Json.Int e.tid);
      ]
    in
    match e.kind with
    | Ev.Counter -> Json.Obj (base @ [ ("args", Json.Obj [ ("value", Json.Int e.arg) ]) ])
    | Ev.Instant -> Json.Obj (base @ [ ("s", Json.String "t") ])
    | _ -> Json.Obj base

  let to_json ?(heat = []) evs =
    let t0 =
      List.fold_left (fun acc (e : Ev.t) -> min acc e.ts_ns) max_int evs
    in
    let t0 = if t0 = max_int then 0 else t0 in
    let fields =
      [
        ("displayTimeUnit", Json.String "ns");
        ("traceEvents", Json.List (List.map (event_to_json ~t0) evs));
      ]
    in
    let fields =
      if heat = [] then fields
      else fields @ [ ("stateHeat", Json.List (List.map Heat.to_json heat)) ]
    in
    Json.Obj fields

  let to_string ?heat evs = Json.to_string (to_json ?heat evs)

  let event_of_json j =
    let str k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_string_opt) in
    let num k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_float_opt) in
    let int k d = Option.value ~default:d (Option.bind (Json.member k j) Json.to_int_opt) in
    match kind_of_ph (str "ph" "") with
    | None -> None (* skip metadata/unknown phases *)
    | Some kind ->
        let arg =
          match Option.bind (Json.member "args" j) (Json.member "value") with
          | Some v -> Option.value ~default:0 (Json.to_int_opt v)
          | None -> 0
        in
        Some
          {
            Ev.name = str "name" "?";
            cat = str "cat" "misc";
            kind;
            ts_ns = int_of_float (Float.round (num "ts" 0.0 *. 1e3));
            arg;
            tid = int "tid" 0;
          }

  let of_string s =
    match Json.of_string s with
    | Error e -> Error ("chrome trace: " ^ e)
    | Ok j -> (
        match Json.member "traceEvents" j with
        | Some (Json.List evs) ->
            let events = List.filter_map event_of_json evs in
            let heat =
              match Json.member "stateHeat" j with
              | Some (Json.List ts) ->
                  List.filter_map
                    (fun t -> Result.to_option (Heat.of_json t))
                    ts
              | _ -> []
            in
            Ok (events, heat)
        | _ -> Error "chrome trace: missing traceEvents array")
end

(* ---- Aggregated span-tree report ---- *)

module Report = struct
  type node = {
    name : string;
    cat : string;
    mutable total_ns : int;
    mutable self_ns : int;
    mutable count : int;
    mutable children : node list;
  }

  type t = {
    events : int;
    threads : int;
    wall_ns : int;
    attributed_ns : int;
    by_cat : (string * int) list;
    counters : (string * int * int) list;
    roots : node list;
  }

  type frame = { node : node; start_ns : int; mutable child_ns : int }

  let find_or_add_child children_ref name cat =
    match
      List.find_opt (fun n -> n.name = name && n.cat = cat) !children_ref
    with
    | Some n -> n
    | None ->
        let n =
          { name; cat; total_ns = 0; self_ns = 0; count = 0; children = [] }
        in
        children_ref := !children_ref @ [ n ];
        n

  let build evs =
    let roots = ref [] in
    let counters : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    let counter_order = ref [] in
    let tids = Hashtbl.create 4 in
    List.iter (fun (e : Ev.t) -> Hashtbl.replace tids e.tid ()) evs;
    let by_tid tid = List.filter (fun (e : Ev.t) -> e.tid = tid) evs in
    let nevents = List.length evs in
    let wall_ns =
      match evs with
      | [] -> 0
      | first :: _ ->
          let last = List.fold_left (fun acc (e : Ev.t) -> max acc e.ts_ns) first.ts_ns evs in
          let lo = List.fold_left (fun acc (e : Ev.t) -> min acc e.ts_ns) first.ts_ns evs in
          last - lo
    in
    let tid_list =
      Hashtbl.fold (fun k () acc -> k :: acc) tids [] |> List.sort compare
    in
    List.iter
      (fun tid ->
        let stack : frame list ref = ref [] in
        let close (f : frame) ts =
          let dur = max 0 (ts - f.start_ns) in
          f.node.total_ns <- f.node.total_ns + dur;
          f.node.self_ns <- f.node.self_ns + (dur - f.child_ns);
          f.node.count <- f.node.count + 1;
          match !stack with
          | parent :: _ -> parent.child_ns <- parent.child_ns + dur
          | [] -> ()
        in
        let last_ts = ref 0 in
        List.iter
          (fun (e : Ev.t) ->
            last_ts := e.ts_ns;
            match e.kind with
            | Ev.Begin ->
                let node =
                  match !stack with
                  | [] -> find_or_add_child roots e.name e.cat
                  | f :: _ ->
                      let r = ref f.node.children in
                      let n = find_or_add_child r e.name e.cat in
                      f.node.children <- !r;
                      n
                in
                stack := { node; start_ns = e.ts_ns; child_ns = 0 } :: !stack
            | Ev.End ->
                if List.exists (fun f -> f.node.name = e.name) !stack then begin
                  (* close any nested spans left open above the match *)
                  let rec unwind () =
                    match !stack with
                    | [] -> ()
                    | f :: rest ->
                        stack := rest;
                        close f e.ts_ns;
                        if f.node.name <> e.name then unwind ()
                  in
                  unwind ()
                end
            | Ev.Instant | Ev.Counter ->
                let occ, sum =
                  match Hashtbl.find_opt counters e.name with
                  | Some v -> v
                  | None ->
                      counter_order := e.name :: !counter_order;
                      (0, 0)
                in
                Hashtbl.replace counters e.name (occ + 1, sum + e.arg))
          (by_tid tid);
        (* close spans left open at end of stream *)
        let rec drain () =
          match !stack with
          | [] -> ()
          | f :: rest ->
              stack := rest;
              close f !last_ts;
              drain ()
        in
        drain ())
      tid_list;
    let attributed_ns =
      List.fold_left (fun acc n -> acc + n.total_ns) 0 !roots
    in
    let by_cat = Hashtbl.create 8 in
    let rec walk n =
      let cur = Option.value ~default:0 (Hashtbl.find_opt by_cat n.cat) in
      Hashtbl.replace by_cat n.cat (cur + n.self_ns);
      List.iter walk n.children
    in
    List.iter walk !roots;
    let by_cat =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_cat []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let counters =
      List.rev_map
        (fun name ->
          let occ, sum = Hashtbl.find counters name in
          (name, occ, sum))
        !counter_order
    in
    {
      events = nevents;
      threads = List.length tid_list;
      wall_ns;
      attributed_ns;
      by_cat;
      counters;
      roots = !roots;
    }

  let attribution_pct r =
    if r.wall_ns <= 0 then 0.0
    else 100.0 *. float_of_int r.attributed_ns /. float_of_int r.wall_ns

  let to_text ?(max_depth = 8) r =
    let b = Buffer.create 1024 in
    let s_of_ns ns = float_of_int ns /. 1e9 in
    Buffer.add_string b
      (Printf.sprintf
         "trace report: %d events, %d thread(s), wall %.6f s, attributed %.1f%%\n"
         r.events r.threads (s_of_ns r.wall_ns) (attribution_pct r));
    if r.by_cat <> [] then begin
      Buffer.add_string b "by category (self time):\n";
      List.iter
        (fun (cat, ns) ->
          let pct =
            if r.wall_ns <= 0 then 0.0
            else 100.0 *. float_of_int ns /. float_of_int r.wall_ns
          in
          Buffer.add_string b
            (Printf.sprintf "  %-10s %8.6f s  %5.1f%%\n" cat (s_of_ns ns) pct))
        r.by_cat
    end;
    if r.roots <> [] then begin
      Buffer.add_string b
        "span tree (total / self / count):\n";
      let rec pr depth n =
        if depth <= max_depth then begin
          Buffer.add_string b
            (Printf.sprintf "  %s%-*s %10.6f s %10.6f s %9d\n"
               (String.make (2 * depth) ' ')
               (max 1 (28 - (2 * depth)))
               n.name (s_of_ns n.total_ns) (s_of_ns n.self_ns) n.count);
          List.iter (pr (depth + 1)) n.children
        end
      in
      List.iter (pr 0) r.roots
    end;
    if r.counters <> [] then begin
      Buffer.add_string b "counters/instants (occurrences, summed value):\n";
      List.iter
        (fun (name, occ, sum) ->
          Buffer.add_string b (Printf.sprintf "  %-28s %9d %12d\n" name occ sum))
        r.counters
    end;
    Buffer.contents b
end
