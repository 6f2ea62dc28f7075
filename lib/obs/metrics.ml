module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = 0.0 }
  let set g v = g.v <- v
  let set_int g v = g.v <- float_of_int v
  let set_max g v = if v > g.v then g.v <- v
  let value g = g.v
end

module Histogram = struct
  type t = {
    buckets : int array;  (* 63 log2 buckets; index = bit length *)
    mutable count : int;
    mutable sum : int;
    mutable max_value : int;
  }

  let num_buckets = 63

  let create () =
    { buckets = Array.make num_buckets 0; count = 0; sum = 0; max_value = 0 }

  let bucket_index v =
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    if v <= 0 then 0 else bits 0 v

  let bucket_upper i = (1 lsl i) - 1

  let observe h v =
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    if v > h.max_value then h.max_value <- v

  let count h = h.count
  let sum h = h.sum
  let max_value h = h.max_value

  (* Snapshot/merge support for cross-domain aggregation: a worker domain
     publishes [copy]s of its histograms and an aggregator [merge]s them
     into one distribution. Log2 buckets make the merge exact — same
     boundaries everywhere, so summing per-bucket counts loses nothing. *)
  let copy h =
    {
      buckets = Array.copy h.buckets;
      count = h.count;
      sum = h.sum;
      max_value = h.max_value;
    }

  let merge dst src =
    Array.iteri (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c) src.buckets;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    if src.max_value > dst.max_value then dst.max_value <- src.max_value

  let observe_seconds h dt =
    observe h (if dt <= 0.0 then 0 else int_of_float (dt *. 1e9))

  let buckets h =
    let hi = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then hi := i) h.buckets;
    List.init (!hi + 1) (fun i -> (bucket_upper i, h.buckets.(i)))

  (* Quantile estimate from log2 buckets: find the bucket holding the
     continuous rank [q * count], then interpolate linearly inside it
     assuming observations are uniform over [2^(i-1), 2^i - 1].  The
     estimate is therefore exact at bucket boundaries and off by at most
     the bucket width (a factor of 2) in the worst case — the inherent
     resolution of a log2 histogram. *)
  let percentile h q =
    if h.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int h.count in
      let i = ref 0 and before = ref 0 in
      while
        !i < num_buckets - 1
        && float_of_int (!before + h.buckets.(!i)) < target
      do
        before := !before + h.buckets.(!i);
        incr i
      done;
      let i = !i in
      if i = 0 then 0.0
      else begin
        let lo = float_of_int (bucket_upper (i - 1) + 1) in
        let hi = float_of_int (bucket_upper i) in
        let in_bucket = float_of_int h.buckets.(i) in
        let frac =
          if in_bucket <= 0.0 then 1.0
          else (target -. float_of_int !before) /. in_bucket
        in
        let v = lo +. ((hi -. lo) *. frac) in
        (* The true values never exceed the recorded maximum; clamp so
           tail quantiles of a single-valued distribution stay honest. *)
        Float.min v (float_of_int h.max_value)
      end
    end
end

module Span = struct
  type t = { mutable seconds : float; mutable count : int }

  let create () = { seconds = 0.0; count = 0 }

  let add s dt =
    s.seconds <- s.seconds +. dt;
    s.count <- s.count + 1

  let time s f =
    let t0 = Unix.gettimeofday () in
    let finally () = add s (Unix.gettimeofday () -. t0) in
    Fun.protect ~finally f

  let count s = s.count
  let seconds s = s.seconds
end

type kind =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Span of Span.t

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
}

module Registry = struct
  type t = { mutable rev_metrics : metric list }

  let create () = { rev_metrics = [] }
  let add r m = r.rev_metrics <- m :: r.rev_metrics

  let make r ?(help = "") ?(labels = []) name kind =
    add r { name; help; labels; kind }

  let counter r ?help ?labels name =
    let c = Counter.create () in
    make r ?help ?labels name (Counter c);
    c

  let gauge r ?help ?labels name =
    let g = Gauge.create () in
    make r ?help ?labels name (Gauge g);
    g

  let histogram r ?help ?labels name =
    let h = Histogram.create () in
    make r ?help ?labels name (Histogram h);
    h

  let span r ?help ?labels name =
    let s = Span.create () in
    make r ?help ?labels name (Span s);
    s

  let metrics r = List.rev r.rev_metrics

  let copy_kind = function
    | Counter c -> Counter { Counter.v = c.Counter.v }
    | Gauge g -> Gauge { Gauge.v = g.Gauge.v }
    | Histogram h -> Histogram (Histogram.copy h)
    | Span s -> Span { Span.seconds = s.Span.seconds; count = s.Span.count }

  let copy r =
    {
      rev_metrics =
        List.map (fun m -> { m with kind = copy_kind m.kind }) r.rev_metrics;
    }

  (* Positional: registries built by the same code have the same metrics
     in the same order, which is the only shape a merge makes sense for. *)
  let merge dst src =
    let fold (d : metric) (s : metric) =
      if d.name <> s.name || d.labels <> s.labels then
        invalid_arg (Printf.sprintf "Registry.merge: %s vs %s" d.name s.name);
      match (d.kind, s.kind) with
      | Counter a, Counter b -> a.Counter.v <- a.Counter.v + b.Counter.v
      | Gauge a, Gauge b -> a.Gauge.v <- a.Gauge.v +. b.Gauge.v
      | Histogram a, Histogram b -> Histogram.merge a b
      | Span a, Span b ->
          a.Span.seconds <- a.Span.seconds +. b.Span.seconds;
          a.Span.count <- a.Span.count + b.Span.count
      | _ -> invalid_arg ("Registry.merge: kind mismatch on " ^ d.name)
    in
    if List.compare_lengths dst.rev_metrics src.rev_metrics <> 0 then
      invalid_arg "Registry.merge: different metric counts";
    List.iter2 fold dst.rev_metrics src.rev_metrics
end
