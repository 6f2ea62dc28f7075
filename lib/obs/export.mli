(** Registry serialization: compact JSON and Prometheus text format.

    The JSON schema (documented in README §Observability) is

    {v
    {"schema":"streamtok/metrics/v1",
     "metrics":[
       {"name":"tokens","type":"counter","value":12},
       {"name":"chunk_bytes","type":"histogram",
        "count":3,"sum":96,"max":64,"buckets":[[0,0],[1,0],[3,0],[7,0],[15,1],[31,1],[63,0],[127,1]]},
       {"name":"run_seconds","type":"span","count":1,"seconds":0.004},
       ...]}
    v}

    with [labels] and [help] fields present only when non-empty, and
    histogram buckets as [[inclusive_upper_bound, count]] pairs.

    The Prometheus rendering follows the text exposition format: counters
    and gauges as single samples, histograms with cumulative
    [_bucket{le="..."}] series plus [_sum]/[_count], spans as summaries
    ([_sum] in seconds, [_count] sections). All names get a
    [namespace ^ "_"] prefix (default ["streamtok"]) and are sanitized to
    the Prometheus grammar. *)

(** The bare metrics array (embed it under your own top-level fields). *)
val registry_to_json : Metrics.Registry.t -> Json.t

(** A complete document: [{"schema":"streamtok/metrics/v1","metrics":[…]}]. *)
val to_json_string : Metrics.Registry.t -> string

val to_prometheus : ?namespace:string -> Metrics.Registry.t -> string
