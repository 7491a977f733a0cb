"""Metric arithmetic of the benchmark: turns the driver's raw record (op
timestamps, setup times, counts) and trace (spans) into the end-to-end
and per-layer metrics listed in BENCHMARK.json.

Kept apart from run.py so test_metrics.py can check it on hand-made
records without building anything.
"""

import math
import statistics
from collections import defaultdict, namedtuple

Op = namedtuple("Op", "kind phase pass_ due send done ok stored")
Span = namedtuple("Span", "id parent name tag t0 t1 a b")

# Tail percentile of put and get latency. ckpt-fig9 completes 55 to 120
# writes in a 20 s run, too few for p95. On svc-fig9-mixed, p95 of a
# 17 ms get moved by up to 2.5x with the shared host's load, while p75
# stayed near the gets that overlap another client's put (about half of
# them), the population the workload is for.
TAIL_Q = 0.75
MIN_BEYOND = 10

# Which ops each end-to-end metric reads: (kind, phase) per workload.
# ckpt-fig9 is one closed loop; svc-fig9-mixed times puts and gets in
# its open-loop phase. Capacity always comes from the closed-loop phase.
# Warm-up ops (phase "w") are never timed.
OPS = {
    "ckpt-fig9": {"put": ("p", "c"), "get": ("g", "c"), "capacity": ("p", "c")},
    "svc-fig9-mixed": {"put": ("p", "o"), "get": ("g", "o"), "capacity": ("p", "c")},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "put_p50_ms": "ms",
    "put_tail_ms": "ms",
    "get_p50_ms": "ms",
    "get_tail_ms": "ms",
    "ckpt_write_mbps": "MB/s",
    "restore_mbps": "MB/s",
    "put_capacity_per_s": "1/s",
    "compression_rate_pct": "%",
    "mean_rel_error": "fraction",
    "max_rel_error": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "wavelet.fwd_ms": "ms",
    "wavelet.inv_ms": "ms",
    "wavelet.bytes": "bytes",
    "quantize_encode.ms": "ms",
    "quantize.quantized_frac": "fraction",
    "encode.payload_bytes": "bytes",
    "encode.decode_ms": "ms",
    "deflate.ms": "ms",
    "deflate.in_mbps": "MB/s",
    "deflate.ratio": "ratio",
    "deflate.call_us": "us",
    "inflate.ms": "ms",
    "compress.ms": "ms",
    "decompress.ms": "ms",
    "compress.unattributed_frac": "fraction",
    "ckpt.codec_encode_ms": "ms",
    "ckpt.manifest_ms": "ms",
    "ckpt.self_ms": "ms",
    "io.write_ms": "ms",
    "io.fsync_ms": "ms",
    "io.fsync_dir_ms": "ms",
    "io.rename_ms": "ms",
    "io.read_ms": "ms",
    "io.ops_per_put": "count",
    "io.bytes_per_put": "bytes",
    "net.put_encode_us": "us",
    "net.put_decode_us": "us",
    "net.getok_encode_us": "us",
    "net.frame_bytes": "bytes",
    "server.put_other_ms": "ms",
    "server.get_other_ms": "ms",
    "driver.late_p95_ms": "ms",
    "driver.failed_frac": "fraction",
    "client.retries": "count",
    "trace.overhead_frac": "fraction",
    "calib.zlib_mbps": "MB/s",
}


# ----------------------------------------------------------- primitives

def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    fraction q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly beyond the nearest-rank q-percentile of n."""
    return n - max(1, math.ceil(q * n))


def due_latency(op):
    """Open-loop latency: from when the request was due, so a stalled
    sender's wait counts against every request queued behind it. A
    failed or refused request misses every latency limit."""
    return op.done - op.due if op.ok else math.inf


def service_time(op):
    return op.done - op.send


def lateness(op):
    """How late the load generator sent the request."""
    return op.send - op.due


def self_time(span, children):
    """Duration of `span` not covered by any child, with each child
    clipped to the span's interval and overlaps counted once."""
    intervals = sorted(
        (max(c.t0, span.t0), min(c.t1, span.t1)) for c in children if c.t1 > span.t0 and c.t0 < span.t1
    )
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span.t1 - span.t0) - covered


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def spread(values):
    """Interquartile distance as a share of the median."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# ------------------------------------------------------------- records

def parse_ops(record):
    return [Op(k, ph, int(ps), due, send, done, bool(ok), stored) for k, ph, ps, due, send, done, ok, stored in record["ops"]]


def parse_spans(trace):
    return [Span(int(i), int(p), n, t, t0, t1, a, b) for i, p, n, t, t0, t1, a, b in trace]


def select(ops, kind, phase, pass_=0):
    return [o for o in ops if o.kind == kind and o.phase == phase and o.pass_ == pass_]


def phase_seconds(record, phase, pass_=0):
    return sum(end - start for ph, ps, start, end, _ in record["phases"] if ph == phase and int(ps) == pass_)


def counts(record, ops):
    """(attempted, failed): every timed or warm-up op plus every stored
    stream check; each failure the driver saw counts once."""
    return len(ops) + int(record["checks"]), int(record["failures"])


def end_to_end(workload, record):
    ops = parse_ops(record)
    sel = OPS[workload]
    puts = select(ops, *sel["put"])
    gets = select(ops, *sel["get"])
    cap = [o for o in select(ops, *sel["capacity"]) if o.ok]
    committed = [o for o in ops if o.kind == "p" and o.phase != "w" and o.ok]
    put_lat = [due_latency(o) * 1e3 for o in puts]
    get_lat = [due_latency(o) * 1e3 for o in gets]
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "put_p50_ms": percentile(put_lat, 0.50),
        "put_tail_ms": percentile(put_lat, TAIL_Q),
        "get_p50_ms": percentile(get_lat, 0.50),
        "get_tail_ms": percentile(get_lat, TAIL_Q),
        "ckpt_write_mbps": record["field_bytes"] / 1e6 / statistics.median(service_time(o) for o in puts),
        "restore_mbps": record["field_bytes"] / 1e6 / statistics.median(service_time(o) for o in gets),
        "put_capacity_per_s": len(cap) / phase_seconds(record, sel["capacity"][1]),
        "compression_rate_pct": 100.0 * sum(o.stored for o in committed) / (len(committed) * record["field_bytes"]),
        "mean_rel_error": record["mean_rel_error"],
        "max_rel_error": record["max_rel_error"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def thin_tails(workload, record):
    """Tail metrics whose op set has fewer than MIN_BEYOND samples past
    the tail percentile (reported, but flagged)."""
    ops = parse_ops(record)
    out = []
    for name in ("put", "get"):
        n = len(select(ops, *OPS[workload][name]))
        if beyond(n, TAIL_Q) < MIN_BEYOND:
            out.append(f"{name}_tail_ms: {n} samples, {beyond(n, TAIL_Q)} beyond p{round(TAIL_Q * 100)}")
    return out


# ------------------------------------------------------------ per layer

def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(workload, record, trace):
    ops = parse_ops(record)
    spans = parse_spans(trace)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent:
            children[s.parent].append(s)

    def dur_ms(name):
        return _median((s.t1 - s.t0) * 1e3 for s in by_name[name])

    def child_ms(span, pred):
        return sum((c.t1 - c.t0) * 1e3 for c in children[span.id] if pred(c))

    is_io = lambda c: c.name.startswith("io.")  # noqa: E731
    is_codec = lambda c: c.name == "codec.encode"  # noqa: E731
    is_net = lambda c: c.name.startswith("replay.net.")  # noqa: E731

    put_spans = by_name["ckpt.write"] + by_name["client.put"]
    get_spans = by_name["ckpt.restore"] + by_name["client.get"]
    m = {}

    # Layer replays on the workload's own inputs.
    m["wavelet.fwd_ms"] = dur_ms("replay.wavelet.fwd")
    m["wavelet.inv_ms"] = dur_ms("replay.wavelet.inv")
    m["wavelet.bytes"] = _median(s.a for s in by_name["replay.wavelet.fwd"])
    none_ms = dur_ms("replay.compress.none")
    m["quantize_encode.ms"] = none_ms - m["wavelet.fwd_ms"]
    m["quantize.quantized_frac"] = _median(s.b for s in by_name["replay.compress.none"])
    m["encode.payload_bytes"] = _median(s.a for s in by_name["replay.compress.none"])
    m["encode.decode_ms"] = dur_ms("replay.encode.decode")
    m["deflate.ms"] = dur_ms("replay.deflate")
    m["deflate.in_mbps"] = _median(s.a / (s.t1 - s.t0) / 1e6 for s in by_name["replay.deflate"])
    sum_in = sum(s.a for s in by_name["replay.deflate"])
    m["deflate.ratio"] = sum(s.b for s in by_name["replay.deflate"]) / sum_in if sum_in else 0.0
    m["deflate.call_us"] = dur_ms("replay.deflate.call") * 1e3
    m["inflate.ms"] = dur_ms("replay.inflate")
    m["compress.ms"] = dur_ms("replay.compress")
    m["decompress.ms"] = dur_ms("replay.decompress")
    m["compress.unattributed_frac"] = (
        (m["compress.ms"] - none_ms - m["deflate.ms"]) / m["compress.ms"] if m["compress.ms"] else 0.0
    )

    # Decorator spans under each traced put / get.
    m["ckpt.codec_encode_ms"] = _median(child_ms(p, is_codec) for p in put_spans)
    m["ckpt.manifest_ms"] = _median(child_ms(p, lambda c: is_io(c) and c.tag == "manifest") for p in put_spans)
    m["ckpt.self_ms"] = _median(
        self_time(p, [c for c in children[p.id] if is_io(c) or is_codec(c)]) * 1e3 for p in by_name["ckpt.write"]
    )
    for op in ("write", "fsync", "fsync_dir", "rename"):
        m[f"io.{op}_ms"] = _median(child_ms(p, lambda c, n=f"io.{op}": c.name == n) for p in put_spans)
    m["io.read_ms"] = _median(child_ms(g, lambda c: c.name == "io.read") for g in get_spans)
    m["io.ops_per_put"] = _median(sum(1 for c in children[p.id] if is_io(c)) for p in put_spans)
    m["io.bytes_per_put"] = _median(sum(c.a for c in children[p.id] if c.name == "io.write") for p in put_spans)

    # Wire replays of each traced request's own messages.
    m["net.put_encode_us"] = dur_ms("replay.net.put_encode") * 1e3
    m["net.put_decode_us"] = dur_ms("replay.net.put_decode") * 1e3
    m["net.getok_encode_us"] = dur_ms("replay.net.getok_encode") * 1e3
    m["net.frame_bytes"] = _median(s.a for s in by_name["replay.net.put_encode"])

    # What the client waited for that no measured layer accounts for:
    # server dispatch, framing, socket hops, manager bookkeeping.
    m["server.put_other_ms"] = _median(
        (p.t1 - p.t0) * 1e3 - child_ms(p, lambda c: is_io(c) or is_codec(c) or is_net(c)) for p in by_name["client.put"]
    )
    m["server.get_other_ms"] = _median(
        (g.t1 - g.t0) * 1e3 - child_ms(g, lambda c: is_io(c) or is_net(c)) - m["decompress.ms"]
        for g in by_name["client.get"]
    )

    open_ops = [o for o in ops if o.pass_ == 0 and _is_open(record, o)]
    m["driver.late_p95_ms"] = percentile([lateness(o) * 1e3 for o in open_ops], 0.95) if open_ops else 0.0
    attempted, failed = counts(record, ops)
    m["driver.failed_frac"] = failed_frac(attempted, failed)
    m["client.retries"] = float(record["client_retries"])
    put_kind, put_phase = OPS[workload]["put"]
    untraced = [service_time(o) for o in select(ops, put_kind, put_phase, 0)]
    traced = [service_time(o) for o in select(ops, put_kind, put_phase, 1)]
    m["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0 if untraced and traced else 0.0
    )
    m["calib.zlib_mbps"] = _median(s.a / (s.t1 - s.t0) / 1e6 for s in by_name["calib.zlib"])
    return m


def _is_open(record, op):
    """True when op ran in an open-loop phase (one with a rate)."""
    return any(ph == op.phase and int(ps) == op.pass_ and rate > 0 for ph, ps, _, _, rate in record["phases"])
