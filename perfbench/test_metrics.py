"""Tests of the benchmark's own arithmetic (perfbench/metrics.py).

    python3 perfbench/test_metrics.py
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics as m  # noqa: E402


def op(kind="p", phase="o", due=0.0, send=0.0, done=0.0, ok=True, pass_=0, stored=None):
    if stored is None:
        stored = 5e5 if kind == "p" else 0.0
    return [kind, phase, pass_, due, send, done, 1 if ok else 0, stored]


def record(ops, phases, **extra):
    base = {
        "setup_s": [0.3, 0.1, 0.2],
        "ops": ops,
        "phases": phases,
        "field_bytes": 2e6,
        "mean_rel_error": 1e-4,
        "max_rel_error": 1e-3,
        "peak_rss_mb": 64.0,
        "client_retries": 0,
        "checks": 0,
        "failures": 0,
        "replay_diverged": "",
        "failure_reasons": [],
    }
    base.update(extra)
    return base


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(m.percentile(values, 0.50), 50)
        self.assertEqual(m.percentile(values, 0.95), 95)
        self.assertEqual(m.percentile(values, 1.00), 100)
        self.assertEqual(m.percentile([7.0], 0.95), 7.0)
        self.assertEqual(m.percentile(list(reversed(values)), 0.95), 95)

    def test_ten_samples_beyond_p95_needs_200(self):
        self.assertEqual(m.beyond(200, 0.95), 10)
        self.assertEqual(m.beyond(199, 0.95), 9)
        self.assertEqual(m.beyond(40, 0.75), 10)
        values = list(range(200))
        p95 = m.percentile(values, 0.95)
        self.assertEqual(sum(1 for v in values if v > p95), 10)

    def test_thin_tail_is_flagged(self):
        phases = [["o", 0, 0.0, 1.0, 100.0], ["c", 0, 1.0, 2.0, 0.0]]
        few = [op("p", "o", i, i, i + 1) for i in range(39)] + [op("g", "o", i, i, i + 1) for i in range(40)]
        warnings = m.thin_tails("svc-fig9-mixed", record(few, phases))
        self.assertEqual(len(warnings), 1)
        self.assertTrue(warnings[0].startswith("put_tail_ms"))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)


class DueTimeLatency(unittest.TestCase):
    def test_stalled_sender_charges_the_queue(self):
        # Requests due every 10 ms; the first takes 50 ms, so the next four
        # go out late, back to back, each taking 1 ms of service.
        ops = [m.Op("p", "o", 0, 0.000, 0.000, 0.050, True, 0.0)]
        t = 0.050
        for k in range(1, 5):
            ops.append(m.Op("p", "o", 0, 0.010 * k, t, t + 0.001, True, 0.0))
            t += 0.001
        lat = [m.due_latency(o) for o in ops]
        svc = [m.service_time(o) for o in ops]
        late = [m.lateness(o) for o in ops]
        self.assertAlmostEqual(lat[0], 0.050)
        self.assertAlmostEqual(lat[1], 0.041)  # waited 40 ms, served in 1
        self.assertAlmostEqual(lat[4], 0.014)
        self.assertTrue(all(abs(s - 0.001) < 1e-12 for s in svc[1:]))
        self.assertAlmostEqual(late[1], 0.040)
        # The open-loop median sees the stall; the service-time median does not.
        self.assertGreater(m.percentile(lat, 0.5), 10 * m.percentile(svc, 0.5))

    def test_failed_request_misses_every_limit(self):
        failed = m.Op("p", "o", 0, 0.0, 0.0, 0.001, False, 0.0)
        self.assertEqual(m.due_latency(failed), math.inf)
        self.assertEqual(m.percentile([0.001, 0.002, m.due_latency(failed)], 1.0), math.inf)


class SelfTime(unittest.TestCase):
    def span(self, t0, t1, sid=0, parent=0, name="x"):
        return m.Span(sid, parent, name, "", t0, t1, 0.0, 0.0)

    def test_overlaps_count_once_and_children_are_clipped(self):
        parent = self.span(0.0, 10.0)
        kids = [self.span(1.0, 3.0), self.span(2.0, 4.0), self.span(9.0, 12.0), self.span(11.0, 13.0)]
        self.assertAlmostEqual(m.self_time(parent, kids), 10.0 - 3.0 - 1.0)

    def test_no_children(self):
        self.assertAlmostEqual(m.self_time(self.span(1.0, 2.5), []), 1.5)

    def test_nested_children_do_not_double_count(self):
        parent = self.span(0.0, 4.0)
        kids = [self.span(0.0, 2.0), self.span(0.5, 1.0)]
        self.assertAlmostEqual(m.self_time(parent, kids), 2.0)


class FailedFrac(unittest.TestCase):
    def test_ops_and_checks_are_attempts(self):
        rec = record([op(ok=True), op(ok=False), op(ok=True)], [], checks=5, failures=2)
        attempted, failed = m.counts(rec, m.parse_ops(rec))
        self.assertEqual((attempted, failed), (8, 2))
        self.assertAlmostEqual(m.failed_frac(attempted, failed), 0.25)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            m.failed_frac(0, 0)


class EndToEnd(unittest.TestCase):
    def test_service_workload(self):
        phases = [["o", 0, 0.0, 2.0, 100.0], ["c", 0, 2.0, 4.0, 0.0]]
        ops = [op("p", "o", i * 0.01, i * 0.01, i * 0.01 + 0.002) for i in range(200)]
        ops += [op("g", "o", i * 0.01 + 0.005, i * 0.01 + 0.005, i * 0.01 + 0.0055) for i in range(200)]
        ops += [op("p", "c", 2 + i * 0.01, 2 + i * 0.01, 2 + i * 0.01 + 0.004) for i in range(100)]
        ops += [op("p", "w", 0, 0, 1, stored=2e6)]  # warm-up: attempted, never timed
        out = m.end_to_end("svc-fig9-mixed", record(ops, phases))
        self.assertAlmostEqual(out["setup_s"], 0.2)
        self.assertAlmostEqual(out["put_p50_ms"], 2.0)
        self.assertAlmostEqual(out["put_tail_ms"], 2.0)
        self.assertAlmostEqual(out["get_p50_ms"], 0.5)
        self.assertAlmostEqual(out["put_capacity_per_s"], 50.0)
        self.assertAlmostEqual(out["ckpt_write_mbps"], 1000.0)
        self.assertAlmostEqual(out["restore_mbps"], 4000.0)
        self.assertAlmostEqual(out["compression_rate_pct"], 25.0)
        self.assertEqual(set(out), set(m.END_TO_END_UNITS))

    def test_traced_pass_is_excluded(self):
        phases = [["c", 0, 0.0, 1.0, 0.0], ["c", 1, 1.0, 2.0, 0.0]]
        ops = [op("p", "c", 0, 0, 0.1), op("g", "c", 0.1, 0.1, 0.15)] * 20
        ops += [op("p", "c", 1, 1, 1.9, pass_=1), op("g", "c", 1.9, 1.9, 2.0, pass_=1)] * 20
        out = m.end_to_end("ckpt-fig9", record(ops, phases))
        self.assertAlmostEqual(out["put_p50_ms"], 100.0)
        self.assertAlmostEqual(out["put_capacity_per_s"], 20.0)

    def test_ckpt_warm_up_is_not_timed(self):
        # Each setup repetition runs one slow, cold iteration tagged "w";
        # it must not reach latency, throughput, capacity or Eq. 5.
        phases = [["c", 0, 0.0, 1.0, 0.0]]
        timed = [op("p", "c", 0, 0, 0.04), op("g", "c", 0.04, 0.04, 0.05)] * 20
        warm = [op("p", "w", 0, 0, 0.5, stored=2e6), op("g", "w", 0.5, 0.5, 0.7)] * 3
        rec = record(timed + warm, phases)
        base = m.end_to_end("ckpt-fig9", record(timed, phases))
        out = m.end_to_end("ckpt-fig9", rec)
        for name in ("put_p50_ms", "put_tail_ms", "get_p50_ms", "get_tail_ms", "ckpt_write_mbps",
                     "restore_mbps", "put_capacity_per_s", "compression_rate_pct"):
            self.assertAlmostEqual(out[name], base[name], msg=name)
        self.assertAlmostEqual(out["put_p50_ms"], 40.0)
        self.assertAlmostEqual(out["put_capacity_per_s"], 20.0)
        self.assertEqual(m.counts(rec, m.parse_ops(rec))[0], 46)


class PerLayer(unittest.TestCase):
    def test_request_split(self):
        # One traced put of 10 ms: codec 4 ms, two I/O ops 2 ms in all
        # (one on the manifest), wire replays 1 ms after the reply.
        trace = [
            [1, 0, "client.put", "", 0.000, 0.010, 2048, 1000],
            [2, 1, "codec.encode", "", 0.001, 0.005, 2048, 900],
            [3, 1, "io.write", "generation", 0.005, 0.006, 1000, 0],
            [4, 1, "io.fsync", "manifest", 0.006, 0.007, 0, 0],
            [5, 1, "replay.net.put_encode", "", 0.011, 0.0115, 2100, 0],
            [6, 1, "replay.net.put_decode", "", 0.0115, 0.012, 2100, 0],
            [7, 0, "replay.input", "", 1.0, 2.0, 0, 0],
            [8, 7, "replay.compress", "", 1.0, 1.010, 0, 0],
            [9, 7, "replay.compress.none", "", 1.010, 1.012, 500, 0.75],
            [10, 7, "replay.deflate", "", 1.012, 1.019, 500, 250],
            [11, 7, "replay.wavelet.fwd", "", 1.019, 1.020, 2048, 0],
        ]
        phases = [["o", 0, 0, 1, 10.0], ["o", 1, 1, 2, 10.0]]
        rec = record([op("p", "o", 0, 0, 0.01), op("p", "o", 1, 1, 1.011, pass_=1)], phases)
        out = m.per_layer("svc-fig9-mixed", rec, trace)
        self.assertAlmostEqual(out["ckpt.codec_encode_ms"], 4.0)
        self.assertAlmostEqual(out["io.write_ms"], 1.0)
        self.assertAlmostEqual(out["ckpt.manifest_ms"], 1.0)
        self.assertEqual(out["io.ops_per_put"], 2)
        self.assertAlmostEqual(out["io.bytes_per_put"], 1000)
        self.assertAlmostEqual(out["server.put_other_ms"], 10.0 - 4.0 - 2.0 - 1.0)
        self.assertAlmostEqual(out["net.frame_bytes"], 2100)
        self.assertAlmostEqual(out["quantize_encode.ms"], 1.0)
        self.assertAlmostEqual(out["quantize.quantized_frac"], 0.75)
        self.assertAlmostEqual(out["deflate.ratio"], 0.5)
        self.assertAlmostEqual(out["compress.unattributed_frac"], (10.0 - 2.0 - 7.0) / 10.0)
        self.assertAlmostEqual(out["trace.overhead_frac"], 0.1)
        self.assertEqual(set(out), set(m.PER_LAYER_UNITS))


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q = m.statistics.quantiles(values, n=4)
        self.assertAlmostEqual(m.spread(values), (q[2] - q[0]) / 14.5)


if __name__ == "__main__":
    unittest.main()
