"""Self-tests of the benchmark harness.

    python3 perfbench/test_harness.py
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

from checks import CheckError, parse_devices_csv, parse_series_csv, require_equal_devices, require_equal_series
from mp4writer import frame_sizes, reference_mp4
from spans import Tracer, self_times, totals_by_name

DEVICES_CSV = """start_time,step
0.0,1.0
02:00:00:00:01:01,02:00:00:00:02:01
1500,0
64,3000
"""

SERIES_CSV = """start_time,step
0.0,1.0
index,bytes
0,50000
1,61234
"""


class OutputChecks(unittest.TestCase):
    def test_identical_devices_pass(self):
        require_equal_devices(parse_devices_csv(DEVICES_CSV), parse_devices_csv(DEVICES_CSV))

    def test_one_byte_changed_in_a_device_series_is_rejected(self):
        changed = DEVICES_CSV.replace("64,3000", "64,3001")
        with self.assertRaises(CheckError):
            require_equal_devices(parse_devices_csv(DEVICES_CSV), parse_devices_csv(changed))

    def test_one_byte_changed_in_the_reference_is_rejected(self):
        changed = SERIES_CSV.replace("1,61234", "1,61235")
        with self.assertRaises(CheckError):
            require_equal_series("reference", parse_series_csv(SERIES_CSV), parse_series_csv(changed))

    def test_missing_device_is_rejected(self):
        one_device = "start_time,step\n0.0,1.0\n02:00:00:00:01:01\n1500\n64\n"
        with self.assertRaises(CheckError):
            require_equal_devices(parse_devices_csv(DEVICES_CSV), parse_devices_csv(one_device))


class SelfTime(unittest.TestCase):
    # op [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a [5, 9].
    SPANS = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]

    def test_self_time_is_duration_minus_children(self):
        self.assertEqual(self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_the_root(self):
        self.assertEqual(sum(self_times(self.SPANS)), 10.0)

    def test_totals_by_name(self):
        total, own = totals_by_name(self.SPANS)
        self.assertEqual(dict(total), {"op": 10.0, "a": 7.0, "b": 1.0})
        self.assertEqual(dict(own), {"op": 3.0, "a": 6.0, "b": 1.0})

    def test_recorded_spans_nest_and_unwrap_restores(self):
        class Module:
            @staticmethod
            def inner(x):
                return x + 1

            @staticmethod
            def outer(x):
                return Module.inner(x) * 2

        original = Module.outer
        tracer = Tracer()
        tracer.wrap(Module, "inner", "inner", count=lambda c, a, k, r: c.update(calls=1))
        tracer.wrap(Module, "outer", "outer")
        with tracer.span("op"):
            self.assertEqual(Module.outer(1), 4)
        tracer.unwrap()
        self.assertIs(Module.outer, original)
        spans, counts = tracer.take()
        self.assertEqual([(s[0], s[3]) for s in spans], [("op", -1), ("outer", 0), ("inner", 1)])
        self.assertEqual(counts["calls"], 1)
        self.assertAlmostEqual(sum(self_times(spans)), spans[0][2] - spans[0][1], delta=1e-9)


class ReferenceMp4(unittest.TestCase):
    def test_frames_of_each_step_sum_to_its_bytes(self):
        steps = [50_000, 31, 0, 29]
        sizes = frame_sizes(steps, 30)
        self.assertEqual(len(sizes), 30 * len(steps))
        self.assertEqual([sum(sizes[i * 30:(i + 1) * 30]) for i in range(len(steps))], steps)

    def test_program_reads_back_the_steps(self):
        from simobs import mp4

        steps = [50_000, 123_457, 0, 99]
        series = mp4.video_byte_series(mp4.parse_mp4(reference_mp4(steps)))
        self.assertEqual((series.start_time, series.step), (0.0, 1.0))
        self.assertEqual(series.values.tolist(), steps)


if __name__ == "__main__":
    unittest.main()
