"""Tests for ``repro.obs.hist`` and the Prometheus exposition.

Covers the histogram bucket algebra (observe/subtract/copy), the
registry's
histogram plumbing (``observe_hist`` / ``snapshot`` / ``delta_since`` /
``histograms_dict``), and the text exposition's correctness properties
(label escaping, cumulative ``le``-ordered buckets ending ``+Inf``,
``_sum``/``_count`` consistency) — the latter cross-checked against
``tools/validate_prometheus.py``, the same validator CI runs.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.api import AnalysisSession
from repro.obs import DEFAULT_BUCKETS, Histogram, render_prometheus
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.program.asm import assemble

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "validate_prometheus.py"
_spec = importlib.util.spec_from_file_location("validate_prometheus", _TOOL)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
validate_exposition = _module.validate

SOURCE = """
.routine main export
    li  a0, 5
    bsr ra, helper
    bis zero, v0, a0
    output
    halt
.routine helper
    addq a0, #1, v0
    ret (ra)
"""


class TestHistogram:
    def test_observations_land_in_le_inclusive_buckets(self):
        hist = Histogram(boundaries=(0.001, 0.01, 0.1))
        hist.observe(0.0005)   # below first bound -> bucket 0
        hist.observe(0.001)    # exactly on a bound -> that bucket (le)
        hist.observe(0.05)     # interior -> bucket 2
        hist.observe(5.0)      # above last bound -> +Inf bucket
        assert hist.counts == [2, 0, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.0005 + 0.001 + 0.05 + 5.0)

    def test_default_ladder_is_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)
        assert DEFAULT_BUCKETS[0] > 0

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=())
        with pytest.raises(ValueError):
            Histogram(boundaries=(0.1, 0.1))
        with pytest.raises(ValueError):
            Histogram(boundaries=(0.0, 1.0))

    def test_quantile_interpolates_within_the_bucket(self):
        hist = Histogram(boundaries=(1.0, 2.0))
        for _ in range(10):
            hist.observe(1.5)  # all ten land in the (1, 2] bucket
        # The median rank falls halfway through that bucket.
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert 1.0 < hist.quantile(0.01) <= hist.quantile(0.99) <= 2.0

    def test_quantile_edge_cases(self):
        hist = Histogram(boundaries=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0  # empty
        hist.observe(100.0)  # +Inf bucket
        assert hist.quantile(0.99) == 2.0  # clamped to last finite bound
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_subtract_is_bucket_wise_and_guards_monotonicity(self):
        hist = Histogram(boundaries=(1.0, 2.0))
        hist.observe(0.5)
        earlier = hist.copy()
        hist.observe(1.5)
        hist.observe(1.5)
        delta = hist.subtract(earlier)
        assert delta.counts == [0, 2, 0]
        assert delta.count == 2
        assert delta.sum == pytest.approx(3.0)
        # The "snapshot" must be an earlier state of the same series.
        with pytest.raises(ValueError):
            earlier.subtract(hist)

    def test_copy_is_independent(self):
        hist = Histogram(boundaries=(1.0,))
        hist.observe(0.5)
        clone = hist.copy()
        hist.observe(0.5)
        assert clone.count == 1
        assert hist.count == 2

    def test_cumulative_ends_in_inf(self):
        hist = Histogram(boundaries=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        pairs = hist.cumulative()
        assert pairs == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_to_json_carries_headline_quantiles(self):
        hist = Histogram()
        hist.observe(0.002)
        payload = hist.to_json()
        assert set(payload) == {"count", "sum", "p50", "p95", "p99"}
        assert payload["count"] == 1
        assert json.dumps(payload)  # JSON-safe


class TestRegistryHistograms:
    def test_observe_hist_creates_labeled_series(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.01, endpoint="a")
        registry.observe_hist("svc.seconds", 0.02, endpoint="b")
        assert registry.histogram("svc.seconds", endpoint="a").count == 1
        assert registry.histogram("svc.seconds", endpoint="b").count == 1
        assert registry.histogram("svc.seconds", endpoint="zzz") is None

    def test_histogram_returns_a_frozen_copy(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.01)
        frozen = registry.histogram("svc.seconds")
        registry.observe_hist("svc.seconds", 0.01)
        assert frozen.count == 1
        assert registry.histogram("svc.seconds").count == 2

    def test_custom_buckets_stick_to_the_series(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.5, buckets=(1.0, 2.0))
        # Later buckets args are ignored: boundaries are fixed per series.
        registry.observe_hist("svc.seconds", 0.5, buckets=(7.0,))
        assert registry.histogram("svc.seconds").boundaries == (1.0, 2.0)

    def test_delta_since_subtracts_bucket_wise(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.01, endpoint="a")
        snap = registry.snapshot()
        registry.observe_hist("svc.seconds", 0.02, endpoint="a")
        registry.observe_hist("svc.seconds", 0.03, endpoint="a")
        delta = registry.delta_since(snap)
        entry = delta["svc.seconds{endpoint=a}"]
        assert entry["count"] == 2  # the pre-snapshot observation is gone
        assert entry["sum"] == pytest.approx(0.05)

    def test_untouched_histogram_is_absent_from_delta(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.01)
        snap = registry.snapshot()
        assert "svc.seconds" not in registry.delta_since(snap)

    def test_as_dict_stays_scalar_only(self):
        registry = MetricsRegistry()
        registry.inc("requests")
        registry.observe_hist("svc.seconds", 0.01)
        flat = registry.as_dict()
        assert flat == {"requests": 1}
        assert all(isinstance(v, (int, float)) for v in flat.values())

    def test_histograms_dict_shape(self):
        registry = MetricsRegistry()
        registry.observe_hist("svc.seconds", 0.5, buckets=(1.0, 2.0), ep="x")
        payload = registry.histograms_dict()["svc.seconds{ep=x}"]
        assert payload["count"] == 1
        assert payload["buckets"] == {"1.0": 1, "2.0": 1, "+Inf": 1}

class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.inc("solver.iterations", 7, phase="phase1")
        registry.observe_max("solver.max_queue_depth", 42, phase="phase1")
        registry.observe_hist(
            "service.request.seconds", 0.002, endpoint="analyze", warm="true"
        )
        registry.observe_hist(
            "service.request.seconds", 1.7, endpoint="analyze", warm="false"
        )
        return registry

    def test_families_types_and_name_sanitization(self):
        text = render_prometheus(self._registry())
        assert "# TYPE solver_iterations counter" in text
        assert "# TYPE solver_max_queue_depth gauge" in text
        assert "# TYPE service_request_seconds histogram" in text
        assert 'solver_iterations{phase="phase1"} 7' in text
        assert text.endswith("\n")
        assert "." not in text.split()[2]  # dots never leak into names

    def test_buckets_are_cumulative_le_ordered_and_end_inf(self):
        text = render_prometheus(self._registry())
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("service_request_seconds_bucket")
            and 'warm="false"' in line
        ]
        les = [line.split('le="')[1].split('"')[0] for line in bucket_lines]
        assert les[-1] == "+Inf"
        bounds = [float(le.replace("+Inf", "inf")) for le in les]
        assert bounds == sorted(bounds)
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 1

    def test_sum_and_count_match_the_histogram(self):
        text = render_prometheus(self._registry())
        lines = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        key = 'service_request_seconds_count{endpoint="analyze",warm="false"}'
        assert lines[key] == "1"
        key = 'service_request_seconds_sum{endpoint="analyze",warm="false"}'
        assert float(lines[key]) == pytest.approx(1.7)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.inc("requests", tenant='a"b\\c\nd')
        text = render_prometheus(registry)
        assert 'tenant="a\\"b\\\\c\\nd"' in text
        validate_exposition(text)

    def test_exposition_passes_the_ci_validator(self):
        validate_exposition(render_prometheus(self._registry()))

    def test_validator_catches_violations(self):
        good = render_prometheus(self._registry())
        with pytest.raises(AssertionError):
            validate_exposition(good + "still here???\n")
        # Break cumulativity: inflate one mid-ladder bucket count.
        broken = good.replace('le="0.0001"} 0', 'le="0.0001"} 99', 1)
        with pytest.raises(AssertionError):
            validate_exposition(broken)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        validate_exposition("")


class TestNonServiceOverhead:
    def test_analysis_paths_record_no_histograms(self):
        """Mirror of the PR-4 tracer-overhead assertion: histograms are
        a service-layer concern, so a plain in-process analysis must
        not create any series — the non-service hot path pays nothing
        beyond the existing counter increments."""
        before = set(REGISTRY.histograms_dict())
        session = AnalysisSession.from_image_bytes(
            assemble(SOURCE).to_bytes()
        )
        session.analyze()
        assert set(REGISTRY.histograms_dict()) == before
