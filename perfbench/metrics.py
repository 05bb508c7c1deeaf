"""Every metric the benchmark prints: name, unit, direction, and what it is for.

``END_TO_END`` is what a user of entkit sees; each workload reports all of
them from an untraced run, and ``bound`` is the share of the parent's median
by which a metric may worsen before a change counts as a regression. Their
times are scaled to a reference host speed (see ``harness.HostSpeed``), and
the wall-clock values are reported beside them with a ``.raw`` suffix.
``REPORTED`` are end-to-end figures that exist only on some workloads, so
they are printed and saved but carry no bound. ``PER_LAYER`` come from the
traced run; ``moves`` names the end-to-end metric and workload each should
move. The ``*_ms`` layer times are per op (summed over the op's calls), and
self time excludes the time of child spans.
"""

from __future__ import annotations

import math

END_TO_END = [
    # name, unit, better, bound, meaning
    ("setup_s", "s", "lower", 0.25,
     "import, input generation, file writing and one warm-up op per class (median of repeats)"),
    ("ops_per_s", "1/s", "higher", 0.25, "completed ops per second of timed op time"),
    ("op_p50_ms", "ms", "lower", 0.25, "median op latency"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "op latency at the workload's tail percentile (>= 10 samples beyond it at the seed)"),
    ("peak_rss_mb", "MB", "lower", 0.1, "ru_maxrss of the benchmark process"),
    ("process_p50_ms", "ms", "lower", 0.25, "median wall time of one entkit CLI process"),
    ("process_tail_ms", "ms", "lower", 0.25,
     "CLI process wall time at the tail percentile (>= 10 samples beyond it at the seed)"),
]

# The near-threshold files of the files workload are a known-defect probe:
# they run untimed, and their failures are reported here, not in ``failed``.
_PROBE = ("failed / attempted near-threshold files (files); 0 once factor_test "
          "agrees with the rank cutoff, which makes them fit for the timed cycle")

REPORTED = [
    ("setup_s.raw", "s", "lower", "setup_s in wall-clock seconds"),
    ("ops_per_s.raw", "1/s", "higher", "ops_per_s in wall-clock seconds"),
    ("op_p50_ms.raw", "ms", "lower", "op_p50_ms in wall-clock time"),
    ("op_tail_ms.raw", "ms", "lower", "op_tail_ms in wall-clock time"),
    ("process_p50_ms.raw", "ms", "lower", "process_p50_ms in wall-clock time"),
    ("process_tail_ms.raw", "ms", "lower", "process_tail_ms in wall-clock time"),
    ("host_speed", "x", "higher", "median factor that scaled in-process times to the reference speed"),
    ("process_host_speed", "x", "higher", "median factor that scaled CLI process times"),
    ("fail_frac", "frac", "lower", "failed ops / attempted ops (all workloads)"),
    ("entanglement.near_threshold_fail_frac", "frac", "lower", _PROBE),
    ("e_digits", "digits", "higher", "-log10 of the worst |e - e_true|, clamped at 16 (analyze)"),
    ("recon_digits", "digits", "higher",
     "-log10 of the worst ||C - sum s_i l_i (x) r_i||_F from schmidt_decompose, clamped at 16 (analyze)"),
    ("op_tail_pct", "%", "higher", "percentile op_tail_ms is taken at"),
    ("op_samples", "count", "higher", "timed ops"),
    ("op_beyond_tail", "count", "higher", "timed ops slower than op_tail_ms"),
    ("process_tail_pct", "%", "higher", "percentile process_tail_ms is taken at"),
    ("process_samples", "count", "higher", "CLI processes run"),
    ("process_beyond_tail", "count", "higher", "CLI processes slower than process_tail_ms"),
]

_ANALYZE_SPEED = "ops_per_s, op_tail_ms on analyze"
_FILES_SPEED = "ops_per_s on files"
_SCENARIO = "ops_per_s, peak_rss_mb on scenario"
_ACCURACY = "e_digits, recon_digits on analyze"

# name, unit, better, moves; the first group is also broken out by shape class.
SHAPE_LAYER = [
    ("linalg.eigen_calls_per_op", "count", "lower", _ANALYZE_SPEED),
    ("linalg.eigen_self_ms", "ms", "lower", _ANALYZE_SPEED),
    ("linalg.svd_self_ms", "ms", "lower", _ANALYZE_SPEED),
    ("entanglement.trace_self_ms", "ms", "lower", "ops_per_s on analyze (tall shapes most)"),
    ("entanglement.schmidt_self_ms", "ms", "lower", "ops_per_s on analyze"),
    ("entanglement.factor_self_ms", "ms", "lower", "ops_per_s on analyze"),
    ("entanglement.fallback_frac", "frac", "lower", "ops_per_s on analyze (zerosum class)"),
    ("reporting.build_self_ms", "ms", "lower", "ops_per_s on files"),
    ("entanglement.route_difference_max", "1", "lower", _ACCURACY),
    ("linalg.unitarity_defect_max", "1", "lower", _ACCURACY),
]
OTHER_LAYER = [
    ("reporting.render_ms", "ms", "lower", _FILES_SPEED),
    ("statefile.parse_ms", "ms", "lower", _FILES_SPEED),
    ("statefile.bytes_per_s", "B/s", "higher", _FILES_SPEED),
    ("states.validate_us", "us", "lower", _FILES_SPEED),
    ("cli.main_self_ms", "ms", "lower", _FILES_SPEED),
    ("cli.import_ms", "ms", "lower", "process_p50_ms on files"),
    ("states.embed_ms", "ms", "lower", _SCENARIO),
    ("states.embed_bytes", "B_computed", "lower", _SCENARIO),
    ("states.probability_ms", "ms", "lower", _SCENARIO),
    ("states.collapse_ms", "ms", "lower", _SCENARIO),
    ("scenario.self_ms", "ms", "lower", _SCENARIO),
    ("demos.self_ms", "ms", "lower", _SCENARIO),
    ("trace.overhead_frac", "frac", "lower", "traced vs untraced ops_per_s, this workload"),
    ("entanglement.near_threshold_fail_frac", "frac", "lower", _PROBE),
]
SHAPE_CLASSES = ("square", "tall", "wide")
PER_LAYER = (
    SHAPE_LAYER
    + [(f"{name}.{cls}", unit, better, moves)
       for cls in SHAPE_CLASSES for name, unit, better, moves in SHAPE_LAYER]
    + OTHER_LAYER
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + REPORTED + PER_LAYER}
BETTER = {name: better for name, _unit, better, *_ in END_TO_END + REPORTED + PER_LAYER}


def tail(values, pct: int) -> float:
    """Nearest-rank ``pct``-th percentile.

    Each workload fixes its ``pct`` (see ``workloads``) at a percentile with
    at least 10 samples beyond it in one seed-sized run, inside a block of
    like ops so that one slowed op cannot move it. Parent and child are thus
    compared at the same percentile however many passes their speed allows.
    """
    xs = sorted(values)
    return xs[max(1, math.ceil(pct * len(xs) / 100)) - 1]


def digits(error: float) -> float:
    return min(16.0, -math.log10(error)) if error > 0 else 16.0
