"""Timed phases, metric computation and the printed report of one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import entkit

from . import metrics, tracing, workloads

SETUP_REPEATS = 3
PROBE_METRIC = "entanglement.near_threshold_fail_frac"
PROCESS_TIMEOUT_S = 120
# Share of --seconds spent on timed ops; CLI processes get the rest. A traced
# run splits the ops share between its untraced and traced halves.
OPS_SHARE = 0.68
# About 32 CLI processes fit a 32 s run, so 10 or more lie beyond the 66th percentile.
PROCESS_TAIL_PCT = 66

# Host-speed normalization. On a shared host the same interpreter-bound work
# can take twice as long from one minute to the next, and CPU time swings with
# wall time, so raw timings of one run say as much about the neighbours as
# about entkit. Reference work owned by the benchmark is therefore timed
# beside the measured work, and every bounded time is scaled by
# nominal / (latest reference time), i.e. reported as if the reference took
# its nominal time. Ops of interpreter-bound workloads are paired with a fixed
# loop of plain Python steps and small numpy updates, like the program's own
# kernels; ops of the BLAS-bound scenario workload with a complex 256 x 256
# matrix product, the size its d=16 projector checks multiply; CLI processes
# with a process that only imports numpy. No entkit change can move any
# reference, so a slower program still shows in full. The raw wall-clock
# figures are reported beside the scaled ones.
LOOP_NOMINAL_S = 0.003
GEMM_NOMINAL_S = 0.0025
PROCESS_NOMINAL_S = 0.2
PROCESS_EVERY_NS = 500_000_000


def loop_time() -> float:
    """Best of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rows = numpy.eye(4, dtype=complex)
        acc = 0.0
        for i in range(20000):
            acc += (i % 7) * 0.5
            if i % 100 == 0:
                rows[0, :] = rows[1, :] * 0.5 + rows[2, :]
        best = min(best, time.perf_counter() - start)
    return best


GEMM_MATRIX = (numpy.arange(256 * 256).reshape(256, 256) % 7 - 3) * (0.01 + 0.02j)


def gemm_time() -> float:
    """Best of three timings of a complex 256 x 256 product and its residual."""
    a = GEMM_MATRIX
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        float(numpy.max(numpy.abs(a @ a - a)))
        best = min(best, time.perf_counter() - start)
    return best


REFERENCES = {"loop": (loop_time, LOOP_NOMINAL_S), "gemm": (gemm_time, GEMM_NOMINAL_S)}


def reference_process_time(root: Path, env: dict) -> float:
    """Wall time of a process that only imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root, env=env, check=True,
                   capture_output=True, timeout=PROCESS_TIMEOUT_S)
    return time.perf_counter() - start


class HostSpeed:
    """Latest factor that scales a measured time to the reference host speed."""

    def __init__(self, measure, nominal_s: float, every_ns: int):
        self.measure, self.nominal_s, self.every_ns = measure, nominal_s, every_ns
        self.factors: list[float] = []
        self._since_ns = 0

    def sample(self) -> float:
        self.factors.append(self.nominal_s / self.measure())
        self._since_ns = 0
        return self.factors[-1]

    def factor(self, elapsed_ns: int = 0) -> float:
        """The current factor, re-measured once ``every_ns`` of timed work has passed."""
        self._since_ns += elapsed_ns
        if not self.factors or self._since_ns >= self.every_ns:
            return self.sample()
        return self.factors[-1]


class Phase:
    """Latencies, per-pass throughput and failures of one kind of timed work.

    ``latencies_ns`` and ``pass_rates`` are scaled to the reference host
    speed; the ``raw_`` lists hold the wall-clock figures.
    """

    def __init__(self):
        self.latencies_ns: list[float] = []
        self.raw_latencies_ns: list[int] = []
        self.busy_ns = 0
        self.pass_rates: list[float] = []
        self.raw_pass_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter = Counter()
        self.errors: list[str] = []
        self.op_class: dict[int, str | None] = {}
        self.op_input: dict[int, str] = {}

    @property
    def passes(self) -> int:
        return len(self.pass_rates)

    def more(self, budget_s: float, passes: int | None) -> bool:
        """Whether to start another pass: never one that would overrun the budget."""
        if passes is not None:
            return self.passes < passes
        return self.passes == 0 or self.busy_ns * (1 + 1 / self.passes) <= budget_s * 1e9

    def record(self, kinds: list[str], label: str) -> None:
        self.attempted += 1
        if kinds:
            self.failed += 1
            self.kinds.update(kinds)
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {kinds}")

    def add(self, elapsed_ns: int, factor: float) -> None:
        self.busy_ns += elapsed_ns
        self.raw_latencies_ns.append(elapsed_ns)
        self.latencies_ns.append(elapsed_ns * factor)

    def end_pass(self, first: int) -> None:
        """Close a pass whose latencies start at index ``first``."""
        done = len(self.latencies_ns) - first
        self.pass_rates.append(done and done / (sum(self.latencies_ns[first:]) / 1e9))
        self.raw_pass_rates.append(done and done / (sum(self.raw_latencies_ns[first:]) / 1e9))

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second of op time, in the median pass."""
        return statistics.median(self.pass_rates)


def op_pass(wl, phase: Phase, speed: HostSpeed, tracer: tracing.Tracer | None = None) -> None:
    """Time one pass over ``wl.cycle``; only ``wl.op`` is inside the clock."""
    first, elapsed = len(phase.latencies_ns), 0
    for item in wl.cycle:
        factor = speed.factor(elapsed)
        op_id = len(phase.op_class)
        phase.op_class[op_id] = wl.shape_class(item)
        phase.op_input[op_id] = wl.input_class(item)
        if tracer is not None:
            tracer.op_id = op_id
        start = time.perf_counter_ns()
        try:
            result = wl.op(item)
        except Exception as exc:  # a failed op is counted, and the run goes on
            elapsed = time.perf_counter_ns() - start
            phase.busy_ns += elapsed
            phase.record([f"exception:{type(exc).__name__}"], f"{wl.label(item)} {exc!r}")
            continue
        finally:
            if tracer is not None:
                tracer.op_id = None
        elapsed = time.perf_counter_ns() - start
        phase.add(elapsed, factor)
        try:
            kinds = wl.check(item, result)
        except Exception as exc:  # output the checks cannot read is a failed op
            kinds = [f"bad_output:{type(exc).__name__}"]
        phase.record(kinds, wl.label(item))
    phase.end_pass(first)


def probe_pass(wl) -> Phase:
    """Run the workload's known-defect items once, untimed, through its op and checks."""
    phase = Phase()
    for item in wl.probe:
        try:
            kinds = wl.check(item, wl.op(item))
        except Exception as exc:  # counted like a failed op
            kinds = [f"exception:{type(exc).__name__}"]
        phase.record(kinds, wl.label(item))
    return phase


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def process_pass(wl, phase: Phase, speed: HostSpeed, root: Path, env: dict) -> None:
    """Run each of the workload's CLI commands once, one process at a time."""
    first, elapsed = len(phase.latencies_ns), 0
    for argv, item in wl.process_argv():
        factor = speed.factor(elapsed)
        start = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        elapsed = time.perf_counter_ns() - start
        phase.add(elapsed, factor)
        phase.record(wl.check_process(item, proc.returncode, proc.stdout),
                     f"{' '.join(argv)} {proc.stderr.strip()[-200:]}")
    phase.end_pass(first)


def import_ms(root: Path, env: dict, repeats: int) -> float:
    """Median wall time of a process that only imports entkit.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import entkit.cli"], cwd=root, env=env,
                       check=True, capture_output=True, timeout=PROCESS_TIMEOUT_S)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def end_to_end(wl, setup: tuple[float, float], ops: Phase, procs: Phase,
               speed: HostSpeed, process_speed: HostSpeed) -> dict:
    op_tail = metrics.tail(ops.latencies_ns, wl.tail_pct)
    proc_tail = metrics.tail(procs.latencies_ns, PROCESS_TAIL_PCT)
    values = {
        "setup_s": setup[0],
        "ops_per_s": ops.ops_per_s,
        "op_p50_ms": statistics.median(ops.latencies_ns) / 1e6,
        "op_tail_ms": op_tail / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "process_p50_ms": statistics.median(procs.latencies_ns) / 1e6,
        "process_tail_ms": proc_tail / 1e6,
        "setup_s.raw": setup[1],
        "ops_per_s.raw": statistics.median(ops.raw_pass_rates),
        "op_p50_ms.raw": statistics.median(ops.raw_latencies_ns) / 1e6,
        "op_tail_ms.raw": metrics.tail(ops.raw_latencies_ns, wl.tail_pct) / 1e6,
        "process_p50_ms.raw": statistics.median(procs.raw_latencies_ns) / 1e6,
        "process_tail_ms.raw": metrics.tail(procs.raw_latencies_ns, PROCESS_TAIL_PCT) / 1e6,
        "host_speed": statistics.median(speed.factors),
        "process_host_speed": statistics.median(process_speed.factors),
        "fail_frac": (ops.failed + procs.failed) / (ops.attempted + procs.attempted),
        "op_tail_pct": wl.tail_pct,
        "op_samples": len(ops.latencies_ns),
        "op_beyond_tail": sum(1 for x in ops.latencies_ns if x > op_tail),
        "process_tail_pct": PROCESS_TAIL_PCT,
        "process_samples": len(procs.latencies_ns),
        "process_beyond_tail": sum(1 for x in procs.latencies_ns if x > proc_tail),
    }
    accuracy = wl.accuracy()
    if accuracy:
        values["e_digits"] = metrics.digits(accuracy["e_error"])
        values["recon_digits"] = metrics.digits(accuracy["recon_error"])
    return values


def _layer_values(tracer: tracing.Tracer, op_ids: list[int]) -> dict:
    totals = tracer.layer_totals(set(op_ids))
    n = max(1, len(op_ids))

    def get(name, key="self_ns"):
        return totals[name][key] if name in totals else 0

    def info(name, key):
        return totals[name]["info"].get(key, 0) if name in totals else 0

    def per_op_ms(name, key="self_ns"):
        return get(name, key) / n / 1e6

    factor_calls = get("entanglement.factor", "calls")
    parse_ns = get("statefile.parse")
    validate_calls = get("states.validate", "calls")
    return {
        "linalg.eigen_calls_per_op": get("linalg.eigen", "calls") / n,
        "linalg.eigen_self_ms": per_op_ms("linalg.eigen"),
        "linalg.svd_self_ms": per_op_ms("linalg.svd"),
        "entanglement.trace_self_ms": per_op_ms("entanglement.trace"),
        "entanglement.schmidt_self_ms": per_op_ms("entanglement.schmidt"),
        "entanglement.factor_self_ms": per_op_ms("entanglement.factor"),
        "entanglement.fallback_frac":
            info("entanglement.factor", "fallback") / factor_calls if factor_calls else 0.0,
        "reporting.build_self_ms": per_op_ms("reporting.build"),
        "entanglement.route_difference_max": info("reporting.build", "route_difference"),
        "linalg.unitarity_defect_max": info("linalg.svd", "unitarity_defect"),
        "reporting.render_ms": per_op_ms("reporting.render", "ns"),
        "statefile.parse_ms": per_op_ms("statefile.parse"),
        "statefile.bytes_per_s": info("statefile.parse", "bytes") / (parse_ns / 1e9) if parse_ns else 0.0,
        "states.validate_us": get("states.validate", "ns") / validate_calls / 1e3 if validate_calls else 0.0,
        "cli.main_self_ms": per_op_ms("cli.main"),
        "states.embed_ms": per_op_ms("states.embed", "ns"),
        "states.embed_bytes": info("states.embed", "bytes") / n,
        "states.probability_ms": per_op_ms("states.probability", "ns"),
        "states.collapse_ms": per_op_ms("states.collapse", "ns"),
        "scenario.self_ms": per_op_ms("scenario.run"),
        "demos.self_ms": per_op_ms("demos.run_demo"),
    }


def per_layer(tracer: tracing.Tracer, traced: Phase, untraced: Phase, cli_import_ms: float) -> dict:
    values = _layer_values(tracer, list(traced.op_class))
    values["trace.overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    for cls in metrics.SHAPE_CLASSES:
        by_class = _layer_values(tracer, [op for op, c in traced.op_class.items() if c == cls])
        for name, *_ in metrics.SHAPE_LAYER:
            values[f"{name}.{cls}"] = by_class[name]
    values["cli.import_ms"] = cli_import_ms
    return values


def eigen_calls_by_input(tracer: tracing.Tracer, traced: Phase) -> dict:
    """linalg.eigen_calls_per_op for each input class (spectrum, file kind or dim)."""
    values = {}
    for cls in sorted(set(traced.op_input.values())):
        ops = [op for op, c in traced.op_input.items() if c == cls]
        values[cls] = _layer_values(tracer, ops)["linalg.eigen_calls_per_op"]
    return values


def environment(seed: int, nproc: int, threads: dict, src: Path) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": nproc,
        "cpu": cpu,
        "entkit": getattr(entkit, "__version__", None),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in src.rglob("*.py")),
    }


def print_table(title: str, values: dict, table) -> None:
    print(f"== {title}")
    for name, unit, better, *rest in table:
        if name in values:
            print(f"  {name:44s} {values[name]:>16.6g} {unit:<10s} {better:>6s} is better  {rest[-1]}")


def run(args, t_start: float, root: Path, nproc: int, threads: dict) -> dict:
    """Set up, measure and report one run; returns the contract's result object."""
    src, out = root / "src", root / ".perfbench"
    env = child_env(src)
    passes = 1 if args.smoke else None
    run_name = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = out / f"work-{run_name}-p{os.getpid()}"
    import_s = time.perf_counter() - t_start
    wl_class = workloads.CLASSES[args.workload]
    speed = HostSpeed(*REFERENCES[wl_class.reference], wl_class.reference_every_ns)
    process_speed = HostSpeed(lambda: reference_process_time(root, env),
                              PROCESS_NOMINAL_S, PROCESS_EVERY_NS)
    try:
        import_factor = speed.sample()
        setup_times, scaled = [], []
        for rep in range(1 if args.smoke else SETUP_REPEATS):
            factor = speed.sample()
            start = time.perf_counter()
            wl = workloads.make(args.workload, args.seed, workdir / f"rep{rep}", args.smoke, root)
            for item in wl.warmup:
                wl.op(item)
            setup_times.append(time.perf_counter() - start)
            scaled.append(setup_times[-1] * factor)
        setup = (import_s * import_factor + statistics.median(scaled),
                 import_s + statistics.median(setup_times))

        if args.trace == 0:
            # Op and process passes alternate, so both sample the whole run.
            ops, procs = Phase(), Phase()
            ops_budget, procs_budget = OPS_SHARE * args.seconds, (1 - OPS_SHARE) * args.seconds
            while True:
                more_ops, more_procs = ops.more(ops_budget, passes), procs.more(procs_budget, passes)
                if not (more_ops or more_procs):
                    break
                if more_ops and (not more_procs or
                                 ops.busy_ns / ops_budget <= procs.busy_ns / procs_budget):
                    op_pass(wl, ops, speed)
                else:
                    process_pass(wl, procs, process_speed, root, env)
            values = end_to_end(wl, setup, ops, procs, speed, process_speed)
            phases, contract = [ops, procs], metrics.END_TO_END
        else:
            budget = OPS_SHARE / 2 * args.seconds
            untraced = Phase()
            while untraced.more(budget, passes):
                op_pass(wl, untraced, speed)
            traced = Phase()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                while traced.more(budget, untraced.passes):
                    op_pass(wl, traced, speed, tracer)
            finally:
                tracer.uninstall()
            tracer.write(out / "results" / f"spans-{run_name}.jsonl")
            values = per_layer(tracer, traced, untraced, import_ms(root, env, 1 if args.smoke else 3))
            by_input = eigen_calls_by_input(tracer, traced)
            phases, contract = [untraced, traced], metrics.PER_LAYER
        probe = probe_pass(wl)
        values[PROBE_METRIC] = probe.failed / probe.attempted if probe.attempted else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    kinds = sum((p.kinds for p in phases), Counter())
    env_record = environment(args.seed, nproc, threads, src)
    failures = [e for p in phases for e in p.errors][:5]
    saved = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "smoke": args.smoke, "environment": env_record, "metrics": values,
        "units": {name: metrics.UNITS[name] for name in values},
        "better": {name: metrics.BETTER[name] for name in values},
        "attempted": attempted, "failed": failed, "failure_kinds": dict(kinds),
        "first_failures": failures, "passes": [p.passes for p in phases],
        "setup_repeats_s": setup_times,
        "known_defect_probe": {
            "attempted": probe.attempted, "failed": probe.failed,
            "failure_kinds": dict(probe.kinds), "first_failures": probe.errors,
        },
    }
    if args.trace == 1:
        saved["eigen_calls_per_op_by_input_class"] = by_input
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{run_name}.json").write_text(json.dumps(saved, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={saved['passes']} environment={json.dumps(env_record)}")
    if args.trace == 0:
        print_table("end to end (bounded)", values, metrics.END_TO_END)
        print_table("end to end (reported)", values, metrics.REPORTED)
    else:
        print_table("per layer (traced run)", values, metrics.PER_LAYER)
        print("== linalg.eigen_calls_per_op by input class: "
              + " ".join(f"{cls}={value:.4g}" for cls, value in by_input.items()))
    print(f"== checks: attempted={attempted} failed={failed} kinds={dict(kinds)}")
    for line in failures:
        print(f"  failure: {line}")
    if probe.attempted:
        print(f"== known-defect probe, untimed and not in failed: attempted={probe.attempted} "
              f"failed={probe.failed} kinds={dict(probe.kinds)}")
        for line in probe.errors:
            print(f"  probe failure: {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in contract},
    }
