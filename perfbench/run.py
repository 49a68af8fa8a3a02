"""pendinv benchmark: four closed-loop workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fit,sweep,exact,orbit} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the workload runs untraced for S seconds and the last
line of stdout is a JSON object with the end-to-end metrics; times are
scaled to a reference machine speed (see :class:`SpeedSampler`).  The
seed draws the sweep's points; the other workloads have fixed inputs.  With
``--trace 1`` a fixed amount of the workload's work runs once untraced and
once under the span tracer, and the JSON holds the per-layer metrics.
The lines before it give per-workload figures (fit_s, sweep_pts_per_s,
point_p50_us, point_tail_us, exact_s, orbit_set_s, fail_frac) and the
sweep's per-stratum failures.  The program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("elliptic", "quadrature", "series", "normalform", "actions",
           "pendulum", "dynamics", "cli")
SETUP_PROBES = 5
SLICE_S = 0.5
SAMPLE_S = 0.02
# speed-kernel time that defines the reported machine speed; about its
# time on an uncontended core of a 2-core cloud VM
REFERENCE_S = 0.00015
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None


@dataclass(slots=True)
class Record:
    """One operation: input, output, timed seconds, slice and failure reasons."""

    inp: object
    out: object
    seconds: float
    slice: int = 0
    reasons: tuple = ()


@dataclass(slots=True)
class Slice:
    """Consecutive operations, and the speed-kernel samples taken meanwhile."""

    op_s: float = 0.0
    first_sample: int = 0
    end_sample: int = 0


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    With fewer than eleven samples no such percentile exists and the
    maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.4g} of {n}, 10 beyond"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def speed_kernel() -> float:
    """Seconds taken by a small fixed computation owned by the benchmark.

    Big-integer shifts, products and divisions (what mpmath and Fraction
    do inside) and float square roots, about 0.15 ms.  Timed during the
    same runs, this kernel tracked the speed of the sweep and the fit
    better than interpreted float work or small-array NumPy calls did.  It
    runs no pendinv code, so a change to the program never changes it.
    """
    start = time.perf_counter()
    m = (1 << 127) // 3 + 12345
    acc = 0
    for i in range(1, 300):
        t = (m * (i | 1)) >> 64
        acc += (t * t) >> 128
        acc ^= t // (i + 7)
        acc += int(math.sqrt(i * 0.37) * 1000)
    return time.perf_counter() - start


class SpeedSampler:
    """Times the speed kernel every SAMPLE_S seconds of wall time.

    The shared machine runs at up to half speed, in phases from a fraction
    of a second to minutes long, and plain medians moved by 15-55 %
    between identical runs.  A kernel timed only between operations
    misses the phases inside a multi-second operation, so a SIGALRM
    handler runs it during the operations themselves: the handler runs on
    the main thread between two bytecodes of whatever is running.  Each
    sample is (start, end, kernel seconds); :meth:`overhead` is the
    handlers' share of an interval, which the caller subtracts.  About
    1 % of the wall time goes to sampling.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel = speed_kernel()
        self.samples.append((start, time.perf_counter(), kernel))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def overhead(self, first: int, start: float, end: float) -> float:
        """Seconds the handler ran inside [start, end], from sample `first` on."""
        return sum(e - s for s, e, _ in self.samples[first:]
                   if start <= s and e <= end)

    def scale(self, first: int, end: int) -> float | None:
        """REFERENCE_S over the mean kernel time of samples [first, end)."""
        kernels = [k for _, _, k in self.samples[first:end]]
        return REFERENCE_S / statistics.fmean(kernels) if kernels else None


def measure_setup(workload: str) -> float:
    """Median over fresh processes of process start to end of set-up.

    Each probe imports pendinv and runs the workload's declared set-up
    under its own :class:`SpeedSampler`, then reports on stdout its speed
    scale and sampling overhead; the time runs from launching the process
    to reading that line, less the overhead, times the scale.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__)), "--workload",
                               workload, "--probe-setup"],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line.startswith("ready "):
                raise RuntimeError("set-up probe failed")
        scale, overhead = map(float, line.split()[1:])
        samples.append((ready - start - overhead) * scale)
    return statistics.median(samples)


def source_lines() -> dict[str, int]:
    pkg = SRC / "pendinv"
    out = {f"{m}.lines": len((pkg / f"{m}.py").read_text().splitlines())
           for m in MODULES}
    out["src.lines"] = sum(len(p.read_text().splitlines())
                           for p in sorted(pkg.rglob("*.py")))
    return out


def run_ops(work, inputs, seed: int, seconds: float | None, count: int | None,
            tracer=None) -> tuple[list[Record], list[float | None]]:
    """Closed loop: each operation starts when the previous one returned.

    With `seconds`, a new operation starts only while the elapsed wall
    time plus the median operation so far fits in the window, and in any
    case until the workload's ``min_ops`` have run; with `count`, exactly
    that many run.  Each output is checked right after its operation,
    outside the timed region; the workload decides which outputs stay in
    memory for its final checks.

    A timed run samples the machine's speed (:class:`SpeedSampler`) and
    subtracts the sampling from each operation's time.  Its operations are
    grouped into slices of at least SLICE_S seconds of operation time (an
    operation longer than that is its own slice); the second list holds
    each complete slice's speed scale, and None for a last slice that
    stopped short of SLICE_S or got no sample.  A counted run returns no
    scales.
    """
    records: list[Record] = []
    slices = [Slice()]
    work.start(seed)
    start = time.perf_counter()
    with SpeedSampler() if seconds is not None else contextlib.nullcontext() as sampler:
        for inp in inputs:
            if count is not None and len(records) == count:
                break
            if seconds is not None and len(records) >= work.min_ops:
                typical = statistics.median(r.seconds for r in records[-101:])
                if time.perf_counter() - start + typical > seconds:
                    break
            work.prepare(inp)
            if tracer is not None:
                tracer.op_id = len(records)
            first = len(sampler.samples) if sampler else 0
            t0 = time.perf_counter()
            out = work.operation(inp)
            t1 = time.perf_counter()
            elapsed = t1 - t0 - (sampler.overhead(first, t0, t1) if sampler else 0.0)
            rec = Record(inp, out, elapsed, len(slices) - 1)
            rec.reasons = tuple(work.check(inp, out))
            records.append(rec)
            work.retain(len(records) - 1, records)
            current = slices[-1]
            current.op_s += rec.seconds
            if sampler and current.op_s >= SLICE_S:
                current.end_sample = len(sampler.samples)
                slices.append(Slice(first_sample=current.end_sample))
    if sampler is None:
        return records, []
    return records, [sampler.scale(sl.first_sample, sl.end_sample)
                     if sl.op_s >= SLICE_S else None for sl in slices]


def final_checks(work, records: list[Record]) -> None:
    """Add the workload's whole-run check results (never traced)."""
    for idx, reasons in work.final_checks(records).items():
        records[idx].reasons += tuple(reasons)


def attempted_failed(work, records: list[Record]) -> tuple[int, int]:
    """Distinct inputs evaluated, and those with a failed evaluation.

    Inputs are told apart by ``work.key``.  A run evaluates an input as
    often as its time allows; counting inputs instead of evaluations keeps
    both numbers a function of the seed, not of the machine's speed.
    """
    failed: dict = {}
    for rec in records:
        key = work.key(rec.inp)
        failed[key] = failed.get(key, False) or bool(rec.reasons)
    return len(failed), sum(failed.values())


def summary(work, records: list[Record]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct unless an unexpected failure.

    Known defects of the program count as failures in `failed` and in
    ``ok_frac``; only a failure outside them makes the run incorrect.
    """
    unexpected = [r for r in records if r.reasons and not work.known_defect(r)]
    for rec in unexpected[:20]:
        print(f"# unexpected failure: {rec.inp!r}: {rec.reasons}")
    return *attempted_failed(work, records), not unexpected


def speed_corrected(work, records: list[Record],
                    scales: list[float | None]) -> tuple[float, float]:
    """(op_s, throughput_per_s) at the reference machine speed.

    Each operation in a complete slice is scaled by its slice's speed
    scale (see :func:`run_ops`).  ``op_s`` is the median over slices of
    the slice's median scaled time and the throughput the median scaled
    slice throughput; a workload that cycles through a fixed input set
    reports instead the sum over the set of each input's median scaled
    time, and its inverse.  A change to pendinv moves these numbers in
    full; a change of machine speed cancels out as far as the kernel
    tracks it.  With no complete slice the plain times are used.
    """
    slices: dict[int, list[Record]] = {}
    for rec in records:
        slices.setdefault(rec.slice, []).append(rec)
    scale = {k: scales[k] for k in slices if k < len(scales) and scales[k]}
    if not scale:
        scale = dict.fromkeys(slices, 1.0)
    if work.input_set:
        by_input: dict = {}
        for k in scale:
            for rec in slices[k]:
                by_input.setdefault(rec.inp, []).append(rec.seconds * scale[k])
        set_s = sum(statistics.median(v) for v in by_input.values())
        return set_s, 1.0 / set_s
    ops = [statistics.median(r.seconds for r in slices[k]) * scale[k] for k in scale]
    rates = [len(slices[k]) / sum(r.seconds for r in slices[k]) / scale[k]
             for k in scale]
    return statistics.median(ops), statistics.median(rates)


def end_to_end(work, records: list[Record], scales: list[float | None],
               setup_s: float) -> dict:
    """End-to-end metrics of an untraced run; see :func:`speed_corrected`.

    The uncorrected whole-run median and tail, and the median speed scale
    of the slices, are printed alongside.
    """
    times = [r.seconds for r in records]
    attempted, failed = attempted_failed(work, records)
    op_s, throughput = speed_corrected(work, records, scales)
    run_tail, tail_label = tail(times)
    metrics = {"op_s": op_s, "throughput_per_s": throughput,
               "ok_frac": (attempted - failed) / attempted,
               "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    median = statistics.median(times)
    named = {"fit": [("fit_s", median, "s")],
             "exact": [("exact_s", median, "s")],
             "orbit": [("orbit_set_s", sum(
                 statistics.median(r.seconds for r in records if r.inp == inp)
                 for inp in work.input_set), "s")],
             "sweep": [("sweep_pts_per_s", len(times) / sum(times), "1/s"),
                       ("point_p50_us", 1e6 * median, "us"),
                       ("point_tail_us", 1e6 * run_tail, "us")]}[work.name]
    for name, value, unit in named + [("fail_frac", failed / attempted, "fraction")]:
        print(f"# {work.name}: {name} = {value:.6g} {unit}")
    print(f"# {work.name}: tail is {tail_label}; {len(records)} operations "
          f"on {attempted} inputs, {failed} inputs failed; median speed scale "
          f"{statistics.median([x for x in scales if x] or [1.0]):.4g}")
    return metrics


def per_layer(work, seed: int, inputs: list) -> tuple[dict, list[Record]]:
    """Run the fixed traced work untraced, then traced; layer metrics.

    A first untraced pass warms the interpreter and mpmath's constant
    caches and is not counted, so both counted passes start warm.
    """
    from tracer import Tracer, layer_metrics

    run_ops(work, iter(inputs), seed, None, len(inputs))
    untraced, _ = run_ops(work, iter(inputs), seed, None, len(inputs))
    with Tracer() as tr:
        traced, _ = run_ops(work, iter(inputs), seed, None, len(inputs), tr)
    final_checks(work, traced)
    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"spans-{work.name}-seed{seed}.json")

    raw = layer_metrics(tr.spans, tr.counters)
    ops = len(traced)
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    raw.update({
        "trace.ops": ops,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace_overhead_frac": ratio(traced_s, untraced_s),
        "quadrature.evals_per_call": ratio(raw["quadrature.integrand_evals"],
                                           raw["quadrature.tanh_sinh.calls"]),
        "series.partial.per_op": ratio(raw["series.partial.calls"], ops),
        "actions.series_model_frac": ratio(raw["actions.series_model_results"],
                                           raw["actions.action_I1.calls"]),
    })
    raw.update(source_lines())
    return raw, traced


def emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]}
                                  for k in units}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pendinv" / "__init__.py").is_file() or BENCHMARK is None:
        print("perfbench: run from a checkout holding src/pendinv and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    work = WORKLOADS[args.workload]
    if args.probe_setup:
        with SpeedSampler() as sampler:
            work.setup()
        end = len(sampler.samples)
        print(f"ready {sampler.scale(0, end) or 1.0} "
              f"{sampler.overhead(0, 0.0, math.inf)}", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(work.name)
    work.setup()
    if args.trace:
        inputs = work.inputs(args.seed)
        fixed = [next(inputs) for _ in range(work.trace_ops)]
        values, records = per_layer(work, args.seed, fixed)
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        records, scales = run_ops(work, work.inputs(args.seed), args.seed,
                                  args.seconds, None)
        final_checks(work, records)
        values = end_to_end(work, records, scales, setup_s)
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for line in work.report(records):
        print(f"# {work.name}: {line}")
    attempted, failed, correct = summary(work, records)
    emit(correct, attempted, failed, values, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
