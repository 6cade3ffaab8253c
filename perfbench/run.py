"""polarrep benchmark: real CLI runs timed from outside, plus a traced run.

Usage, from the root of a source tree that holds ``src/polarrep``:

    python3 perfbench/run.py --workload search|certify|simulate \\
        --seed N --seconds S --trace 0|1

``--trace 0`` runs each CLI invocation of a pass as its own child process
(``python -m polarrep.cli ... --reproducible`` with ``src`` on PYTHONPATH),
one child at a time, and repeats passes for ``--seconds``.  It reports each
per-pass metric as the interquartile mean over passes, and ``setup_s`` as
the median of its no-work runs.  A fixed reference computation
(``reference.py``) is timed before every child, and every time is scaled by
``(NOMINAL_S / reference) ** SENSITIVITY``, where ``reference`` is the
interquartile mean of the run's reference times, so that most of the drift
of a shared host's speed cancels.

``--trace 1`` runs the fixed-size module probes, then calls
``polarrep.cli.main`` in this process with the same argv: one warm-up pass,
then an untraced and a traced pass in turn while another pair fits in
``--seconds`` (counted from the start of the probes).  It reports the
per-layer metrics and writes every span to
``.perfbench/spans-<workload>-seed<N>.jsonl``.

Every CLI output is checked; a run that exits nonzero, times out or fails
its check counts as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and the environment record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from child import run_cli
from reference import NOMINAL_S, SENSITIVITY, reference_s
from workloads import SETUP_ARGV, WORKLOADS, Step, check_setup, named_metrics, passes

ROOT = Path.cwd()
SRC = ROOT / "src"

#: No-work CLI runs made before the first pass, on top of the one made
#: before every pass; the median of all of them is ``setup_s``.
EXTRA_SETUP_SAMPLES = 4

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "first_run_s": "s", "second_run_s": "s"}


class Tally:
    """Runs attempted and failed, with a reason printed for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            print(f"FAILED {label}: {reason}", file=sys.stderr)


def _check_output(step: Step, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        return step.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def attempt(tally: Tally, step: Step):
    result = run_cli(str(SRC), step.argv)
    reason = "timed out" if result.timed_out else _check_output(step, result.exit_code, result.stdout)
    if reason and result.stderr:
        reason += f"; stderr: {result.stderr.strip()[-500:]}"
    tally.record(step.label, reason)
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values``: a quarter is cut from each end.

    On a shared host the speed switches between a fast and a slow phase, so
    pass times are bimodal; this follows the share of slow passes smoothly
    where the median jumps from one mode to the other.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _aggregate(name: str, values: list[float]) -> float:
    """The reported value of an end-to-end metric from its samples in a run."""
    return statistics.median(values) if name == "setup_s" else interquartile_mean(values)


def _report(name: str, values: list[float], unit: str) -> None:
    q1, med, q3 = _quartiles(values)
    print(f"  {name:<44} {_aggregate(name, values):.6g} {unit}  "
          f"iqm {interquartile_mean(values):.6g}  median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
          f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}  "
          f"samples {' '.join(f'{v:.4g}' for v in values)}")


def _more_time(start: float, seconds: float, last: float) -> bool:
    """Whether another unit of work like the last one fits in the window."""
    return perf_counter() - start + last <= seconds


def measure_end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    setup_step = Step("setup", SETUP_ARGV, check_setup)
    steps = passes(workload, seed)
    reference: list[float] = []

    def timed(step: Step):
        # The reference runs right before each CLI run, so both see the
        # same stretch of machine load.
        reference.append(reference_s())
        return attempt(tally, step)

    start = perf_counter()
    attempt(tally, setup_step)  # untimed: fills the bytecode cache
    reference_s()  # untimed warm-up
    setup = [timed(setup_step).wall_s for _ in range(EXTRA_SETUP_SAMPLES)]
    runs: list[list] = []
    last = 0.0
    # One no-work run before each pass, so setup_s samples the same stretch
    # of machine load as the passes.
    while not runs or _more_time(start, seconds, last):
        pass_start = perf_counter()
        setup.append(timed(setup_step).wall_s)
        runs.append([timed(step) for step in steps])
        last = perf_counter() - pass_start
    samples = {
        "wall_s": [sum(r.wall_s for r in p) for p in runs],
        "setup_s": setup,
        "peak_rss_mb": [max(r.peak_rss_mb for r in p) for p in runs],
        "first_run_s": [p[0].wall_s for p in runs],
        "second_run_s": [p[1].wall_s for p in runs],
    }
    speed = (NOMINAL_S / interquartile_mean(reference)) ** SENSITIVITY
    print(f"end-to-end, {len(runs)} passes of: " + "; ".join(s.label for s in steps))
    _report("(reference, raw)", reference, "s")
    print(f"  times below are raw; the result scales them by ({NOMINAL_S} s / "
          f"reference) ** {SENSITIVITY} = {speed:.6g}")
    for name, values in samples.items():
        _report(name, values, END_TO_END_UNITS[name])
    for i, step in enumerate(steps[2:], start=2):
        _report(f"({step.label} wall)", [p[i].wall_s for p in runs], "s")
    metrics = {
        name: (_aggregate(name, v) * (speed if END_TO_END_UNITS[name] == "s" else 1),
               END_TO_END_UNITS[name])
        for name, v in samples.items()
    }
    for name, (value, unit) in named_metrics(
            workload, metrics["first_run_s"][0], metrics["second_run_s"][0]).items():
        print(f"  {name:<44} {value:.6g} {unit} (scaled)")
    return metrics


def _in_process(tally: Tally, steps: list[Step], main, outputs: list[int] | None) -> float:
    """One pass through ``main`` in this process; returns its wall time."""
    start = perf_counter()
    for step in steps:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = main([*step.argv, "--reproducible"])
        except (Exception, SystemExit):
            traceback.print_exc()
            code = -1
        text = buf.getvalue()
        if outputs is not None:
            outputs.append(len(text.encode()))
        tally.record(step.label + " (in-process)", _check_output(step, code, text))
    return perf_counter() - start


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    sys.path.insert(0, str(SRC))
    import polarrep.cli

    import probes
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    steps = passes(workload, seed)
    start = perf_counter()
    metrics = {name: (value, "ms") for name, value in probes.poly_probes().items()}
    codec_metrics, reasons = probes.codec_probes(seed)
    for name, value in codec_metrics.items():
        metrics[name] = (value, "count" if name == "codec.decode_ops_per_codeword" else "ms")
    for i, reason in enumerate(reasons):
        tally.record(f"codec probe codeword {i}", reason)

    tracer = Tracer()
    plain, traced, traced_spans, output_bytes = [], [], [], []
    _in_process(tally, steps, polarrep.cli.main, None)  # warm-up, so neither side runs cold
    while not traced or _more_time(start, seconds, plain[-1] + traced[-1]):
        plain.append(_in_process(tally, steps, polarrep.cli.main, None))
        tracer.install()
        try:
            traced.append(_in_process(tally, steps, polarrep.cli.main,
                                      output_bytes if not traced else None))
        finally:
            tracer.uninstall()
        traced_spans.append(tracer.reset())

    layers, unsteady = layer_metrics(traced_spans)
    for name in unsteady:
        print(f"WARNING: count {name} differs between traced passes", file=sys.stderr)
    metrics.update(layers)
    metrics["cli.output_bytes"] = (sum(output_bytes), "B")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for k, spans in enumerate(traced_spans):
            for i, (name, s, e, parent, tag) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": name, "start": s, "end": e,
                                     "parent": parent, "tag": tag}) + "\n")
    print(f"traced run, {len(traced)} traced and {len(plain)} untraced passes; "
          f"{sum(map(len, traced_spans))} spans written to {spans_path.relative_to(ROOT)}")
    _report("(untraced pass wall)", plain, "s")
    _report("(traced pass wall)", traced, "s")
    order = list(LAYER_METRICS) + [k for k in metrics if k not in LAYER_METRICS]
    for name in order:
        value, unit = metrics[name]
        print(f"  {name:<44} {value:.6g} {unit}")
    return metrics


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "polarrep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": _git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine_settings": "unchanged: no CPU pinning or machine-setting changes (ROADMAP limits)",
    }


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polarrep" / "cli.py").is_file():
        print(f"no polarrep source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = _declared_units("per_layer" if args.trace else "end_to_end")

    print("environment " + json.dumps(environment(args.workload, args.seed, args.trace)))
    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, tally)
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared:
        print(f"metrics {units} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 3
    print(f"  {'failed_ratio':<44} {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} runs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
