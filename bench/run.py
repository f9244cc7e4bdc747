"""Benchmark of the ``resonances`` CLI pipelines.

    python3 bench/run.py --workload sweep-n1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The workload runs as one process
and one client in a closed loop: each op calls ``resonances.cli.main`` on
configs generated from the seed, and the next op starts when the previous
one returns. Every output is checked. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced run with ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; the sweep runs its default
# serial path.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("RESONANCE_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))

SETUP_SPAWNS = 5          # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10          # samples beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1
MAX_STRETCH = 5           # a run stops by MAX_STRETCH * --seconds regardless
TRACE_MIN_OPS = 3

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "items_per_s": "1/s",
    "accuracy_digits": "digits", "pass_ratio": "ratio", "peak_rss_mb": "MB",
}
ACCURACY_NAME = {"sweep-n1": "oracle_digits", "verify-poly": "identity_margin_digits",
                 "solve-suite": "bound_digits"}
ITEM_NAME = {"sweep-n1": "beta grid points", "verify-poly": "verified models",
             "solve-suite": "solved configs"}


def pin_fastest_cpu() -> None:
    """Pin this process to whichever allowed CPU runs a short probe fastest.

    On a shared host each virtual CPU's speed alternates, largely
    independently of the others, between states about 1.6x apart that last
    from seconds to minutes. Probing before every CLI call and running it on
    the faster CPU keeps a neighbour's load from deciding a run's figures.
    """
    best, best_time = None, None
    for cpu in sorted(ALLOWED_CPUS):
        os.sched_setaffinity(0, {cpu})
        elapsed = min(_probe() for _ in range(3))
        if best_time is None or elapsed < best_time:
            best, best_time = cpu, elapsed
    os.sched_setaffinity(0, {best})


def _probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i
    return time.perf_counter() - start


def measure_setup(spawns: int) -> list:
    """Seconds from spawning an interpreter until ``import resonances.cli`` is done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import resonances.cli\nimport time\nprint(repr(time.monotonic()))"
    out = []
    for _ in range(spawns):
        pin_fastest_cpu()
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return out


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples, the
    maximum and 0 beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n - 1 - i


class Runner:
    """Runs a workload's ops through the CLI and checks every output."""

    def __init__(self, ops: list, workdir: Path):
        from resonances import cli, friedrichs

        import checks

        self.cli = cli
        self.checks = checks
        self.friedrichs = friedrichs
        self.tracer = None        # when set, spans are recorded inside the CLI calls
        self.ops = ops
        self.paths = []
        for k, op in enumerate(self.ops):
            paths = []
            for i, call in enumerate(op):
                base = workdir / f"op{k}-{i}"
                cfg = base.with_suffix(".json")
                cfg.write_text(json.dumps(call.config), encoding="utf-8")
                paths.append((cfg, base.with_suffix(".out.json"), base.with_suffix(".csv")))
            self.paths.append(paths)
        self.first = {}           # op index -> (outputs, problems) of its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digits: list = []
        self.artifact_bytes = 0

    def oracle_root(self, beta: float) -> complex:
        params = self.friedrichs.FriedrichsParams(2.0, 1.0, beta, 1)
        return complex(self.friedrichs.resonance_root(params).z)

    def run_op(self, k: int) -> float:
        """Run op ``k`` once, check it, and return its wall time."""
        index = k % len(self.ops)
        elapsed = 0.0
        outputs = []
        for call, (cfg, out, csv) in zip(self.ops[index], self.paths[index]):
            for path in (out, csv):
                path.unlink(missing_ok=True)
            pin_fastest_cpu()
            argv = [call.command, "--config", str(cfg), "--out", str(out), "--quiet"]
            if call.command == "sweep":
                argv += ["--csv", str(csv)]
            if self.tracer is not None:
                self.tracer.op = k
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            finally:
                elapsed += time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.op = None
            outputs.append((code,
                            out.read_bytes() if out.exists() else b"",
                            csv.read_bytes() if csv.exists() else None))
        self.attempted += 1
        self.artifact_bytes += sum(len(a) + len(c or b"") for _, a, c in outputs)
        first = self.first.get(index)
        if first is not None and outputs == first[0]:
            problems = first[1]           # the same bytes get the same verdict
        else:
            problems, digits = self._check(self.ops[index], outputs)
            if first is None:
                self.first[index] = (outputs, problems)
                self.digits += digits
            else:
                problems.append(f"op {index}: artifacts differ from its first run")
        if problems:
            self.failed += 1
            self.problems += problems
        return elapsed

    def _check(self, op: list, outputs: list) -> tuple:
        problems, digits = [], []
        for call, (code, art, csv) in zip(op, outputs):
            found, d = self.checks.check_call(call, code, art, csv, self.oracle_root)
            problems += found
            if d is not None and not found:
                digits.append(d)
        return problems, digits

    def loop(self, seconds: float, min_ops: int) -> list:
        """Closed loop over the ops for ``seconds``, and at least ``min_ops`` ops."""
        times = []
        begin = time.perf_counter()
        k = 0
        while True:
            times.append(self.run_op(k))
            k += 1
            spent = time.perf_counter() - begin
            if spent >= seconds and (len(times) >= min_ops or spent >= MAX_STRETCH * seconds):
                return times

    def items_per_op(self) -> float:
        return statistics.mean(sum(call.items for call in op) for op in self.ops)


def environment() -> dict:
    import importlib.metadata

    import numpy as np

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "RESONANCE_THREADS": os.environ.get("RESONANCE_THREADS", "unset"),
    }


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple:
    setup = measure_setup(SETUP_SPAWNS)
    runner.run_op(0)                       # warm-up, checked; op 0 reruns first below
    times = runner.loop(seconds, MIN_OPS)
    tail_value, pct, beyond = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "items_per_s": runner.items_per_op() / statistics.median(times),
        "accuracy_digits": min(runner.digits) if runner.digits else 0.0,
        "pass_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_s": f"median of {len(times)} ops",
        "op_tail_s": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond",
        "items_per_s": f"{ITEM_NAME[workload]} per op / op_p50_s",
        "accuracy_digits": f"{ACCURACY_NAME[workload]}, min over {len(runner.digits)} checked calls",
        "pass_ratio": f"fail_ratio {runner.failed}/{runner.attempted}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> tuple:
    import tracing

    runner.run_op(0)
    plain = runner.loop(seconds / 2.0, TRACE_MIN_OPS)
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        # the same op sequence again, so the overhead ratio compares like with like
        traced = [runner.run_op(k) for k in range(len(plain))]
    finally:
        runner.tracer = None
        tracer.uninstall()
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tracer.dump(str(outdir / f"spans-{workload}-seed{seed}.tsv"))
    values = tracing.layer_metrics(tracer.spans, tracer.counts, len(traced))
    values["cli.artifact_bytes"] = runner.artifact_bytes / runner.attempted
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
    notes = {"trace.overhead_ratio": f"traced p50 over {len(traced)} ops / "
                                     f"untraced p50 over {len(plain)} ops"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resonances" / "cli.py").is_file():
        print(f"error: no resonances sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import resonances

    if Path(resonances.__file__).resolve().parent != SRC / "resonances":
        print(f"error: imported resonances from {resonances.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        runner = Runner(workloads.generate(args.workload, args.seed), workdir)
        if args.trace:
            metrics, notes = per_layer(runner, args.workload, args.seed, args.seconds)
        else:
            metrics, notes = end_to_end(runner, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    for problem in runner.problems[:20]:
        print(f"FAIL {problem}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
