"""Tests of the benchmark itself: inputs, checks, span arithmetic, output.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import resonances as rs  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _config_text(name, seed):
    """The config files a run writes for the program, as one text."""
    return "\n".join(json.dumps(call.config) for op in workloads.generate(name, seed)
                     for call in op)


def test_same_seed_same_configs_other_seed_other_configs():
    for name in workloads.WORKLOADS:
        first = _config_text(name, 7)
        assert first == _config_text(name, 7)
        assert first != _config_text(name, 8)


def _certificate(model_json, contour_json, quad_tol=rs.contour.DEFAULT_QUAD_TOL):
    model = rs.model_from_json_dict(model_json)
    specs, l, order = rs.contour.contour_spec_from_json(contour_json)
    contour = rs.build_contour(model, specs, l, order, quad_tol)
    return model, rs.solvability_certificate(model, contour)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_models_validate_and_are_admissible(name):
    inadmissible = 0
    for op in workloads.generate(name, 3):
        for call in op:
            quad_tol = call.config.get("tolerances", {}).get("quad_tol", rs.contour.DEFAULT_QUAD_TOL)
            model, cert = _certificate(call.config["model"], call.config["contour"], quad_tol)
            assert rs.validate_model(model).ok
            if call.expect_code == 2:
                inadmissible += 1
                assert not cert.admissible
            elif call.command != "sweep":
                assert cert.admissible
            for beta in call.facts.get("grid", ()):
                _, point = _certificate(workloads.friedrichs_model(beta), call.config["contour"])
                assert point.admissible == (beta < workloads.BETA_THRESHOLD)
    assert inadmissible == (1 if name == "solve-suite" else 0)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [
        ["cli.main", 0.0, 10.0, None, 0, 0],
        ["solver.self_energy_of_operator", 1.0, 4.0, 0, 0, 0],
        ["spectral.eigen_decompose", 5.0, 9.0, 0, 0, 0],
        ["numpy.einsum", 6.0, 8.0, 2, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    metrics = tracing.layer_metrics(spans, Counter(), ops=2)
    assert metrics["cli.self_s"] == 1.5
    assert metrics["solver.F_s"] == 1.5
    assert metrics["spectral.decompose_s"] == 1.0
    assert metrics["numpy.einsum_s"] == 1.0
    assert metrics["solver.F_evals"] == 0.5
    assert sum(metrics[k] for k in tracing.TIME_METRICS) == 5.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(1, 36)]) == (25.0, 100.0 * 25 / 35, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def truncate(data: bytes) -> bytes:
    return data[: len(data) // 2]


def bump_multiplicity(data: bytes) -> bytes:
    return data.replace(b'"algebraic_multiplicity": 1', b'"algebraic_multiplicity": 2', 1)


def nudge_bound(data: bytes) -> bytes:
    """A still plausible artifact: one digit of the a-posteriori bound changed."""
    key = b'"a_posteriori_bound": '
    i = data.index(key) + len(key)
    return data[:i] + (b"9" if data[i:i + 1] != b"9" else b"8") + data[i + 1:]


class CorruptingCli:
    """The real CLI, except that the call numbered ``at`` gets its artifact corrupted."""

    def __init__(self, cli, at, corrupt):
        self.cli, self.at, self.corrupt = cli, at, corrupt
        self.calls = 0

    def main(self, argv):
        code = self.cli.main(argv)
        if self.calls == self.at:
            out = Path(argv[argv.index("--out") + 1])
            out.write_bytes(self.corrupt(out.read_bytes()))
        self.calls += 1
        return code


def _runner(tmp_path, at=-1, corrupt=None):
    """Runner over the small solves of the suite (all but n=24)."""
    op = [call for call in workloads.generate("solve-suite", 0)[0] if call.facts["n"] <= 4]
    runner = run.Runner([op], tmp_path)
    runner.cli = CorruptingCli(runner.cli, at, corrupt)
    return runner


def test_clean_outputs_pass(tmp_path):
    runner = _runner(tmp_path)
    for k in range(2):
        runner.run_op(k)
    assert (runner.attempted, runner.failed) == (2, 0)
    assert runner.digits


@pytest.mark.parametrize("corrupt", [truncate, bump_multiplicity])
def test_corrupted_artifact_is_a_failure(tmp_path, corrupt):
    runner = _runner(tmp_path, at=0, corrupt=corrupt)
    runner.run_op(0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_rerun_with_different_bytes_is_a_failure(tmp_path):
    runner = _runner(tmp_path)
    runner.run_op(0)
    runner.cli.at = runner.cli.calls      # first call of the rerun
    runner.cli.corrupt = nudge_bound
    runner.run_op(1)
    assert (runner.attempted, runner.failed) == (2, 1)
    assert any("differ from its first run" in p for p in runner.problems)


def _result(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _result("--workload", "solve-suite", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert spec["command"] == ["python3", "bench/run.py"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("--workload", "sweep-n1", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
