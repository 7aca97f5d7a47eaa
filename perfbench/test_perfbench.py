"""Tests of the benchmark itself: smoke runs, metric declarations, failure accounting.

Run with ``python3 -m pytest perfbench``.
"""
import io
import json
import random
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS

ROOT = harness.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, python=(sys.executable,)):
    return subprocess.run([*python, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == harness.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload, trace):
    p = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    prefix = "layer" if trace else "metric"
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float)
        printed = [ln for ln in lines if ln.startswith(f"{prefix} {m['name']} = ")]
        assert len(printed) == 1
        assert printed[0].split(" = ")[1].split()[1] == m["unit"]
        assert f"({m['better']} is better;" in printed[0]
        if not trace:
            assert value > 0


def smoke_ops(workload, workdir):
    sp = harness.import_setpack(ROOT)
    w = WORKLOADS[workload]
    raw = w.draw(random.Random(f"{workload}:5"), True)
    w.write_inputs(sp, raw, workdir)
    return sp, w.ops(sp, raw, workdir)


def test_swapped_witness_entry_counts_as_failed(tmp_path):
    sp, ops = smoke_ops("invert-mixed", tmp_path)

    def corrupt(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            code = sp.cli.main(argv)
        doc = json.loads(out.getvalue())
        if doc["invertible"]:  # swap pi(x) and pi(y) where pi(y) = x: now pi(x) = x
            perm = doc["permutation"]
            x = sp.setcore.parse_collection(open(argv[-1]).read()).sets[0].elements()[0]
            y = perm.index(x)
            perm[x], perm[y] = perm[y], perm[x]
        print(json.dumps(doc))
        return code

    tally = harness.Tally()
    harness.timed_run(ops, 0, corrupt, tally)
    witnesses = sum(1 for o in tally.outcomes if o.doc is not None and o.doc["invertible"])
    certificates = sum(1 for o in tally.outcomes if o.doc is not None and not o.doc["invertible"])
    assert witnesses >= 1 and certificates >= 1
    assert tally.failed == witnesses
    assert tally.reasons == {"check: witness fails to invert some set": witnesses}


def test_escaped_exceptions_and_bad_exit_codes_count_as_failed(tmp_path):
    _, ops = smoke_ops("kappa-greedy", tmp_path)
    behaviours = iter([RuntimeError("boom"), 4])

    def broken(argv):
        b = next(behaviours)
        if isinstance(b, Exception):
            raise b
        return b

    tally = harness.Tally()
    harness.timed_run(ops, 0, broken, tally)
    assert len(tally.outcomes) == 2 and tally.failed == 2
    assert tally.reasons == {"RuntimeError": 1, "exit 4": 1}
    gated, _ = harness.end_to_end_metrics(tally, len(ops), [(1.0, 0.004)], True)
    assert gated["item_p50_us"][0] == sys.float_info.max


def test_refuses_optimized_python():
    p = run_bench("--workload", "kappa-greedy", "--seed", "1", "--seconds", "0",
                  "--trace", "0", "--smoke", python=(sys.executable, "-O"))
    assert p.returncode == 2 and "python -O" in p.stderr and p.stdout == ""


def test_fails_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run_bench("--workload", "invert-mixed", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""
    assert "cannot import setpack" in p.stderr


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert harness.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
