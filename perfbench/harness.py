"""Closed-loop driver: set-up, timed or traced passes, checks, metrics, report.

One client runs the workload's ops back to back; the next op starts when
the previous one returns.  Ops are whole passes over the workload's input
pool, repeated until the measured op time reaches ``--seconds``, so every
run measures the same mix of work.  Output checks and trace bookkeeping
happen outside the timed region.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from .spans import Tracer, span_cost
from .workloads import WORKLOADS, CheckFailed, Op

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("setcore", "invert", "kappa", "pack", "qcube", "cli")
SETUP_REPS = 5
TAIL_BEYOND = 10
# Gated times are scaled to a machine on which reference_kernel() takes this long.
REFERENCE_SECONDS = 0.004

# Gated end-to-end metrics: printed on every workload, listed in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_us", "us", "lower"),
    ("item_tail_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# Report-only end-to-end metrics: printed with unit and direction where they apply.
REPORTED = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "fail_frac": ("ratio", "lower"),
    "blocks_per_s": ("1/s", "higher"),
    "witness_frac": ("ratio", "higher"),
    "kappa_inverted_frac": ("ratio", "higher"),
    "pack_blocks_geomean": ("count", "higher"),
    "cube_edges_total": ("count", "lower"),
    "raw_setup_s": ("s", "lower"),
    "raw_items_per_s": ("1/s", "higher"),
    "reference_ms": ("ms", "lower"),
}
# Per-layer metrics of the traced run: sums per pass over the input pool,
# except PEAK_METRICS, which are the largest value seen.
PER_LAYER = [
    ("setcore.parse_s", "s", "lower"),
    ("setcore.serialize_s", "s", "lower"),
    ("setcore.recheck_s", "s", "lower"),
    ("setcore.sets_parsed", "count", "lower"),
    ("invert.conflict_graph_s", "s", "lower"),
    ("invert.conflict_edges", "count", "lower"),
    ("invert.matching_s", "s", "lower"),
    ("invert.matched_pairs", "count", "higher"),
    ("invert.witnesses", "count", "higher"),
    ("invert.certificates", "count", "lower"),
    ("kappa.bound_s", "s", "lower"),
    ("kappa.greedy_s", "s", "lower"),
    ("kappa.candidate_evals", "count", "lower"),
    ("kappa.set_evals", "count", "lower"),
    ("kappa.bound_slack", "count", "higher"),
    ("pack.construct_s", "s", "lower"),
    ("pack.verify_s", "s", "lower"),
    ("pack.constituents_s", "s", "lower"),
    ("pack.levels", "count", "higher"),
    ("pack.fallback_levels", "count", "lower"),
    ("pack.pairs_checked", "count", "lower"),
    ("pack.verify_peak_mb", "MB", "lower"),
    ("pack.gram_bytes", "bytes", "lower"),
    ("qcube.build_s", "s", "lower"),
    ("qcube.square_check_s", "s", "lower"),
    ("qcube.doubling_s", "s", "lower"),
    ("qcube.direction_greedy_s", "s", "lower"),
    ("qcube.squares_checked", "count", "lower"),
    ("qcube.edges", "count", "lower"),
    ("qcube.saved", "count", "higher"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]
PEAK_METRICS = {"pack.verify_peak_mb", "pack.gram_bytes"}
# Stages that partition an op's time, for the largest-stage summary.
COMPOSITE_STAGES = {"qcube.build_s", "cli.main_s"}


class SetupError(Exception):
    """The checkout holds no importable setpack."""


def import_setpack(root: Path) -> SimpleNamespace:
    """Import setpack afresh from ``root/src`` and return its layer modules."""
    src = root / "src"
    for name in [m for m in sys.modules if m == "setpack" or m.startswith("setpack.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"setpack.{name}") for name in LAYERS}
    except ImportError as e:
        raise SetupError(f"cannot import setpack from {src}: {e}") from None
    where = Path(mods["cli"].__file__).resolve().parent
    if where != (src / "setpack").resolve():
        raise SetupError(f"setpack imported from {where}, not from {src}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------- environment

def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count OpenBLAS reports, or the requested count if it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (requested)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- machine speed

_WORDS = [random.Random(512).getrandbits(512) for _ in range(32)]


def reference_kernel() -> float:
    """Seconds one fixed piece of pure-Python work takes: bit iteration over
    512-bit integers, list indexing, tuple keys in a dict, set membership."""
    t0 = perf_counter()
    match = [-1] * 512
    seen: dict = {}
    for k, w in enumerate(_WORDS):
        bits = w
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            if match[j] == -1:
                match[j] = k
            key = (j, k & 31)
            seen[key] = seen.get(key, 0) + 1
            bits ^= low
    keys = frozenset(seen)
    sum(1 for j, c in seen if (j ^ 1, c) in keys)
    return perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while reference_kernel() took ``reference``,
    scaled to a machine where it takes REFERENCE_SECONDS."""
    return seconds * REFERENCE_SECONDS / reference


# ---------------------------------------------------------------- one op

class Outcome:
    """What one ``cli.main`` call returned and how the checks judged it."""

    def __init__(self, op: Op, seconds: float, code, stdout: str, error: str | None):
        self.op = op
        self.seconds = seconds
        self.code = code
        self.doc: dict | None = None
        self.failure = error
        self.items = 0
        self.reference = REFERENCE_SECONDS  # reference_kernel() time around the op
        if error is None and code not in op.expect:
            self.failure = f"exit {code}"
        if self.failure is None:
            try:
                self.doc = json.loads(stdout)
                op.check(self.doc, code)
                self.items = op.items(self.doc)
            except json.JSONDecodeError:
                self.failure = "output is not a JSON document"
            except CheckFailed as e:
                self.failure = f"check: {e}"
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                self.failure = f"check: malformed document ({type(e).__name__})"


def execute(op: Op, main) -> Outcome:
    """Run one op in-process; every exception that escapes counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(op.argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code
    except Exception as e:  # the op boundary: record the type and go on
        error = type(e).__name__
    seconds = perf_counter() - t0
    return Outcome(op, seconds, code, out.getvalue(), error)


def replay_differs(facts: dict, doc: dict | None) -> str | None:
    if doc is None:
        return None
    for key, value in facts.items():
        if doc.get(key) != value:
            return f"replay differs from cli.main on {key!r}"
    return None


# ---------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum for small samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def finite(x: float) -> float:
    """JSON has no infinity; a latency that no verified item bounds reads as the largest float."""
    return x if x != float("inf") else sys.float_info.max


class Tally:
    """Attempted and failed ops, with failure reasons."""

    def __init__(self):
        self.outcomes: list[Outcome] = []
        self.reasons: Counter = Counter()

    def add(self, o: Outcome, extra_failure: str | None = None) -> None:
        if o.failure is None and extra_failure is not None:
            o.failure = extra_failure
        self.outcomes.append(o)
        if o.failure is not None:
            self.reasons[o.failure] += 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


# ---------------------------------------------------------------- runs

def timed_run(ops: list[Op], seconds: float, main, tally: Tally) -> int:
    busy = 0.0
    passes = 0
    before = reference_kernel()
    while True:
        for op in ops:
            o = execute(op, main)
            after = reference_kernel()
            o.reference = (before + after) / 2
            before = after
            busy += o.seconds
            tally.add(o)
        passes += 1
        if busy >= seconds:
            return passes


def traced_run(ops: list[Op], seconds: float, main, tally: Tally, tracer: Tracer, acc: dict) -> int:
    busy = 0.0
    passes = 0
    while True:
        for op in ops:
            tracer.op += 1
            with tracer.span("cli.main") as cli_span:
                o = execute(op, main)
            try:
                with tracer.span("op") as op_span:
                    facts = op.replay(tracer, acc)
                differs = replay_differs(facts, o.doc)
                if op.probe is not None:
                    op.probe(tracer, acc)
            except CheckFailed as e:
                differs = f"replay check: {e}"
            except Exception as e:  # the op boundary, as in execute()
                differs = f"replay raised {type(e).__name__}"
            tally.add(o, differs)
            busy += tracer.duration(cli_span) + tracer.duration(op_span)
        passes += 1
        if busy >= seconds:
            return passes


def best_of_passes(outs: list[Outcome], per_pass: int, scale: bool) -> list[tuple[float, int]]:
    """(best time over the run's passes, verified items) per op of the pass,
    with times scaled to reference speed when ``scale``.  An op that failed
    in any pass has no verified items."""
    best = []
    for i in range(per_pass):
        reps = outs[i::per_pass]
        items = 0 if any(o.failure for o in reps) else reps[0].items
        times = [scaled(o.seconds, o.reference) if scale else o.seconds for o in reps]
        best.append((min(times), items))
    return best


def end_to_end_metrics(tally: Tally, per_pass: int, setup: list[tuple[float, float]],
                       scale: bool) -> tuple[dict, dict]:
    """(gated metrics, report-only metrics), each value with a note.

    ``setup`` holds (seconds, reference seconds) per set-up; gated times are
    scaled to reference speed when ``scale``."""
    outs = tally.outcomes
    sample = f"{per_pass} ops, each the best of {len(outs) // per_pass} pass(es)"
    best = best_of_passes(outs, per_pass, scale)
    busy = sum(t for t, _ in best)
    items = sum(n for _, n in best)
    per_item = [t * 1e6 / n if n else float("inf") for t, n in best]
    item_tail, pct, beyond = tail(per_item)
    raw = best_of_passes(outs, per_pass, scale=False)
    raw_busy = sum(t for t, _ in raw)
    per_op = [t * 1e3 for t, _ in raw]
    op_tail, op_pct, op_beyond = tail(per_op)
    gated = {
        "setup_s": (statistics.median(scaled(t, r) if scale else t for t, r in setup),
                    f"median of {len(setup)} set-ups" + ("" if scale else ", unscaled")),
        "items_per_s": (items / busy, f"{items} items in {busy:.3f} s; {sample}"
                                      + ("" if scale else "; unscaled")),
        "item_p50_us": (finite(statistics.median(per_item)), sample),
        "item_tail_us": (finite(item_tail), f"p{pct:.1f}, {beyond} samples beyond; {sample}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "ru_maxrss of this process"),
    }
    reported = {
        "raw_setup_s": (statistics.median(t for t, _ in setup), "as measured"),
        "raw_items_per_s": (items / raw_busy, f"as measured; {sample}"),
        "reference_ms": (statistics.median(o.reference for o in outs) * 1e3,
                         "median reference_kernel() time" + (
                             f"; gated times are scaled to {REFERENCE_SECONDS * 1e3:g} ms"
                             if scale else "; gated times are not scaled")),
        "ops_per_s": (per_pass / raw_busy, f"as measured; {sample}"),
        "op_p50_ms": (statistics.median(per_op), f"as measured; {sample}"),
        "op_tail_ms": (op_tail, f"as measured; p{op_pct:.1f}, {op_beyond} samples beyond; {sample}"),
    }
    return gated, reported


def per_layer_metrics(tracer: Tracer, acc: dict, passes: int) -> dict:
    totals = tracer.totals()
    out = {}
    for name, _, _ in PER_LAYER:
        if name in PEAK_METRICS:
            out[name] = float(acc.get(name, 0))
        elif name.endswith("_s"):
            out[name] = (totals.get(name[:-2], 0.0) + acc.get(name, 0.0)) / passes
        else:
            out[name] = acc.get(name, 0) / passes
    replay = totals.get("op", 0.0)
    out["cli.self_s"] = (totals.get("cli.main", 0.0) - replay) / passes
    spans = sum(1 for name in tracer.names if name != "cli.main")
    out["trace.overhead_frac"] = spans * span_cost() / replay if replay else 0.0
    return out


def largest_stages(layer: dict) -> list[tuple[str, float]]:
    whole = layer["cli.main_s"]
    stages = [(name, value / whole) for name, value in layer.items()
              if name.endswith("_s") and name not in COMPOSITE_STAGES and value > 0]
    return sorted(stages, key=lambda kv: -kv[1])[:4]


# ---------------------------------------------------------------- entry point

def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for testing the benchmark itself")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O: setpack's self-checks are asserts",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        import_setpack(ROOT)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    raw = workload.draw(random.Random(f"{workload.name}:{args.seed}"), args.smoke)
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    tally = Tally()
    tracer = Tracer()
    acc: dict = {}
    try:
        setup = []
        for _ in range(SETUP_REPS):
            before = reference_kernel()
            t0 = perf_counter()
            sp = import_setpack(ROOT)
            workload.write_inputs(sp, raw, workdir)
            setup.append((perf_counter() - t0, (before + reference_kernel()) / 2))
        ops = workload.ops(sp, raw, workdir)
        if args.trace:
            passes = traced_run(ops, args.seconds, sp.cli.main, tally, tracer, acc)
        else:
            passes = timed_run(ops, args.seconds, sp.cli.main, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    stem = outdir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    attempted = len(tally.outcomes)
    reported = {"fail_frac": (tally.failed / attempted, f"{tally.failed} of {attempted} ops failed")}
    if tally.failed == 0:
        first_pass = [(o.op, o.doc) for o in tally.outcomes[: len(ops)]]
        reported.update({k: (v, "exact, first pass")
                         for k, v in workload.quality(first_pass).items()})
    if args.trace:
        declared = PER_LAYER
        values = per_layer_metrics(tracer, acc, passes)
        notes = {name: "per pass" for name in values}
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    else:
        declared = END_TO_END
        gated, timing = end_to_end_metrics(tally, len(ops), setup, workload.scaled)
        values = {name: v for name, (v, _) in gated.items()}
        notes = {name: f"gated; {n}" for name, (_, n) in gated.items()}
        reported.update(timing)
        if workload.name == "pack-grid":
            reported["blocks_per_s"] = (values["items_per_s"], "blocks built plus blocks verified")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{passes} pass(es) of {len(ops)} ops")
    print("env " + json.dumps(env))
    by_kind: dict[str, list[float]] = {}
    for o in tally.outcomes:
        by_kind.setdefault(o.op.kind, []).append(o.seconds)
    for kind, times in by_kind.items():
        print(f"ops {kind}: {len(times)} runs, median {statistics.median(times) * 1e3:.3f} ms")
    for reason, count in tally.reasons.items():
        print(f"FAILED {count} op(s): {reason}")
    prefix = "layer" if args.trace else "metric"
    for name, unit, better in declared:
        print(f"{prefix} {name} = {values[name]:.6g} {unit} ({better} is better; {notes[name]})")
    if args.trace and values["cli.main_s"] > 0:
        print("largest stages, share of cli.main time: " + ", ".join(
            f"{name} {share:.1%}" for name, share in largest_stages(values)))
    for name, (value, note) in reported.items():
        unit, better = REPORTED[name]
        print(f"metric {name} = {value:.6g} {unit} ({better} is better; {note})")
    record = {
        "workload": workload.name, "env": env, "passes": passes,
        "attempted": attempted, "failed": tally.failed,
        "failures": dict(tally.reasons), "metrics": metrics, "notes": notes,
        "reported": {k: {"value": v, "note": n} for k, (v, n) in reported.items()},
        "setup": [{"seconds": t, "reference_seconds": r} for t, r in setup],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0
