"""The four workloads: seeded inputs, CLI ops, output checks and traced replays.

Every workload builds one *pass*: a fixed list of ops whose composition
does not depend on the seed (the seed draws set contents and the order of
the ops), so that runs with different seeds measure the same amount of
work.  An op is one ``setpack.cli.main(argv)`` call with ``--json``.

Each op carries
  * ``check(doc, code)``: an output check run outside the timed region,
    computed from the benchmark's own copy of the inputs wherever the
    check does not need the program's answer;
  * ``replay(tracer, acc)``: the same layer calls ``cli.main`` makes, made
    directly through setpack's public functions inside named spans, for
    the traced run; it returns facts that must equal the same keys of the
    op's ``--json`` document;
  * ``probe(tracer, acc)``: optional extra measurements, run after the
    replay and outside its spans, of work that happens inside a single
    public call.

``acc`` accumulates the per-layer counts of the traced run.
"""
from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .spans import Tracer


class CheckFailed(Exception):
    """An op returned an answer that the benchmark's check rejects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    argv: list[str]
    expect: tuple[int, ...]
    items: Callable[[dict], int]
    check: Callable[[dict, int], None]
    replay: Callable[[Tracer, dict], dict]
    probe: Callable[[Tracer, dict], None] | None = None


@dataclass
class Workload:
    name: str
    draw: Callable  # (rng, smoke) -> raw inputs
    write_inputs: Callable  # (sp, raw, workdir) -> None; timed as set-up
    ops: Callable  # (sp, raw, workdir) -> list[Op], one pass
    quality: Callable  # (first pass [(op, doc)]) -> report-only exact metrics
    scaled: bool  # gated times scaled by the pure-Python reference kernel


def add(acc: dict, key: str, value: float) -> None:
    acc[key] = acc.get(key, 0) + value


def _mask(elements) -> int:
    bits = 0
    for x in elements:
        bits |= 1 << x
    return bits


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _count_inverted(perm: list[int], sets: list[list[int]], masks: list[int]) -> int:
    return sum(
        1 for s, b in zip(sets, masks) if not any((b >> perm[x]) & 1 for x in s)
    )


def _is_permutation(perm, n: int) -> bool:
    return isinstance(perm, list) and len(perm) == n and sorted(perm) == list(range(n))


# --------------------------------------------------------------------------
# invert-mixed


def _invert_draw(rng: random.Random, smoke: bool):
    n, m, ks = (40, 60, range(2, 15)) if smoke else (512, 1000, range(4, 65))
    ks = [k for k in ks for _ in range(2)]
    rng.shuffle(ks)
    instances = []
    for k in ks:
        sizes = [1 + j % k for j in range(m)]  # uniform on 1..k, stratified
        rng.shuffle(sizes)
        instances.append({"n": n, "k": k, "sets": [rng.sample(range(n), size) for size in sizes]})
    return instances


def _collection_inputs(sp, raw, workdir: Path) -> None:
    for i, inst in enumerate(raw):
        col = sp.setcore.Collection.of(inst["n"], inst["sets"])
        _write(workdir / f"col{i}.txt", sp.setcore.serialize_collection(col))


def _invert_ops(sp, raw, workdir: Path) -> list[Op]:
    return [_invert_op(sp, inst, workdir / f"col{i}.txt") for i, inst in enumerate(raw)]


def _invert_op(sp, inst: dict, path: Path) -> Op:
    n, sets = inst["n"], inst["sets"]
    masks = [_mask(s) for s in sets]
    allowed: list[int] = []
    replayed: dict = {}

    def neighbours(cert) -> int:
        if not allowed:  # conflict-graph rows from the benchmark's own sets
            full = (1 << n) - 1
            blocked = [0] * n
            for s, b in zip(sets, masks):
                for x in s:
                    blocked[x] |= b
            allowed.extend(full & ~row for row in blocked)
        nbhd = 0
        for i in cert:
            nbhd |= allowed[i]
        return nbhd.bit_count()

    def check(doc: dict, code: int) -> None:
        require(doc.get("exit_code") == code, "exit code differs from the document")
        if doc.get("invertible") is True:
            require(code == 0, "invertible answer must exit 0")
            perm = doc.get("permutation")
            require(_is_permutation(perm, n), "witness is not a permutation of [0, n)")
            require(_count_inverted(perm, sets, masks) == len(sets),
                    "witness fails to invert some set")
            require(doc.get("sets_verified") == len(sets), "wrong sets_verified")
        else:
            require(doc.get("invertible") is False and code == 1,
                    "non-invertible answer must exit 1")
            cert = doc.get("certificate")
            require(isinstance(cert, list) and cert and len(set(cert)) == len(cert)
                    and all(isinstance(i, int) and 0 <= i < n for i in cert),
                    "certificate is not a non-empty set of elements")
            nb = neighbours(cert)
            require(nb < len(cert), "certificate does not violate Hall's condition")
            require(doc.get("neighbourhood_size") == nb, "wrong neighbourhood size")

    def replay(tr: Tracer, acc: dict) -> dict:
        with tr.span("setcore.parse"):
            col = sp.setcore.parse_collection(_read(path))
        with tr.span("invert.conflict_graph"):
            g = sp.invert.conflict_graph(col)
        with tr.span("invert.matching"):
            result = sp.invert.maximum_matching(g)
        add(acc, "setcore.sets_parsed", col.m)
        add(acc, "invert.conflict_edges", sum(row.bits.bit_count() for row in g.adjacency))
        if result.matched is not None:
            with tr.span("setcore.recheck"):
                ok = all(sp.setcore.inverts(result.matched, s) for s in col.sets)
            require(ok, "witness fails its re-verification")
            add(acc, "invert.witnesses", 1)
            add(acc, "invert.matched_pairs", n)
            return {"invertible": True, "permutation": list(result.matched.image)}
        with tr.span("invert.conflict_graph"):  # the CLI rebuilds it for the report
            g = sp.invert.conflict_graph(col)
        add(acc, "invert.certificates", 1)
        replayed["adjacency"] = [row.bits for row in g.adjacency]
        return {"invertible": False, "certificate": result.certificate.elements()}

    def probe(tr: Tracer, acc: dict) -> None:
        adj = replayed.pop("adjacency", None)
        if adj is not None:  # size of a maximum matching on the certificate path
            match_l, _ = sp.invert.max_bipartite_matching(adj, n)
            add(acc, "invert.matched_pairs", sum(1 for j in match_l if j != -1))

    return Op("invert", ["--json", "invert", "--input", str(path)], (0, 1),
              lambda doc: len(sets), check, replay, probe)


# --------------------------------------------------------------------------
# kappa-greedy


def _kappa_draw(rng: random.Random, smoke: bool):
    ns = [24, 25] if smoke else [120, 121, 160, 161, 200, 201]
    rng.shuffle(ns)
    return [
        {"n": n, "sets": [rng.sample(range(n), rng.randint(1, max(1, n // 8)))
                          for _ in range(5 * n)]}
        for n in ns
    ]


def _simple_count(n: int, i: int) -> int:
    """Simple permutations of n points inverting a fixed i-set (independent copy)."""
    h = n // 2
    if i > h:
        return 0
    return math.factorial(n - i) // ((1 << (h - i)) * math.factorial(h - i))


def _kappa_bound(n: int, sets) -> Fraction:
    num = sum(_simple_count(n, len(s)) for s in sets if len(s) <= n // 2)
    return Fraction(num, _simple_count(n, 0))


def _kappa_ops(sp, raw, workdir: Path) -> list[Op]:
    return [_kappa_op(sp, inst, workdir / f"col{i}.txt") for i, inst in enumerate(raw)]


def _candidate_evals(image: list[int]) -> int:
    """Candidates the greedy compares, read off its result: at each step the
    lowest free point meets every other free point, plus the fixed-point
    branch when the free count is odd."""
    free = list(range(len(image)))
    evals = 0
    while free:
        f = len(free)
        evals += (f - 1) + (f % 2)
        a = free[0]
        b = image[a]
        free = [x for x in free[1:] if x != b]
    return evals


def _kappa_op(sp, inst: dict, path: Path) -> Op:
    n, sets = inst["n"], inst["sets"]
    masks = [_mask(s) for s in sets]
    bound = _kappa_bound(n, sets)

    def check(doc: dict, code: int) -> None:
        require(code == 0 and doc.get("exit_code") == 0, "kappa must exit 0")
        perm = doc.get("permutation")
        require(_is_permutation(perm, n), "answer is not a permutation of [0, n)")
        require(all(perm[perm[j]] == j for j in range(n))
                and sum(1 for j in range(n) if perm[j] == j) == n % 2,
                "answer is not a simple permutation")
        count = doc.get("inverted_count")
        require(_count_inverted(perm, sets, masks) == count, "recount differs from the reported count")
        require(Fraction(doc.get("bound", "-1")) == bound, "reported bound differs from the profile bound")
        require(count >= math.ceil(bound), "count below ceil(bound)")

    def replay(tr: Tracer, acc: dict) -> dict:
        with tr.span("setcore.parse"):
            col = sp.setcore.parse_collection(_read(path))
        with tr.span("kappa.bound"):
            b = sp.kappa.kappa_lower_bound(sp.kappa.SizeProfile.from_collection(col))
            sp.kappa.oversized_count(col)
        with tr.span("kappa.greedy"):
            perm, count = sp.kappa.find_simple_permutation(col)
        with tr.span("setcore.recheck"):
            recount = sum(1 for s in col.sets if sp.setcore.inverts(perm, s))
        evals = _candidate_evals(list(perm.image))
        add(acc, "setcore.sets_parsed", col.m)
        add(acc, "kappa.candidate_evals", evals)
        add(acc, "kappa.set_evals", evals * col.m)
        add(acc, "kappa.bound_slack", count - math.ceil(b))
        return {"permutation": list(perm.image), "inverted_count": recount}

    return Op("kappa", ["--json", "kappa", "--input", str(path)], (0,),
              lambda doc: len(sets), check, replay)


# --------------------------------------------------------------------------
# pack-grid

PACK_GRID = [(400, "1/2"), (3000, "1/16"), (2000, "1/16"), (1000, "1/8"),
             (28, "1/2"), (2000, "1/8"), (500, "1/4"), (300, "1/3")]
PACK_SMOKE_GRID = [(28, "1/2"), (100, "1/3"), (300, "1/3")]


def _pack_draw(rng: random.Random, smoke: bool):
    grid = list(PACK_SMOKE_GRID if smoke else PACK_GRID)
    rng.shuffle(grid)
    return grid


def _no_inputs(sp, raw, workdir: Path) -> None:
    pass


def _pack_ops(sp, raw, workdir: Path) -> list[Op]:
    ops = []
    for n, alpha in raw:
        path = workdir / f"pack_{n}_{alpha.replace('/', '_')}.txt"
        ops.extend(_pack_unit(sp, n, alpha, path))
    return ops


def _level_pairs(trace) -> tuple[int, int, int, int]:
    """(levels, fallback levels, pairs the per-level self-checks compare,
    largest family a self-check holds in its Gram matrix)."""
    levels = fallbacks = pairs = largest = 0
    node = trace
    while node is not None:
        levels += 1
        fallbacks += bool(node.fallback)
        pairs += node.size * (node.size - 1) // 2
        largest = max(largest, node.size)
        node = node.sub
    return levels, fallbacks, pairs, largest


def _pack_unit(sp, n: int, alpha: str, path: Path) -> list[Op]:
    built: dict = {}
    peak_measured: list[bool] = []
    replay_path = path.with_suffix(".replay.txt")
    threshold_alpha = Fraction(alpha)

    def check_build(doc: dict, code: int) -> None:
        built.clear()
        require(code == 0 and doc.get("exit_code") == 0, "pack build must exit 0")
        require(doc.get("verified") is True, "family not verified")
        require(doc.get("shared_constituent_violations") == 0, "shared-constituent violations")
        blocks, size = doc.get("blocks"), doc.get("block_size")
        require(isinstance(blocks, int) and blocks >= 1, "no blocks")
        require(blocks < 2 or Fraction(doc.get("max_intersection")) < threshold_alpha * size,
                "max intersection not below alpha * block size")
        if (n, alpha) == (28, "1/2"):
            require(blocks == 49, "reference instance (28, 1/2) must give 49 blocks")
        built["blocks"] = blocks

    def check_verify(doc: dict, code: int) -> None:
        require(code == 0 and doc.get("exit_code") == 0, "pack verify must exit 0")
        require(doc.get("verified") is True, "written family fails verification")
        blocks = doc.get("blocks")
        require(blocks == built.get("blocks"), "written family differs in size from the built one")
        require(doc.get("pairs_checked") == blocks * (blocks - 1) // 2, "not every pair checked")

    def replay_build(tr: Tracer, acc: dict) -> dict:
        with tr.span("pack.construct"):
            family, trace = sp.pack.construct_packing_traced(n, Fraction(alpha))
        with tr.span("pack.verify"):
            report = sp.pack.verify_packing(family)
        with tr.span("pack.constituents"):
            violations = sp.pack.shared_constituent_violations(trace)
        with tr.span("setcore.serialize"):
            _write(replay_path, sp.pack.serialize_family(family))
        levels, fallbacks, pairs, largest = _level_pairs(trace)
        count = len(family.blocks)
        add(acc, "pack.levels", levels)
        add(acc, "pack.fallback_levels", fallbacks)
        add(acc, "pack.pairs_checked", pairs + report.pairs_checked)
        acc["pack.gram_bytes"] = max(acc.get("pack.gram_bytes", 0), 4 * max(largest, count) ** 2)
        built["family"] = family
        return {"blocks": count, "verified": report.ok, "shared_constituent_violations": violations}

    def probe_build(tr: Tracer, acc: dict) -> None:
        family = built.pop("family", None)
        if family is None or peak_measured:  # once per instance: tracemalloc is slow
            return
        peak_measured.append(True)
        tracemalloc.start()
        try:
            sp.pack.verify_packing(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        acc["pack.verify_peak_mb"] = max(acc.get("pack.verify_peak_mb", 0), peak / 2**20)

    def replay_verify(tr: Tracer, acc: dict) -> dict:
        with tr.span("setcore.parse"):
            family = sp.pack.parse_family(_read(path), None)
        with tr.span("pack.verify"):
            report = sp.pack.verify_packing(family)
        add(acc, "setcore.sets_parsed", len(family.blocks))
        add(acc, "pack.pairs_checked", report.pairs_checked)
        return {"blocks": len(family.blocks), "verified": report.ok}

    build = Op("pack build",
               ["--json", "pack", "build", "--n", str(n), "--alpha", alpha, "--out", str(path)],
               (0,), lambda doc: doc.get("blocks", 0), check_build, replay_build, probe_build)
    verify = Op("pack verify", ["--json", "pack", "verify", "--input", str(path)],
                (0,), lambda doc: doc.get("blocks", 0), check_verify, replay_verify)
    return [build, verify]


def _pack_quality(done: list) -> dict:
    blocks = [doc["blocks"] for op, doc in done if op.kind == "pack build"]
    return {"pack_blocks_geomean": math.exp(sum(math.log(b) for b in blocks) / len(blocks))}


# --------------------------------------------------------------------------
# cube-double


def _cube_draw(rng: random.Random, smoke: bool):
    units = [(d, assist) for d in ((5, 6) if smoke else (12, 13, 14)) for assist in (False, True)]
    rng.shuffle(units)
    return units


def _cube_ops(sp, raw, workdir: Path) -> list[Op]:
    ops = []
    for d, assist in raw:
        ops.extend(_cube_unit(sp, d, assist, workdir / f"cube_{d}_{int(assist)}.txt"))
    return ops


def _squares(d: int) -> int:
    return d * (d - 1) // 2 * (1 << (d - 2))


def _cube_unit(sp, d: int, assist: bool, path: Path) -> list[Op]:
    built: dict = {}
    ceiling = (d - 1) * (1 << (d - 2))
    limit = sp.qcube.DEFAULT_SQUARE_LIMIT
    replay_path = path.with_suffix(".replay.txt")

    def check_build(doc: dict, code: int) -> None:
        built.clear()
        require(code == 0 and doc.get("exit_code") == 0, "cube build must exit 0")
        require(doc.get("verified") is True, "blocking set not verified")
        edges = doc.get("edges")
        require(isinstance(edges, int) and 0 < edges <= ceiling, "edge count above the ceiling")
        if d <= 13:
            plain = edges + (doc.get("saved") or 0)
            require(plain == ceiling, "plain doubling edge count differs from (n-1)*2^(n-2)")
        built["edges"] = edges

    def check_verify(doc: dict, code: int) -> None:
        require(code == 0 and doc.get("exit_code") == 0, "cube verify must exit 0")
        require(doc.get("square_blocking") is True, "written set is not square-blocking")
        require(doc.get("edges") == built.get("edges"), "written set differs from the built one")

    def replay_build(tr: Tracer, acc: dict) -> dict:
        saved = None
        with tr.span("qcube.build") as build_span:
            if assist:
                m, saved = sp.qcube.inversion_assisted_blocking(d, limit)
            else:  # recursive_blocking_set(d, limit) = the doubling, then its check
                with tr.span("qcube.doubling"):
                    m = sp.qcube.recursive_blocking_set(d, d - 1)
                with tr.span("qcube.square_check"):
                    ok = sp.qcube.is_square_blocking(m, limit)
                if not ok:
                    raise CheckFailed("doubling result is not square-blocking")
        with tr.span("setcore.serialize"):
            _write(replay_path, sp.qcube.serialize_cube_edges(m))
        add(acc, "qcube.edges", len(m))
        add(acc, "qcube.saved", saved or 0)
        add(acc, "qcube.squares_checked", _squares(d) + (_squares(d - 1) if assist else 0))
        built["set"], built["build_s"] = m, tr.duration(build_span)
        return {"edges": len(m), "saved": saved}

    def probe_build(tr: Tracer, acc: dict) -> None:
        """Split an assisted build into its internal square checks, the
        direction greedy and the doubling (the remainder)."""
        result = built.pop("set", None)
        if not assist or result is None:
            return
        base = sp.qcube.recursive_blocking_set(d - 1, d - 2)
        first = len(tr)
        with tr.span("qcube.square_check"):
            sp.qcube.is_square_blocking(base, limit)
        with tr.span("qcube.square_check"):
            sp.qcube.is_square_blocking(result, limit)
        directions = sp.qcube.direction_collection(base)
        with tr.span("qcube.direction_greedy"):
            sp.kappa.find_simple_permutation(directions)
        inside = sum(tr.totals(first).values())
        add(acc, "qcube.doubling_s", built.pop("build_s") - inside)

    def replay_verify(tr: Tracer, acc: dict) -> dict:
        with tr.span("setcore.parse"):
            m = sp.qcube.parse_cube_edges(_read(path))
        with tr.span("qcube.square_check"):
            ok = sp.qcube.is_square_blocking(m, limit)
        add(acc, "setcore.sets_parsed", 1)
        add(acc, "qcube.squares_checked", _squares(d))
        return {"edges": len(m), "square_blocking": ok}

    flag = ["--assist"] if assist else []
    build = Op("cube build" + (" --assist" if assist else ""),
               ["--json", "cube", "build", "--n", str(d), *flag, "--out", str(path)],
               (0,), lambda doc: 1 << d, check_build, replay_build, probe_build)
    verify = Op("cube verify", ["--json", "cube", "verify", "--n", str(d), "--edges", str(path)],
                (0,), lambda doc: 1 << d, check_verify, replay_verify)
    return [build, verify]


def _invert_quality(done: list) -> dict:
    return {"witness_frac": sum(1 for _, doc in done if doc["invertible"]) / len(done)}


def _kappa_quality(done: list) -> dict:
    inverted = sum(doc["inverted_count"] for _, doc in done)
    sets = sum(op.items(doc) for op, doc in done)
    return {"kappa_inverted_frac": inverted / sets}


def _cube_quality(done: list) -> dict:
    return {"cube_edges_total": sum(doc["edges"] for op, doc in done if op.kind.startswith("cube build"))}


# Scaling by the reference kernel, timed between ops, narrowed the spread of
# the gated metrics on invert-mixed (ops of about 65 ms) in calibration.  It
# widened it on kappa-greedy (ops of up to 2 s) and pack-grid (mostly BLAS
# sgemm), and helped cube-double (ops of 0.1 to 0.7 s) in one set of runs but
# not in another.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("invert-mixed", _invert_draw, _collection_inputs, _invert_ops,
                 _invert_quality, scaled=True),
        Workload("kappa-greedy", _kappa_draw, _collection_inputs, _kappa_ops,
                 _kappa_quality, scaled=False),
        Workload("pack-grid", _pack_draw, _no_inputs, _pack_ops,
                 _pack_quality, scaled=False),
        Workload("cube-double", _cube_draw, _no_inputs, _cube_ops,
                 _cube_quality, scaled=False),
    )
}
