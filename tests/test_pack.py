import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setpack import (
    Collection,
    PackingFamily,
    check_triple,
    construct_packing,
    decide_invertible,
    greedy_independent_set,
    packing_graph_stats,
    verify_packing,
)
from setpack import pack, setcore
from setpack.pack import (
    LevelTrace,
    PackingReport,
    constituent_table,
    construct_packing_traced,
    no_three_invertible_family,
    parse_family,
    residue_family,
    serialize_family,
    shared_constituent_violations,
)
from setpack.cli import main
from setpack.setcore import Incidence, Subset

from oracles import (
    SubsetIncidence,
    eager_construct_packing_traced,
    naive_constituent_table,
    naive_no_three_checks,
    naive_parse_collection,
    naive_shared_constituent_violations,
    naive_verify_packing,
    subset_construct_packing_traced,
)
from test_acceptance import SWEEP
from test_format_roundtrip import same_record


def brute_force_packing_graph(n, cn_size, alpha):
    """Build the whole graph explicitly; returns (vertex count, degree list)."""
    verts = [sum(1 << x for x in cmb) for cmb in combinations(range(n), cn_size)]
    deg = []
    for v in verts:
        d = sum(
            1
            for w in verts
            if w != v and Fraction((v & w).bit_count()) >= alpha * cn_size
        )
        deg.append(d)
    return len(verts), deg


def test_stats_against_explicit_graph():
    st = packing_graph_stats(8, 2, Fraction(1, 2))
    assert (st.N, st.D) == (28, 12)
    n_verts, degs = brute_force_packing_graph(8, 2, Fraction(1, 2))
    assert n_verts == 28
    assert set(degs) == {12}  # vertex-transitive: one common degree

    for n, s, alpha in [(6, 3, Fraction(1, 3)), (7, 3, Fraction(2, 3)), (6, 2, Fraction(1, 2))]:
        st = packing_graph_stats(n, s, alpha)
        n_verts, degs = brute_force_packing_graph(n, s, alpha)
        assert st.N == n_verts
        assert set(degs) == {st.D}, (n, s, alpha)


def test_stats_edge_cases():
    assert packing_graph_stats(4, 2, Fraction(1)).D == 0
    # threshold above the block size: nothing is adjacent
    assert packing_graph_stats(6, 2, Fraction(1, 1)).D == 0
    with pytest.raises(ValueError):
        packing_graph_stats(4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        packing_graph_stats(4, 2, Fraction(3, 2))


def test_degree_summands_decrease_geometrically():
    # for alpha > c the degree-sum terms drop by at least the fixed factor
    # q = alpha(1-2c+alpha*c) / (c(1-alpha)^2) > 1 past the first index
    from math import ceil

    for n in (20, 40, 60):
        for c_num, alpha in [(2, Fraction(1, 2)), (3, Fraction(2, 3)), (1, Fraction(1, 4))]:
            cn = n * c_num // 10
            c = Fraction(cn, n)
            assert alpha > c
            q = alpha * (1 - 2 * c + alpha * c) / (c * (1 - alpha) ** 2)
            assert q > 1
            for i in range(ceil(alpha * cn), cn):
                term = comb(cn, i) * comb(n - cn, cn - i)
                nxt = comb(cn, i + 1) * comb(n - cn, cn - i - 1)
                assert Fraction(term) > q * nxt, (n, cn, alpha, i)


def test_verify_packing():
    fam = PackingFamily.of(6, [[0, 1], [2, 3], [4, 5]], Fraction(1, 2))
    rep = verify_packing(fam)
    assert rep.ok and rep.max_intersection == 0 and rep.pairs_checked == 3

    dup = PackingFamily.of(6, [[0, 1], [0, 1]], Fraction(1, 2))
    rep = verify_packing(dup)
    assert not rep.ok and not rep.distinct

    singletons = PackingFamily.of(5, [[0], [2], [4]], Fraction(1, 10))
    assert verify_packing(singletons).ok

    crossing = PackingFamily.of(6, [[0, 1, 2], [0, 1, 3]], Fraction(1, 3))
    rep = verify_packing(crossing)
    assert not rep.ok and rep.max_intersection == 2


def random_family(rng, n):
    """Equal-size blocks on [0, n), drawn to hit the check's corner cases:
    0, 1 or 2 blocks, duplicates, disjoint blocks and tied maxima."""
    count = rng.choice([0, 1, 2, rng.randint(3, 40)])
    size = rng.randint(0, n)
    if rng.random() < 0.2 and size and count * size <= n:  # pairwise disjoint
        order = rng.sample(range(n), n)
        blocks = [order[i * size:(i + 1) * size] for i in range(count)]
    else:
        blocks = [rng.sample(range(n), size) for _ in range(count)]
    for _ in range(rng.randint(0, 3) if blocks else 0):  # duplicates
        blocks.insert(rng.randrange(len(blocks) + 1), rng.choice(blocks))
    return PackingFamily.of(n, blocks, Fraction(rng.randint(1, 4), rng.randint(1, 6)))


@pytest.fixture(scope="module")
def wide_families():
    """Families whose counts pass 255 and 65,535, with their oracle reports:
    an accumulator too narrow for the block size wraps silently.  Blocks
    0,1 and 0,2 meet in size - 1 points.  The oracle runs once per size,
    as it takes about a second on each 65,536-point family."""
    cases = []
    for size in (255, 256, 257, 65_535, 65_536, 65_537):
        blocks = [range(size), range(1, size + 1), [*range(size - 1), size + 1]]
        fam = PackingFamily.of(size + 2, blocks, Fraction(1, 2))
        cases.append((fam, naive_verify_packing(fam)))
    return cases


@pytest.mark.parametrize("row_cells", [1, 7, 64, pack.ROW_BLOCK_CELLS])
def test_verify_packing_matches_dense_oracle(monkeypatch, wide_families, row_cells):
    # small row budgets split the counts into many row blocks; the
    # whole report, worst pair included, must not depend on the split
    monkeypatch.setattr(pack, "ROW_BLOCK_CELLS", row_cells)
    rng = random.Random(61)
    seen_dup = seen_zero = seen_tie = False
    for _ in range(750):
        fam = random_family(rng, rng.randint(0, 24) if rng.random() < 0.9 else rng.randint(60, 130))
        rep = verify_packing(fam)
        assert rep == naive_verify_packing(fam), fam
        seen_dup |= not rep.distinct
        seen_zero |= rep.pairs_checked > 0 and rep.max_intersection == 0
        if rep.pairs_checked > 1:
            inter = [(b1.bits & b2.bits).bit_count() for b1, b2 in combinations(fam.blocks, 2)]
            seen_tie |= inter.count(rep.max_intersection) > 1
    assert seen_dup and seen_zero and seen_tie
    # the 0-point ground set: every block is empty, so any two coincide
    empty = PackingFamily(0, (Subset(0, 0),) * 3, Fraction(1, 2))
    assert verify_packing(empty) == naive_verify_packing(empty)
    for fam, oracle in wide_families:
        assert verify_packing(fam) == oracle, fam.block_size


def test_verify_packing_exact_on_huge_ground_set():
    # 2**24 points, where float32 counts would stop being exact
    n = 1 << 24
    top = 1 << (n - 1)
    fam = PackingFamily(n, (Subset(n, 1 | top), Subset(n, 2 | top)), Fraction(1))
    assert verify_packing(fam) == PackingReport(True, 1, 1, Fraction(2), 2, True, (0, 1))


def test_sweep_reports_match_oracles():
    for n, alpha in SWEEP:
        fam, trace = construct_packing_traced(n, alpha)
        assert trace.report == naive_verify_packing(fam), (n, alpha)
        assert shared_constituent_violations(trace) == naive_shared_constituent_violations(trace) == 0
        node = trace.sub
        while node is not None:  # each level's record against its rebuilt family
            sub_fam = construct_packing(node.requested_n, node.alpha)
            assert node.report == naive_verify_packing(sub_fam), (n, alpha, node.requested_n)
            node = node.sub


# perfbench's pack-grid instances
PACK_GRID = [(400, "1/2"), (3000, "1/16"), (2000, "1/16"), (1000, "1/8"),
             (28, "1/2"), (2000, "1/8"), (500, "1/4"), (300, "1/3")]


def test_construction_and_its_files_match_the_subset_oracles():
    # each family and level record against the construction that summed
    # Subset ints, and its file's record against the token-by-token parser
    for n, alpha in sorted({*SWEEP, *((n, Fraction(a)) for n, a in PACK_GRID)}):
        fam, trace = construct_packing_traced(n, alpha)
        oracle, oracle_trace = subset_construct_packing_traced(n, alpha)
        assert "sets" not in vars(fam)  # made from the record alone
        assert fam == oracle and trace == oracle_trace, (n, alpha)
        assert same_record(fam.incidence, SubsetIncidence(oracle.n, oracle.blocks))
        text = serialize_family(fam)
        parsed, naive = setcore.parse_collection(text), naive_parse_collection(text)
        assert parsed.sets == naive.sets == oracle.blocks, (n, alpha)
        assert same_record(parsed.incidence, fam.incidence)


def test_family_equality_hash_and_repr():
    # a family is its blocks and its alpha, made from Subsets or a record
    fam = PackingFamily.of(4, [[0], [1]], "1/2")
    same = PackingFamily(4, fam.incidence, Fraction(1, 2))
    assert fam == same and hash(fam) == hash(same)
    assert fam != PackingFamily.of(4, [[0], [1]], "1/3") and fam != PackingFamily.of(4, [[1], [0]], "1/2")
    assert fam != Collection.of(4, [[0], [1]]) and Collection.of(4, [[0], [1]]) != fam
    assert repr(same) == "PackingFamily(n=4, sets=(Subset(4, {0}), Subset(4, {1})), declared_alpha=Fraction(1, 2))"
    with pytest.raises(ValueError, match="equal cardinality"):
        PackingFamily(4, Collection.of(4, [[0], [1, 2]]).incidence, Fraction(1, 2))
    with pytest.raises(AttributeError):
        fam.n = 5


def exhaustive_report(fam):
    """verify_packing with the structure certificate switched off: the
    pairwise check that test_verify_packing_matches_dense_oracle pins."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pack, "_structure_report", lambda f: None)
        return verify_packing(fam)


@pytest.fixture(scope="module")
def product_files():
    """Every SWEEP and pack-grid family, written and read back, with its
    oracle report: naive_verify_packing up to 4,000 blocks, and above that
    the exhaustive check (the oracle's Gram matrix of the 12,769-block
    family alone would take 650 MB)."""
    cases = []
    for n, alpha in sorted({*SWEEP, *((n, Fraction(a)) for n, a in PACK_GRID)}):
        fam = parse_family(serialize_family(construct_packing(n, alpha)))
        oracle = naive_verify_packing(fam) if len(fam.blocks) <= 4_000 else exhaustive_report(fam)
        cases.append((n, alpha, fam, oracle))
    return cases


def test_verify_packing_reads_product_files_exactly(product_files):
    certified = 0
    for n, alpha, fam, oracle in product_files:
        assert verify_packing(fam) == oracle, (n, alpha)
        certified += pack._structure_report(fam) is not None
    assert certified == 17  # all but the base and fallback families


def tampered(fam, rng):
    """(what, family) pairs, each one edit away from a product family."""
    n, blocks = fam.n, [b.elements() for b in fam.blocks]
    shuffled = blocks[:]
    rng.shuffle(shuffled)
    relabel = rng.sample(range(n), n)
    moved = [b[:] for b in blocks]
    i = rng.randrange(len(moved))
    moved[i][rng.randrange(len(moved[i]))] = rng.choice(sorted(set(range(n)) - set(moved[i])))
    duplicated = blocks[:]
    duplicated.insert(rng.randrange(len(blocks) + 1), rng.choice(blocks))
    foreign = blocks[:]
    foreign[rng.randrange(len(blocks))] = rng.sample(range(n), fam.block_size)
    for what, edited in (("shuffled", shuffled), ("relabelled", [[relabel[x] for x in b] for b in blocks]),
                         ("moved", moved), ("duplicated", duplicated), ("foreign", foreign)):
        yield what, PackingFamily.of(n, edited, fam.declared_alpha)


def test_verify_packing_on_tampered_files_matches_oracle(product_files):
    rng = random.Random(16)
    small = [fam for _, _, fam, _ in product_files if 2 < len(fam.blocks) <= 1_000]
    certified = other_witness = 0
    for fam in small:
        for _ in range(2):
            for what, edited in tampered(fam, rng):
                edited = parse_family(serialize_family(edited))
                report = verify_packing(edited)
                assert report == naive_verify_packing(edited), (fam.n, what)
                certified += pack._structure_report(edited) is not None
                other_witness += what == "shuffled" and report.worst_pair != (0, 1)
    # some shuffles keep two blocks that reach U first, others move the witness
    assert len(small) >= 8 and certified > 0 and other_witness > 0


def test_product_files_are_certified_in_construction_order(product_files, monkeypatch):
    # a file as pack build writes it is its q sub-blocks gathered by the
    # construction's table: the renumbering certificate never runs
    monkeypatch.setattr(pack, "_shared_pairs", lambda table: pytest.fail("left the construction order"))
    for n, alpha, fam, oracle in product_files:
        assert verify_packing(fam) == oracle, (n, alpha)


def file_copies(text: bytes, fam):
    """(what, file, --alpha or None): the family file as written, with its
    header's alpha given again, then copies one edit or one other alpha
    away from it.  Lines are 1-based from the first block; line q + 1
    holds block (1, 0), the first whose part 0 is not sub-block 0."""
    lines = text.splitlines(keepends=True)  # the header, n, then the blocks
    q, last = isqrt(fam.m), len(lines) - 1

    def changed(i):  # the last digit of line i, a block's, changed
        line = lines[i].rstrip(b"\n")
        line = line[:-1] + bytes([48 + (line[-1] - 47) % 10]) + b"\n"
        return b"".join(lines[:i] + [line] + lines[i + 1:])

    middle = 2 + fam.m // 2
    alpha = fam.declared_alpha
    yield "as written", text, None
    yield "its own alpha", text, alpha
    yield "CRLF", text.replace(b"\n", b"\r\n"), None
    yield "a comment", b"".join(lines[:1] + [b"# one more comment\n"] + lines[1:]), None
    yield "a leading zero", b"".join(lines[:middle] + [b"0" + lines[middle]] + lines[middle + 1:]), None
    yield "a digit in line q + 1", changed(min(q + 2, last)), None
    yield "a digit in the last line", changed(last), None
    yield "the last line dropped", b"".join(lines[:-1]), None
    yield "a trailing blank line", text + b"\n", None
    yield "trailing blanks", text + b" \t", None
    yield "another alpha", text, Fraction(1, 2 * alpha.denominator) if alpha.numerator == 1 else Fraction(1, 2)


def verify_runs(capsys, path, alpha) -> list:
    """Exit code, stdout and stderr of pack verify on path, plain and --json."""
    given = [] if alpha is None else ["--alpha", f"{alpha.numerator}/{alpha.denominator}"]
    runs = []
    for flag in ([], ["--json"]):
        code = main([*flag, "pack", "verify", "--input", str(path), *given])
        runs.append((code, *capsys.readouterr()))
    return runs


def test_verify_renders_written_files_and_parses_every_other(product_files, monkeypatch, tmp_path, capsys):
    # pack verify against its reference, parse_family + verify_packing on
    # the whole file (the fast path switched off), on every written file
    # and each copy: a written product file, with or without its own alpha,
    # is never parsed, its first q lines read for S alone, and every other
    # is parsed whole
    parsed, real = [], setcore.parse_collection
    monkeypatch.setattr(setcore, "parse_collection", lambda text: parsed.append(bytes(text)) or real(text))
    path, rendered = tmp_path / "fam.txt", 0
    for n, alpha, fam, _ in product_files:
        text = pack.write_family(fam)
        product = construct_packing_traced(n, alpha)[1].q is not None
        for what, data, given in file_copies(text, fam):
            path.write_bytes(data)
            parsed.clear()
            got = verify_runs(capsys, path, given)
            seen = parsed[:]
            with monkeypatch.context() as m:
                m.setattr(pack, "_rendered_report", lambda fh, alpha: None)
                assert got == verify_runs(capsys, path, given), (n, alpha, what)
            if product and what in ("as written", "its own alpha"):
                assert not seen, (n, alpha, what)
                rendered += 1
            else:
                assert data in seen, (n, alpha, what)
    assert rendered == 2 * 17  # all but the base and fallback families


def test_verify_falls_back_on_any_exception(monkeypatch, tmp_path, capsys):
    # line counts across read blocks, and an exception on the fast path,
    # which the whole parse answers
    path, calls = tmp_path / "fam.txt", []
    for n, alpha in ((28, "1/2"), (100, "1/4"), (400, "1/2")):
        path.write_bytes(pack.write_family(construct_packing(n, Fraction(alpha))))
        want = verify_runs(capsys, path, None)
        with monkeypatch.context() as m:
            m.setattr(pack, "verify_packing", lambda f: calls.append(f) or verify_packing(f))
            m.setattr(pack, "_READ_BLOCK", 7)
            calls.clear()
            assert verify_runs(capsys, path, None) == want and not calls, (n, alpha)
            m.setattr(pack, "family_chunks", lambda f: iter([1 / 0]))
            assert verify_runs(capsys, path, None) == want and len(calls) == 2, (n, alpha)


def test_verify_parses_other_renderings_whole(monkeypatch, tmp_path, capsys):
    # files that are byte for byte the rendering of sub-blocks that are not
    # increasing sets of [0, p), or that fail the proof, or whose blocks 0
    # and 1 fall short of U, are parsed whole
    parsed, real = [], setcore.parse_collection
    monkeypatch.setattr(setcore, "parse_collection", lambda text: parsed.append(bytes(text)) or real(text))
    rendered = [
        # sub-blocks 0,1 disjoint but 0,2 meet: blocks 0 and 1 meet in 2 < U = 3
        pack.ProductFamily(np.array([[0, 1], [2, 3], [0, 2]]), (), 4, Fraction(1)),
        # a repeated sub-block: U = 4 reaches the threshold, and blocks repeat
        pack.ProductFamily(np.array([[0, 1], [0, 1], [2, 3]]), (), 4, Fraction(1)),
    ]
    for n, alpha in ((56, "1"), (400, "1/2")):  # sub-blocks of 4 and 8 points
        fam = construct_packing(n, Fraction(alpha))
        repeated = fam.subs.copy()
        repeated[:, 1] = repeated[:, 0]
        top, low = fam.part - fam.subs.max(), -1 - fam.subs.min()  # moves to a point at p, or at -1
        for subs in (fam.subs[:, ::-1], repeated, fam.subs + top, fam.subs + low):
            rendered.append(pack.ProductFamily(subs, fam.coefficients, fam.part, fam.declared_alpha))
    path, codes = tmp_path / "fam.txt", set()
    for fam in rendered:
        data = pack.write_family(fam)
        path.write_bytes(data)
        parsed.clear()
        got = verify_runs(capsys, path, None)
        assert data in parsed, fam.subs[:3]
        with monkeypatch.context() as m:
            m.setattr(pack, "_rendered_report", lambda fh, alpha: None)
            assert got == verify_runs(capsys, path, None), fam.subs[:3]
        codes.add(got[0][0])
    # the reversed sets are the family, repeated points a bad file, and a
    # repeated sub-block repeats blocks
    assert codes >= {0, 1, 3}


def test_build_renders_the_eager_family(monkeypatch, tmp_path, capsys):
    # pack build --out writes the file of the family the construction used
    # to gather whole (the oracle), and never reads its top product level's
    # record, whose lazy gather is that family's
    read, real = [], pack.ProductFamily.incidence
    monkeypatch.setattr(pack.ProductFamily, "incidence", property(lambda f: read.append((f.n, f.m)) or real.fget(f)))
    path = tmp_path / "fam.txt"
    for n, alpha in sorted({*SWEEP, *((n, Fraction(a)) for n, a in PACK_GRID)}):
        oracle, oracle_trace = eager_construct_packing_traced(n, alpha)
        read.clear()
        assert main(["pack", "build", "--n", str(n), "--alpha", str(alpha), "--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_bytes() == pack.write_family(oracle), (n, alpha)
        fam, trace = construct_packing_traced(n, alpha)
        assert isinstance(fam, pack.ProductFamily) == (trace.q is not None)
        if trace.q is not None:
            assert (fam.n, fam.m) not in read, (n, alpha)
            assert "record" not in vars(fam)
        assert fam == oracle and trace == oracle_trace, (n, alpha)
        assert same_record(fam.incidence, oracle.incidence)
    # rendered in row blocks of any width, even below one block, also with
    # one point per sub-block (2000, 1/16); the oracle's file is
    # write_collection's, whose width test_collection_files varies
    cases = [(n, Fraction(alpha)) for n, alpha in ((28, "1/2"), (100, "1/4"), (2000, "1/16"), (400, "1/2"))]
    want = {case: pack.write_family(eager_construct_packing_traced(*case)[0]) for case in cases}
    for width in (1, 5, 97):
        monkeypatch.setattr(setcore, "_WRITE_BLOCK", width)
        for case in cases:
            assert pack.write_family(construct_packing(*case)) == want[case], (width, case)


def test_wide_parts_render_as_their_record(monkeypatch, tmp_path, capsys):
    # a built family's sub-blocks, coefficients and alpha on parts 10^4 and
    # 10^8 wide: its points pass 10^4 or 10^8, so they take two or three
    # base-10^4 groups, inner ones of zeros among them; its file is
    # write_collection's of its record, and pack verify certifies it from
    # the proof, whose U does not depend on the part width, unparsed
    parsed, real = [], setcore.parse_collection
    monkeypatch.setattr(setcore, "parse_collection", lambda text: parsed.append(1) or real(text))
    path = tmp_path / "fam.txt"
    for n, alpha in ((28, "1/2"), (2000, "1/16"), (400, "1/2")):
        fam = construct_packing(n, Fraction(alpha))
        for part in (10**4, 10**8):
            wide = pack.ProductFamily(fam.subs, fam.coefficients, part, fam.declared_alpha)
            data = pack.write_family(wide)
            assert wide.incidence.elements.min() < 10**4 and wide.incidence.elements.max() > part
            assert data == setcore.write_collection(wide, [data.split(b"\n", 1)[0].decode()]), (n, alpha, part)
            path.write_bytes(data)
            (code, out, err), _ = verify_runs(capsys, path, None)
            assert code == 0 and not parsed and not err, (n, alpha, part)
            assert out.startswith(f"{wide.m} blocks of size {wide.block_size} on n={wide.n}\n"), (n, alpha, part)


def construction_order_edits(fam, q):
    """(what, family) pairs of files near the construction's own order,
    made from the q sub-blocks S that part 0 of its (l, 0) blocks holds."""
    parts = 2 * fam.declared_alpha.denominator
    p, size = fam.n // parts, fam.block_size
    s = size // parts
    subs = fam.incidence.elements.reshape(-1, size)[::q, :s]
    starts = np.arange(parts)[:, None] * p

    def family(table, edit=None):
        points = (subs[table] + starts).reshape(len(table), size)
        blocks = points.tolist()
        if edit is not None:
            blocks[edit[0]][edit[1]] = edit[2]
        return parse_family(serialize_family(PackingFamily.of(fam.n, blocks, fam.declared_alpha)))

    table = constituent_table(q, pack._coefficients(parts))
    swap = np.arange(q)
    swap[:2] = 1, 0
    for j in (0, 1, parts - 1):  # a valid product, its interval j's sub-blocks 0 and 1 swapped
        swapped = table.copy()
        swapped[:, j] = swap[swapped[:, j]]
        yield f"swapped in interval {j}", family(swapped)
    if parts == 4:
        yield "coefficients (2, 2)", family(constituent_table(q, (2, 2)))
    # part 0 of block (1, 0) takes a point outside its sub-block, which
    # every other block (1, m) keeps
    outside = sorted(set(range(p)) - set(subs[1].tolist()))[0]
    yield "one point of an (l, 0) row", family(table, (q, 0, outside))


def test_construction_order_edits_fall_through(monkeypatch):
    calls = []
    real = pack._shared_pairs
    monkeypatch.setattr(pack, "_shared_pairs", lambda table: calls.append(1) or real(table))
    seen = set()
    for n, alpha in ((28, "1/2"), (64, "1/2"), (100, "1/4"), (248, "1/4")):
        fam, trace = construct_packing_traced(n, Fraction(alpha))
        for what, edited in construction_order_edits(fam, trace.q):
            calls.clear()
            report = verify_packing(edited)
            assert calls, (n, alpha, what)  # the renumbering certificate ran
            assert report == naive_verify_packing(edited), (n, alpha, what)
            if what.startswith("swapped"):
                assert pack._structure_report(edited) == report, (n, alpha, what)
            seen.add((what[:7], report.ok))
    assert seen >= {("swapped", True), ("coeffic", False), ("one poi", False)}


def test_verify_packing_peak_memory_is_bounded():
    # the construction-order comparison runs in row blocks; the parent
    # commit's renumbering sorts peaked at 2.5 and 12.5 MB here
    for n, alpha in ((400, "1/2"), (3000, "1/16")):
        fam = construct_packing(n, Fraction(alpha))
        tracemalloc.start()
        try:
            report = verify_packing(fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.worst_pair == (0, 1)
        assert peak < 8 << 20, (n, alpha, peak)


def test_verify_packing_under_other_alphas_matches_oracle(product_files):
    # --alpha overrides the header: other 1/k change the intervals, and
    # alphas not of the form 1/k never take the structure path
    for n, alpha, fam, _ in product_files:
        if len(fam.blocks) > 1_000:
            continue
        text = serialize_family(fam)
        for other in ("1", "1/2", "1/3", "1/4", "1/8", "1/16", "3/4", "2/5", "2"):
            over = parse_family(text, Fraction(other))
            assert verify_packing(over) == naive_verify_packing(over), (n, alpha, other)


def test_verify_packing_with_fewer_than_two_blocks():
    for text in ("# packing n=8 alpha=1/2 c=0/1\n8\n", "# packing n=8 alpha=1/2 c=1/2\n8\n0 2 4 6\n",
                 "# packing n=0 alpha=1/2 c=0/1\n0\n"):
        fam = parse_family(text)
        assert verify_packing(fam) == naive_verify_packing(fam), text


@st.composite
def product_like_families(draw):
    """Blocks that take sub-block table[b][j] of interval j's sub-family.
    The table is a Reed-Solomon table over a small q, with distinct
    nonzero coefficients or any, left as it is, shuffled, thinned or with
    rows made to agree twice.  The intervals share one sub-family or each
    have their own, drawn as disjoint chunks of [0, p) or as any s-subsets.
    Most draws make a product, so the certificate has work to do: the
    smallest value of each draw, which hypothesis favours, makes one."""
    k = draw(st.sampled_from([1, 2, 3]))
    parts, q = 2 * k, draw(st.sampled_from([5, 3, 7, 2, 1]))
    s = draw(st.integers(1, 3))
    if draw(st.integers(0, 3)) < 3:  # disjoint chunks of a shuffled [0, p)
        p = s * (q + 2) + draw(st.integers(0, 3))
        sub_family = st.permutations(range(p)).map(lambda o: [o[i:i + s] for i in range(0, s * (q + 2), s)])
    else:
        p = draw(st.integers(s, 3 * (q + 2)))
        sub_family = st.lists(st.lists(st.sampled_from(range(p)), min_size=s, max_size=s, unique=True),
                              min_size=q, max_size=q + 2)
    subs = [draw(sub_family)] * parts if draw(st.booleans()) else [draw(sub_family) for _ in range(parts)]
    if draw(st.integers(0, 3)) < 3 and q > parts - 2:
        coeffs = draw(st.permutations(range(1, q)))[: parts - 2]  # no two rows agree twice
    else:
        coeffs = [draw(st.integers(0, q - 1)) for _ in range(parts - 2)]
    table = [[l, m] + [(l + a * m) % q for a in coeffs] for l in range(q) for m in range(q)]
    edit = [None] * 5 + ["shuffle", "thin", "collide"]
    edit = edit[draw(st.integers(0, len(edit) - 1))]
    if edit == "shuffle":
        table = draw(st.permutations(table))
    elif edit == "thin":
        table = table[: draw(st.integers(0, len(table)))]
    elif edit == "collide" and len(table) > 1:
        i, j = draw(st.integers(0, len(table) - 1)), draw(st.integers(0, len(table) - 1))
        c1, c2 = draw(st.sampled_from(list(combinations(range(parts), 2))))
        table[j] = table[j][:]
        table[j][c1], table[j][c2] = table[i][c1], table[i][c2]
    blocks = [[j * p + x for j, idx in enumerate(row) for x in subs[j][idx]] for row in table]
    alpha = [Fraction(1, k)] * 3 + [Fraction(1, 2 * k), Fraction(2, 3)]
    alpha = alpha[draw(st.integers(0, len(alpha) - 1))]
    return PackingFamily.of(parts * p, blocks, alpha)


@settings.get_profile("setpack")
@given(product_like_families())
def test_verify_packing_on_product_like_families_matches_oracle(fam):
    assert verify_packing(fam) == naive_verify_packing(fam)


def test_structure_path_takes_a_sub_family_per_interval():
    # each interval orders its own 5 of 7 disjoint pairs on 14 points: the
    # union of the intervals' sub-blocks bounds every pair (U = 2), so the
    # family is certified although no two intervals index alike
    rng = random.Random(5)
    order = rng.sample(range(14), 14)
    pool = [sorted(order[2 * i:2 * i + 2]) for i in range(7)]
    subs = [rng.sample(pool, 5) for _ in range(4)]
    blocks = [[j * 14 + x for j, idx in enumerate(row) for x in subs[j][idx]]
              for row in constituent_table(5, (2, 3)).tolist()]
    fam = PackingFamily.of(56, blocks, Fraction(1, 2))
    report = pack._structure_report(fam)
    assert report is not None and report == naive_verify_packing(fam)
    assert (report.max_intersection, report.pairs_checked) == (2, 300)


def test_certificate_matches_exhaustive_check():
    # every level of every family of at most 4,000 blocks up to n = 300
    # against the exhaustive check, and each family's own report (once per
    # ground size used) against the oracle
    def count(n, k):  # the construction's block count, without its blocks
        if n <= 4 * k:
            return n
        sub = count(n // (2 * k), 2 * k)
        q = pack._largest_prime_at_most(sub)
        return sub if q is None or q <= 2 * k else q * q

    oracle, seen = {}, set()
    for k in (1, 2, 3, 4, 8):
        for n in range(2, 301):
            if count(n, k) > 4_000:
                continue
            fam, trace = construct_packing_traced(n, Fraction(1, k))
            assert len(fam.blocks) == count(n, k)
            if (fam.n, k) not in seen:  # verify_packing, by structure where it holds
                seen.add((fam.n, k))
                assert verify_packing(fam) == naive_verify_packing(fam), (n, k)
            node = trace
            while node is not None:
                key = (node.requested_n, node.alpha)
                if key not in oracle:
                    oracle[key] = exhaustive_report(construct_packing(*key))
                assert node.report == oracle[key], (n, k, key)
                node = node.sub
    assert len(seen) > 100


def test_certificate_falls_back_when_the_witness_falls_short(monkeypatch):
    # sub-blocks 0,1 are disjoint but 0,2 meet: blocks 0 and 1 meet in
    # 2 < U = 2 + 1 points, and the pair (0, 2) reaches U
    subs = np.array([[0, 1], [2, 3], [0, 2]])
    fam = _product_of(subs, 4)
    calls = []
    real = pack.verify_packing
    monkeypatch.setattr(pack, "verify_packing", lambda f: calls.append(f) or real(f))
    rep = pack._certified_report(fam, subs, 3, ())
    assert calls == [fam]
    assert rep == naive_verify_packing(fam)
    assert (rep.max_intersection, rep.worst_pair) == (3, (0, 2))


def _product_of(subs, p):
    """The two-part product family over the sub-blocks subs of [0, p):
    block (l, m) takes sub-block l, then sub-block m shifted by p."""
    bits = [sum(1 << int(x) for x in row) for row in subs]
    q = len(bits)
    return PackingFamily(2 * p, tuple(Subset(2 * p, bits[l] | bits[m] << p) for l in range(q) for m in range(q)),
                         Fraction(1))


def test_certificate_bound_comes_from_the_sub_blocks_it_takes(monkeypatch):
    # the sub-level's fourth sub-block in lexicographic order, [2, 3, 5], meets
    # [1, 3, 5] in 2 points; the first q = 3, which the level takes, meet
    # pairwise in 1, so U = 3 + 1 = 4, which blocks 0 and 1 reach: the
    # witness gives the report
    sub_level = np.array([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 3, 5]])
    assert pack._max_pair(sub_level, 6)[0] == 2
    subs = sub_level[:3]
    assert pack._max_pair(subs, 6)[0] == 1
    fam = _product_of(subs, 6)
    monkeypatch.setattr(pack, "verify_packing", lambda f: pytest.fail("the witness fell short"))
    rep = pack._certified_report(fam, subs, 3, ())
    assert rep == naive_verify_packing(fam)
    assert (rep.max_intersection, rep.worst_pair) == (4, (0, 1))


def test_product_levels_skip_the_exhaustive_check(monkeypatch):
    calls = []
    real = pack.verify_packing
    monkeypatch.setattr(pack, "verify_packing", lambda f: calls.append(len(f.blocks)) or real(f))
    products = 0
    for n, alpha in ((400, "1/2"), (3000, "1/16"), (2000, "1/16"), (1000, "1/8"),
                     (28, "1/2"), (2000, "1/8"), (500, "1/4"), (300, "1/3")):
        calls.clear()
        _, trace = construct_packing_traced(n, Fraction(alpha))
        checked = []
        node = trace
        while node is not None:
            if node.q is None:  # base or fallback
                checked.append(node.size)
            products += node.q is not None
            node = node.sub
        assert calls == checked[::-1], (n, alpha)
    assert products >= 6


def test_constituent_table():
    assert constituent_table(3, (2,)).tolist() == [
        [0, 0, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1], [1, 1, 0], [1, 2, 2], [2, 0, 2], [2, 1, 1], [2, 2, 0]]
    assert constituent_table(1, ()).tolist() == [[0, 0]]


def test_constituent_table_matches_oracle():
    # coefficients of any value, repeats allowed, and any row range
    rng = random.Random(5)
    for q in (3, 5, 89, 113):
        for count in range(31):
            coeffs = tuple(rng.randrange(3 * q) for _ in range(count))
            start = rng.randrange(q * q)
            stop = rng.randrange(start, q * q + 1)
            for rows in ((), (start,), (start, stop)):
                want, got = naive_constituent_table(q, coeffs, *rows), constituent_table(q, coeffs, *rows)
                assert got.dtype == want.dtype and np.array_equal(got, want), (q, coeffs, rows)


def test_shared_constituent_violations_match_oracle():
    rep = verify_packing(PackingFamily(1, (), Fraction(1)))

    def level(q, coeffs, sub=None):
        return LevelTrace(8, 8, Fraction(1, 2), q, coeffs, q * q, rep, sub)

    # a prime above every coefficient: no two blocks share two sub-blocks,
    # and a base level below adds nothing
    base = LevelTrace(2, 2, Fraction(1), None, (), 2, rep, None)
    assert shared_constituent_violations(level(7, (2, 3, 4, 5), base)) == 0
    # a repeated coefficient makes two parts agree on every block: q
    # classes of q blocks, C(q, 2) pairs each; coefficient 0 does the same
    # with part 1; the sub level's count adds to the top's
    top = level(5, (2, 2), level(5, (0,)))
    assert shared_constituent_violations(top) == naive_shared_constituent_violations(top) == 2 * 5 * 10
    rng = random.Random(7)
    seen_nonzero = 0
    for _ in range(300):
        parts, q = rng.randint(2, 5), rng.randint(1, 9)  # q prime or not
        coeffs = tuple(rng.randrange(-2, 2 * q + 2) for _ in range(parts - 2))  # repeats, out of range
        trace = level(q, coeffs, level(rng.randint(1, 6), coeffs[:1]) if rng.random() < 0.5 else None)
        count = shared_constituent_violations(trace)
        assert count == naive_shared_constituent_violations(trace), (q, coeffs)
        seen_nonzero += count > 0
    assert 50 < seen_nonzero < 300


def test_sweep_traces_keep_what_the_benchmark_reads():
    # the benchmark reads family.blocks and each level's fallback, size and sub
    for n, alpha in SWEEP:
        fam, trace = construct_packing_traced(n, alpha)
        assert fam.blocks is fam.sets and len(fam.blocks) == trace.size
        node = trace
        while node is not None:
            assert node.fallback is (node.sub is not None and node.q is None)
            if node.q is not None:
                assert node.size == node.q**2 and len(node.coefficients) == 2 * node.alpha.denominator - 2
            elif node.sub is not None:
                assert node.size == node.sub.size and node.report.block_size == node.sub.report.block_size
            else:
                assert node.size == node.used_n == node.requested_n and node.report.block_size == 1
            node = node.sub


def test_construct_base_case():
    fam = construct_packing(4, Fraction(1, 1))
    assert len(fam.blocks) == 4
    assert all(b.cardinality() == 1 for b in fam.blocks)


def test_construct_49_blocks():
    fam, trace = construct_packing_traced(28, Fraction(1, 2))
    assert fam.n == 28
    assert len(fam.blocks) == 49
    assert fam.block_size == 4
    assert fam.achieved_c == Fraction(1, 7)
    rep = verify_packing(fam)
    assert rep.ok and rep.max_intersection == 1
    assert trace.q == 7 and trace.coefficients == (2, 3)
    assert shared_constituent_violations(trace) == 0
    # exhaustive structural cross-check: no two blocks share 2+ sub-blocks
    for t1, t2 in combinations(constituent_table(trace.q, trace.coefficients).tolist(), 2):
        assert sum(1 for a, b in zip(t1, t2) if a == b) <= 1


def test_construct_two_levels_squares_size():
    # family size squares per level, up to prime rounding
    fam, trace = construct_packing_traced(56, Fraction(1, 1))
    sub = trace.sub
    assert sub.size == 49
    assert trace.size == 47**2  # largest prime <= 49
    assert trace.size <= sub.size**2
    assert verify_packing(fam).ok
    assert shared_constituent_violations(trace) == 0


def test_construct_truncates_to_feasible_n():
    fam, trace = construct_packing_traced(30, Fraction(1, 2))
    assert fam.n == 28  # 4 parts of 7
    assert verify_packing(fam).ok


def test_construct_fallback_without_usable_prime():
    # parts of size 2 leave no prime above 2k: the sub-family is returned
    fam, trace = construct_packing_traced(10, Fraction(1, 2))
    assert trace.fallback
    assert all(b.cardinality() == 1 for b in fam.blocks)
    assert verify_packing(fam).ok


def test_construct_rejects_bad_alpha():
    with pytest.raises(ValueError):
        construct_packing(10, Fraction(2, 3))
    with pytest.raises(ValueError):
        construct_packing(0, Fraction(1, 2))


def test_greedy_examples():
    fam = greedy_independent_set(8, 2, Fraction(1, 2))
    assert [b.elements() for b in fam.blocks] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    st = packing_graph_stats(8, 2, Fraction(1, 2))
    assert len(fam.blocks) * (st.D + 1) >= st.N

    fam = greedy_independent_set(6, 3, Fraction(1, 3))
    assert len(fam.blocks) == 2  # only disjoint triples qualify

    fam = greedy_independent_set(5, 2, Fraction(3, 2))
    assert len(fam.blocks) == comb(5, 2)  # threshold above size: keep all

    with pytest.raises(ValueError):
        greedy_independent_set(40, 20, Fraction(1, 2), budget=1000)


def test_greedy_result_is_maximal_packing():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(4, 10)
        s = rng.randint(1, n // 2)
        alpha = Fraction(rng.randint(1, s), s)
        fam = greedy_independent_set(n, s, alpha)
        assert verify_packing(fam).ok
        kept = {b.bits for b in fam.blocks}
        # maximality: every rejected subset collides with a kept one
        for cmb in combinations(range(n), s):
            bits = sum(1 << x for x in cmb)
            if bits in kept:
                continue
            assert any(
                Fraction((bits & b).bit_count()) >= alpha * s for b in kept
            )


def test_no_three_family_example():
    rs = PackingFamily.of(12, [[3, 4, 5], [6, 7, 8], [9, 10, 11]], Fraction(1, 3))
    col = no_three_invertible_family(12, 3, rs)
    assert col.m == 3
    assert all(s.cardinality() == 6 for s in col.sets)
    assert col.sets[0].elements() == [0, 1, 2, 3, 4, 5]
    # triple fails both the condition and real invertibility
    assert not check_triple(col)
    assert not decide_invertible(col).invertible
    assert naive_no_three_checks(col) == []


def test_no_three_family_validation():
    rs = PackingFamily.of(12, [[3, 4, 5], [9, 10, 11], [5, 6, 7]], Fraction(1, 3))
    with pytest.raises(ValueError, match="residue blocks 0,2 intersect"):
        no_three_invertible_family(12, 3, rs)  # intersection 1 >= k/3
    rs = PackingFamily.of(12, [[0, 4, 5], [6, 7, 8]], Fraction(1, 3))
    with pytest.raises(ValueError, match=r"residue block 0 intrudes into the core \[0, 3\)"):
        no_three_invertible_family(12, 3, rs)
    rs = PackingFamily.of(12, [[3, 4, 5], [6, 7, 8]], Fraction(1, 3))
    col = no_three_invertible_family(12, 3, rs)  # two sets: vacuous triples
    assert col.m == 2
    with pytest.raises(ValueError, match="residue block 0 does not have cardinality 2"):
        no_three_invertible_family(12, 2, rs)
    col = no_three_invertible_family(12, 3, PackingFamily.of(12, [], Fraction(1, 3)))
    assert col.m == 0 and col == Collection(12, ())


def test_residue_family_default():
    rs = residue_family(12, 3)
    assert [b.elements() for b in rs.blocks] == [[3, 4, 5], [6, 7, 8], [9, 10, 11]]
    col = no_three_invertible_family(12, 3, rs)
    assert col.m == 3


def subset_no_three_family(n, k, rs):
    """no_three_invertible_family's sets as they were built, one Subset
    each: the core's bits ORed onto a residue block's."""
    core = (1 << (n // 2 - k)) - 1
    return Collection(n, tuple(Subset(n, core | b.bits) for b in rs.blocks))


def seeded_greedy_residues(n, k, seed):
    """k-subsets past the core meeting pairwise in fewer than k/3 points,
    kept first-fit in a seeded random order."""
    rng = random.Random(seed)
    pool = [sum(1 << x for x in c) for c in combinations(range(n // 2 - k, n), k)]
    rng.shuffle(pool)
    kept = []
    for bits in pool:
        if all(3 * (bits & b).bit_count() < k for b in kept):
            kept.append(bits)
    return PackingFamily(n, tuple(Subset(n, b) for b in kept), Fraction(1, 3))


def sampled_construction_residues(n, k, size, seed):
    """size of the blocks of a constructed 1/3 packing of k-sets, in a
    seeded random order, shifted past the core."""
    fam = construct_packing(n // 2 + k, Fraction(1, 3))
    assert fam.block_size == k
    pick = random.Random(seed).sample(range(fam.m), size)
    points = fam.incidence.elements.reshape(fam.m, k)[pick] + (n // 2 - k)
    return PackingFamily(n, Incidence(n, np.arange(size + 1) * k, points.reshape(-1)), Fraction(1, 3))


# residue families of 24 to 40 blocks: more than 2,000 triples each
RESIDUES = {
    "lexicographic greedy (32, 4)": lambda: (32, 4, residue_family(32, 4)),
    "seeded greedy (34, 4)": lambda: (34, 4, seeded_greedy_residues(34, 4, 0)),
    "constructed (72, 6)": lambda: (72, 6, sampled_construction_residues(72, 6, 28, 5)),
}


@pytest.mark.parametrize("name", sorted(RESIDUES))
def test_no_three_family_against_every_triple_and_pair(name):
    n, k, rs = RESIDUES[name]()
    col = no_three_invertible_family(n, k, rs)
    assert 24 <= col.m <= 40 and comb(col.m, 3) > 2_000
    assert col == subset_no_three_family(n, k, rs)
    assert naive_no_three_checks(col) == []


@pytest.mark.parametrize("name", sorted(RESIDUES))
def test_no_three_family_tampered_residues(name):
    n, k, rs = RESIDUES[name]()
    head, points = n // 2 - k, rs.incidence.elements.reshape(rs.m, k)

    def family(edit):
        edited = points.copy()
        edit(edited)
        return PackingFamily(n, Incidence(n, rs.incidence.indptr, edited.reshape(-1)), Fraction(1, 3))

    def duplicate(p):
        p[17] = p[6]

    def intrude(p):
        p[19, 0] = head - 1
        p[23, 0] = 0

    with pytest.raises(ValueError, match="residue blocks 6,17 intersect in >= k/3 elements"):
        no_three_invertible_family(n, k, family(duplicate))
    with pytest.raises(ValueError, match=rf"residue block 19 intrudes into the core \[0, {head}\)"):
        no_three_invertible_family(n, k, family(intrude))


def test_family_serialization_roundtrip():
    fam = construct_packing(28, Fraction(1, 2))
    text = serialize_family(fam)
    back = parse_family(text)
    assert back.n == fam.n
    assert back.blocks == fam.blocks
    assert back.declared_alpha == fam.declared_alpha
    # explicit alpha overrides the header
    loose = parse_family(text, Fraction(3, 4))
    assert loose.declared_alpha == Fraction(3, 4)


def test_self_checks_raise(monkeypatch, capsys):
    # explicit raises, so they also hold under python -O
    from dataclasses import replace

    from setpack import pack
    from setpack.cli import main

    real = pack.verify_packing

    def failing(when):
        return lambda f: replace(real(f), ok=False) if when(f) else real(f)

    half = Fraction(1, 2)
    for n, name, patched, message in (
        (28, "verify_packing", failing(lambda f: True), "singleton base family"),
        (9, "verify_packing", failing(lambda f: f.declared_alpha == half), "fallback family"),
        # q = 6 over the 7 singletons below n = 28: the certificate refuses it
        (28, "_largest_prime_at_most", lambda x: x - 1, "constructed family"),
    ):
        monkeypatch.setattr(pack, name, patched)
        with pytest.raises(RuntimeError, match=message):
            construct_packing(n, half)
        assert main(["pack", "build", "--n", str(n), "--alpha", "1/2"]) == 4
        assert "internal error" in capsys.readouterr().err
        monkeypatch.undo()
    # a repeated coefficient, which would make blocks share two sub-blocks,
    # fails the build's certificate, not a "no"
    certified = pack._certified_report
    monkeypatch.setattr(pack, "_certified_report",
                        lambda family, subs, q, coeffs: certified(family, subs, q, coeffs[:1] * len(coeffs)))
    assert main(["pack", "build", "--n", "28", "--alpha", "1/2"]) == 4
    assert "internal error: constructed family fails its certificate: coefficients (2, 2) are not distinct" \
        in capsys.readouterr().err
    monkeypatch.undo()

    def low_floor(n, cn_size, alpha):
        stats = packing_graph_stats(n, cn_size, alpha)
        return replace(stats, N=10**9)

    monkeypatch.setattr(pack, "packing_graph_stats", low_floor)
    with pytest.raises(RuntimeError, match="independence floor"):
        greedy_independent_set(8, 2, half)
    monkeypatch.undo()
    monkeypatch.setattr(pack, "comb", lambda a, b: 0)
    with pytest.raises(RuntimeError, match="degree"):
        packing_graph_stats(8, 2, half)
