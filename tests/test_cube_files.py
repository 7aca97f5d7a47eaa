"""The array parser, writer, vertex cover and closed-form plain doubling
of setpack.qcube against their line-by-line and matching originals in
oracles.py."""
import random
import re
import tracemalloc

import numpy as np
import pytest

from setpack import qcube
from setpack.cli import main
from setpack.qcube import (
    CubeEdgeSet,
    _min_vertex_cover,
    decode_cube_edges,
    inversion_assisted_blocking,
    parse_cube_edge_list,
    parse_cube_edges,
    recursive_blocking_set,
    serialize_cube_edges,
    write_cube_edges,
)
from setpack.setcore import FormatError, bit_positions

from oracles import (
    doubling_assisted_blocking,
    doubling_blocking_set,
    naive_min_vertex_cover,
    naive_parse_cube_edge_list,
    naive_serialize_cube_edges,
)


@pytest.fixture(scope="module")
def built():
    """Every plain and assisted blocking set for n = 2..16, and every
    distinct residual a doubling covers, keyed by the dimension built and
    "plain" or "assisted": the plain ones from the matching doubling of
    oracles.py, since the library's plain doubling runs no cover."""
    residuals, kind = {}, ["plain"]
    cover = qcube._min_vertex_cover

    def record(residual):
        residuals.setdefault(tuple(residual), (len(residual) + 1, kind[0]))
        return cover(residual)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcube, "_min_vertex_cover", record)
        doubling_blocking_set(16)  # every plain step from Q_2 on
        sets = [recursive_blocking_set(n) for n in range(2, 17)]
        kind[0] = "assisted"
        sets += [inversion_assisted_blocking(n)[0] for n in range(3, 17)]
    return sets, residuals


def test_closed_form_files_match_the_matching_doubling(built):
    # the library's plain sets, and the assisted sets built on them, equal
    # those of the doubling that matched every step, byte for byte
    sets, _ = built
    oracle = [doubling_blocking_set(n) for n in range(2, 17)]
    oracle += [doubling_assisted_blocking(n)[0] for n in range(3, 17)]
    assert [m.n for m in sets] == [m.n for m in oracle]
    for m, expected in zip(sets, oracle):
        assert m == expected, m.n
        assert write_cube_edges(m) == write_cube_edges(expected), m.n


def parsed(parse, text):
    """(n, edge list) as ``parse`` reads text, or, when it refuses it, the
    'line N' its message starts with (the whole message if it names none)."""
    try:
        n, edges = parse(text)
    except FormatError as e:
        return str(e).partition(":")[0]
    return n, [tuple(e) for e in (edges.tolist() if isinstance(edges, np.ndarray) else edges)]


def test_files_match_the_oracle_writer_and_parser(built):
    sets, _ = built
    for m in sets:
        text = serialize_cube_edges(m)
        assert text == naive_serialize_cube_edges(m), m.n
        assert parsed(parse_cube_edge_list, text) == parsed(naive_parse_cube_edge_list, text)
        assert parse_cube_edges(text) == m


def outcome(parse, text):
    """What ``parse`` makes of text, or the message it refuses it with."""
    try:
        return parse(text)
    except FormatError as e:
        return str(e)


def test_decoder_reads_the_written_files_as_the_tokens_do(built):
    sets, _ = built
    for m in sets:
        raw = write_cube_edges(m)
        assert decode_cube_edges(raw) == CubeEdgeSet.of(*parse_cube_edge_list(raw)) == m, m.n
        with pytest.raises(FormatError, match=f"^file is for Q_{m.n}, not Q_{m.n + 1}$"):
            parse_cube_edges(raw, m.n + 1)


def test_decoder_holds_less_than_half_its_file(built):
    m = built[0][-1]  # the assisted set of Q_16: 4.75 MB of lines, 1 MB of edge flags
    raw = write_cube_edges(m)
    tracemalloc.start()
    try:
        assert decode_cube_edges(raw) == m
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw) // 2, (peak, len(raw))


def test_decoder_declines_what_it_would_not_hold():
    # vectors past MAX_BITS, and edge flags larger than both the file and
    # 1 MiB, are left to the token path and its messages
    assert decode_cube_edges(b"33\n" + b"0" * 33 + b" 0\n") is None
    sparse = b"24\n" + b"0" * 23 + b"1 1\n"
    assert decode_cube_edges(sparse) is None
    assert parse_cube_edges(sparse) == CubeEdgeSet.of(24, [(1, 1)])
    assert decode_cube_edges(b"4\n") == CubeEdgeSet(4, (0, 0, 0, 0))
    assert decode_cube_edges(b"0\n") is None and parse_cube_edges(b"0\n") == CubeEdgeSet(0, ())
    assert decode_cube_edges(b"-3\n") is None and decode_cube_edges(b"03\n") is None


def test_every_byte_of_a_line_is_checked():
    # one byte of a one-digit and of a two-digit direction's line changed, at
    # n = 12, where a stray byte can still read as a direction below n
    raw = write_cube_edges(inversion_assisted_blocking(12)[0])
    tokens = lambda t: CubeEdgeSet.of(*parse_cube_edge_list(t))
    refused = 0
    for start in (raw.index(b" 9\n") - 12, raw.index(b" 11\n") - 12):
        for at in range(start, raw.index(b"\n", start)):
            for byte in b"019:/ \tx":
                text = raw[:at] + bytes([byte]) + raw[at + 1 :]
                expected = outcome(tokens, text)
                assert outcome(parse_cube_edges, text) == expected, text[start : at + 4]
                refused += isinstance(expected, str)
    assert refused > 150, refused


def test_residual_graphs_and_covers_match_the_oracle(built, monkeypatch):
    _, residuals = built
    doubled = [r for r, (n, _) in residuals.items() if n <= 14]
    assert {residuals[r] for r in doubled} == {(n, kind) for n in range(3, 15) for kind in ("plain", "assisted")}
    rng = random.Random(9)
    drawn = []
    for _ in range(300):
        n = rng.randrange(2, 9)
        edges = [(v, d) for v in range(1 << n) for d in range(n) if not v >> d & 1 and rng.random() < 0.3]
        drawn.append(CubeEdgeSet.of(n, edges).dirs)
    flips, walk = [], qcube._alternating_walk

    def counted(*rows):
        parent = walk(*rows)
        flips[-1] += parent is None
        return parent

    monkeypatch.setattr(qcube, "_alternating_walk", counted)
    for residual in doubled + drawn:
        flips.append(0)
        assert _min_vertex_cover(residual) == naive_min_vertex_cover(residual)
    # the label-order greedy is already maximum on every constructed residual,
    # and the drawn ones still run the augmenting branch
    assert not any(flips[: len(doubled)])
    assert any(flips[len(doubled) :])


def test_cover_sizes_match_scipy(built):
    pytest.importorskip("scipy")
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    _, residuals = built
    large = [r for r, (n, _) in residuals.items() if n >= 15]
    assert len(large) == 4
    for residual in large:
        lo = np.concatenate([bit_positions(bits) for bits in residual])
        hi = np.concatenate([bit_positions(bits) | 1 << d for d, bits in enumerate(residual)])
        odd = np.bitwise_count(lo) & 1 == 1
        even_end, odd_end = np.where(odd, hi, lo), np.where(odd, lo, hi)
        size = 1 << len(residual)
        graph = csr_matrix((np.ones(len(lo), np.int8), (even_end, odd_end)), shape=(size, size))
        matched = maximum_bipartite_matching(graph, perm_type="column")
        assert _min_vertex_cover(residual).bit_count() == np.count_nonzero(matched >= 0)


def test_cover_memory_stays_linear(built):
    # index rows grow with the edges: about 10 MB here, where one bit mask
    # per even vertex, as wide as the odd side, took 35 MB
    _, residuals = built
    (residual,) = [r for r, key in residuals.items() if key == (16, "plain")]
    tracemalloc.start()
    try:
        _min_vertex_cover(residual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


# Mutations of a valid file, one per kind of input the format allows or
# refuses; each takes the file's lines (header first) and returns new lines.
def _edge_line(rng, lines, n):
    """Index of a random edge line still as the writer wrote it."""
    candidates = [i for i, line in enumerate(lines[1:], 1) if re.fullmatch(f"[01]{{{n}}} [0-9]+", line)]
    return rng.choice(candidates) if candidates else None


def _at_edge(change):
    def mutate(rng, lines, n):
        i = _edge_line(rng, lines, n)
        if i is not None:
            vertex, d = lines[i].split()
            lines[i] = change(rng, vertex, d, n)
        return lines

    return mutate


def _insert_blank_or_comment(rng, lines, n):
    extra = rng.choice(["", "   ", "\t", "# note", "  # indented", "#", "#0 0", "\t#x y z"])
    lines.insert(rng.randrange(len(lines) + 1), extra)
    return lines


def _pad_line(rng, lines, n):
    i = rng.randrange(len(lines))
    lines[i] = rng.choice(["", " ", "\t", " \t "]) + lines[i] + rng.choice(["", " ", "\t", "\t  "])
    return lines


def _duplicate(rng, lines, n):
    i = _edge_line(rng, lines, n)
    if i is not None:
        lines.insert(i, lines[i])
    return lines


def _header_only(rng, lines, n):
    return lines[:1]


def _junk_header(rng, lines, n):
    lines[0] = rng.choice(["x", "3 3", "-1", "1.5", "0x3", "+3", "03", "1_0", "#3", "3#", "", f"{n}{n}"])
    return lines


# Applied in this order: edits inside one edge line, then the header, then
# whole lines, so each edit finds the fields it expects.
MUTATIONS = {
    "tabs and runs of spaces": _at_edge(lambda rng, v, d, n: v + rng.choice(["\t", "   ", " \t ", "\t\t"]) + d),
    "one token": _at_edge(lambda rng, v, d, n: rng.choice([v, d, v + d])),
    "three tokens": _at_edge(lambda rng, v, d, n: f"{v} {d} " + rng.choice(["0", "x", "#", d])),
    "wrong vertex width": _at_edge(lambda rng, v, d, n: rng.choice([v[1:], v + "0", "0" + v]) + " " + d),
    "non-binary vertex": _at_edge(
        lambda rng, v, d, n: (lambda i: v[:i] + rng.choice("2x#-.") + v[i + 1:])(rng.randrange(n)) + " " + d
    ),
    "signed direction": _at_edge(lambda rng, v, d, n: f"{v} {rng.choice('+-')}{d}"),
    "direction at least n": _at_edge(lambda rng, v, d, n: f"{v} {n + rng.randrange(12)}"),
    "leading zeros": _at_edge(lambda rng, v, d, n: f"{v} {'0' * rng.randrange(1, 25)}{d}"),
    "bad direction character": _at_edge(lambda rng, v, d, n: f"{v} {d}{rng.choice('x.#/:')}"),
    "direction bit set": _at_edge(lambda rng, v, d, n: v[: n - 1 - int(d)] + "1" + v[n - int(d):] + " " + d),
    "junk header": _junk_header,
    "header only": _header_only,
    "duplicate edge": _duplicate,
    "leading and trailing blanks": _pad_line,
    "blank or comment line": _insert_blank_or_comment,
}


def _corpus(rng):
    """(kinds, text) pairs: mutated serialized sets of Q_0..Q_6."""
    for trial in range(1500):
        n = trial % 7
        edges = [(v, d) for v in range(1 << n) for d in range(n) if not v >> d & 1]
        text = serialize_cube_edges(CubeEdgeSet.of(n, rng.sample(edges, rng.randrange(len(edges) + 1))))
        lines = text.splitlines()
        kinds = rng.sample(list(MUTATIONS), rng.choice([1, 1, 2, 3]))
        for kind in sorted(kinds, key=list(MUTATIONS).index):
            lines = MUTATIONS[kind](rng, lines, n)
        ending = rng.choice(["\n", "\r\n"])
        yield kinds, ending.join(lines) + rng.choice([ending, ""])


def test_mutated_files_parse_as_the_oracle_parses_them():
    seen, decoded = {kind: set() for kind in MUTATIONS}, 0
    for kinds, text in _corpus(random.Random(3)):
        expected = parsed(naive_parse_cube_edge_list, text)
        assert parsed(parse_cube_edge_list, text) == expected, (kinds, text)
        # the decoder, on the files it takes, and the parse that falls back to tokens
        tokens = outcome(lambda t: CubeEdgeSet.of(*parse_cube_edge_list(t)), text)
        assert outcome(parse_cube_edges, text) == tokens, (kinds, text)
        m = decode_cube_edges(text.encode())
        assert m is None or m == tokens, (kinds, text)
        decoded += m is not None
        if len(kinds) == 1:
            seen[kinds[0]].add(isinstance(expected, tuple))
    # alone, these keep a file valid, and every other kind can break one
    valid = {"tabs and runs of spaces", "leading zeros", "duplicate edge", "header only",
             "leading and trailing blanks", "blank or comment line"}
    assert all(seen[kind] == {True} for kind in valid), seen
    assert all(False in seen[kind] for kind in MUTATIONS.keys() - valid), seen
    assert decoded > 50, decoded  # 66 of the 1,500 are in the line shape the writer makes


@pytest.mark.parametrize(
    "text",
    [
        "3\n000\u00a00\n",  # a no-break space between the fields
        "3\n000 \u0661\n",  # ARABIC-INDIC DIGIT ONE as the direction
        "\u0663\n000 0\n",  # ... and THREE as the header
        "3\n000 0\u2028001 1\n",  # a Unicode line separator
        "# Q\u2083\n3\n000 0\n",  # a non-ASCII comment
        "3\n000\x1f0\n",  # ASCII unit separator: a blank to str.split
        "3\n000 0\x0b\n",  # vertical tab, form feed and file separator:
        "3\n\x0c000 0\n",  # line ends to str.splitlines
        "3\n000 0\x1c001 1\n",
        "3\r000 0\r",  # carriage returns without line feeds
        "3\n000 0\r001 1\n",
    ],
)
def test_only_exemption_outside_the_ascii_grammar(text):
    # the one deliberate narrowing: the oracle's str.split, str.strip and
    # isdecimal accept these; the file format is ASCII with space and tab as
    # blanks and '\n' or '\r\n' as line ends, and the parser refuses the rest
    assert isinstance(parsed(naive_parse_cube_edge_list, text), tuple)
    with pytest.raises(FormatError):
        parse_cube_edge_list(text)


def test_error_quotes_the_offending_line():
    with pytest.raises(FormatError, match=r"^line 4: direction 3 outside \[0, 3\)$"):
        parse_cube_edge_list("3\n# fine so far\n000 0\n010 3\n")
    with pytest.raises(FormatError, match="^line 3: header must be a single integer, got '3 3'$"):
        parse_cube_edge_list("\n# header next\n3 3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("3\n000 0\r001 1\n010 0\x01\n", "line 2: carriage return without line feed"),
        ("3\n000 9\n002 1\n", "line 2: direction 9 outside [0, 3)"),
        ("3\n001 0\n000 x\n", "line 2: vertex '001' has direction bit 0 set"),
        ("x\n000 0\x01\n", "line 1: non-integer token 'x'"),
    ],
)
def test_the_first_fault_in_file_order_wins(text, message):
    # the fault that comes first in the file, whatever its kind, as the
    # collection and permutation files report theirs
    with pytest.raises(FormatError) as refused:
        parse_cube_edge_list(text)
    assert str(refused.value) == message


def test_edges_span_parse_blocks(monkeypatch):
    # blocks end at line ends, so the rows do not depend on the block size
    m = inversion_assisted_blocking(9)[0]
    text = "# comment\n" + serialize_cube_edges(m).replace("\n", "\r\n")
    whole = parse_cube_edge_list(text)
    for size in (1, 7, 100, 4096):
        monkeypatch.setattr(qcube, "_EDGE_BLOCK", size)
        n, rows = parse_cube_edge_list(text)
        assert n == whole[0] and np.array_equal(rows, whole[1])
        assert decode_cube_edges(write_cube_edges(m)) == m
    assert parse_cube_edges(text) == m


def test_parse_holds_less_memory_than_the_oracle():
    text = serialize_cube_edges(recursive_blocking_set(14))

    def peak(parse):
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_cube_edges) <= peak(lambda t: CubeEdgeSet.of(*naive_parse_cube_edge_list(t)))


def test_write_holds_less_than_three_copies_of_its_file(built):
    m = built[0][-1]  # the assisted set of Q_16
    assert m.n == 16
    tracemalloc.start()
    try:
        data = write_cube_edges(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.decode() == serialize_cube_edges(m)
    assert peak < 3 * len(data)


def test_build_out_streams_the_chunks(built, tmp_path, monkeypatch):
    # the file is written chunk by chunk, never joined, and is the writer's bytes
    m, path = built[0][-1], tmp_path / "q16.txt"
    chunks = list(qcube.cube_edge_chunks(m))
    assert len(chunks) > 2 and b"".join(chunks) == write_cube_edges(m)
    monkeypatch.setattr(qcube, "write_cube_edges", None)
    monkeypatch.setattr(qcube, "inversion_assisted_blocking", lambda n, limit: (m, 1))
    assert main(["cube", "build", "--n", "16", "--assist", "--out", str(path)]) == 0
    assert path.read_bytes() == b"".join(chunks)


def test_directions_of_any_width_are_written_whole():
    m = CubeEdgeSet.of(10_002, [(0, 10_001), (0, 3), (1 << 20, 0), (6, 1_000)])
    text = serialize_cube_edges(m)
    assert text == naive_serialize_cube_edges(m) and parse_cube_edges(text.encode()) == m


def test_vertex_range_is_refused_before_any_vector():
    # a header may claim any n; what cannot be held fails at once
    n, rows = parse_cube_edge_list("70\n" + "0" * 68 + "10 0\n")
    assert n == 70 and rows.tolist() == [[2, 0]]
    with pytest.raises(FormatError, match="beyond 2"):
        parse_cube_edge_list("70\n1" + "0" * 69 + " 0\n")
    with pytest.raises(MemoryError):  # 2^40 bits, refused before allocating
        parse_cube_edges("40\n1" + "0" * 39 + " 0\n")
    with pytest.raises(ValueError):
        CubeEdgeSet.of(80, [(1 << 70, 0)])
