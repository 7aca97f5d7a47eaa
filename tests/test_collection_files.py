"""The collection file's array parser and writer, the incidence record, and
the conflict graph and re-verification read from it, against the
token-by-token originals in oracles.py."""
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from setpack import Collection, Permutation, Subset, cli, invert, pack, qcube, setcore
from setpack.invert import conflict_graph, decide_invertible, maximum_matching
from setpack.setcore import (
    FormatError,
    inverted,
    inverts,
    parse_collection,
    parse_permutation,
    serialize_collection,
    serialize_permutation,
    write_collection,
)

from oracles import (
    iter_bits,
    naive_conflict_graph,
    naive_elements,
    naive_parse_collection,
    naive_parse_permutation,
    naive_serialize_collection,
)

WIDTHS = (1, 7, 8, 9, 255, 256, 257, 4096)


def drawn(rng, n, count):
    """Collections over [0, n) with sets from sparse to full."""
    out = []
    for _ in range(count):
        sets = []
        for _ in range(rng.randrange(7)):
            density = rng.choice([0.0, 0.01, 0.1, 0.5, 1.0])
            bits = sum(1 << x for x in range(n) if rng.random() < density)
            sets.append(Subset(n, bits or 1 << rng.randrange(n)))
        out.append(Collection(n, tuple(sets)))
    return out


def parsed(parse, text):
    """The collection ``parse`` reads, or the message it refuses text with."""
    try:
        return parse(text)
    except FormatError as e:
        return str(e)


@pytest.mark.parametrize("n", sorted({*WIDTHS, 63, 64, 65}))  # and the tail word's edges
def test_files_and_conflict_graphs_match_the_oracles(n):
    rng = random.Random(n)
    for c in drawn(rng, n, 12 if n < 4096 else 3):
        comments = rng.choice([(), ("note",), ("#set file", "two\nlines")])
        text = serialize_collection(c, comments)
        assert text == naive_serialize_collection(c, comments)
        assert parse_collection(text) == naive_parse_collection(text) == c
        assert conflict_graph(c) == naive_conflict_graph(c)
        assert decide_invertible(c) == maximum_matching(conflict_graph(c))
        assert [s.elements() for s in c.sets] == [naive_elements(s.bits) for s in c.sets]


def test_writer_refuses_what_the_oracle_refuses():
    c = Collection(3, (Subset(3, 1), Subset(3, 0), Subset(3, 0)))
    for write in (serialize_collection, naive_serialize_collection):
        with pytest.raises(ValueError, match="set 1 is empty"):
            write(c)
    assert serialize_collection(Collection(5, ())) == naive_serialize_collection(Collection(5, ())) == "5\n"


def test_incidence_is_sorted_and_cached():
    c = Collection.of(70, [[69, 3], [], [0, 64, 5]])
    inc = c.incidence
    assert inc.indptr.tolist() == [0, 2, 2, 5]
    assert inc.sets.tolist() == [0, 0, 2, 2, 2]
    assert inc.elements.tolist() == [3, 69, 0, 5, 64]
    assert inc.rows.shape == (3, 16)
    assert c.incidence is inc and inc.sets is inc.sets  # built once per collection
    assert c == Collection.of(70, [[3, 69], [], [0, 5, 64]])  # equality ignores it
    assert "incidence" not in repr(c)
    made = Collection(70, inc)  # from the record: its Subsets on first use, once
    assert "sets" not in vars(made) and made.m == 3
    assert made.sets == c.sets and made.sets is made.sets and repr(made) == repr(c)
    with pytest.raises(ValueError, match="record over ground set of size 70"):
        Collection(71, inc)


def test_conflict_graph_gathers_in_bounded_steps(monkeypatch):
    rng = random.Random(5)
    cases = drawn(rng, 300, 10)
    expected = [naive_conflict_graph(c) for c in cases]
    for budget in (1, 64, 1000):
        monkeypatch.setattr(invert, "GATHER_BYTES", budget)
        # a fresh collection, so no record survives from another budget
        assert [conflict_graph(Collection(c.n, c.sets)) for c in cases] == expected


def test_inverted_matches_inverts():
    rng = random.Random(6)
    for n in (1, 2, 9, 64, 65, 130):
        for c in drawn(rng, n, 5):
            image = list(range(n))
            rng.shuffle(image)
            p = Permutation(n, tuple(image))
            assert inverted(c, p).tolist() == [inverts(p, s) for s in c.sets]
    with pytest.raises(ValueError):
        inverted(Collection.of(3, [[0]]), Permutation(2, (1, 0)))


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 255, 256, 257, 65537])
def test_elements_match_iter_bits(width):
    rng = random.Random(width)
    for bits in (0, (1 << width) - 1, rng.getrandbits(width), 1 << max(width - 1, 0)):
        bits &= (1 << width) - 1
        assert Subset(width, bits).elements() == list(iter_bits(bits))


def test_witness_check_names_the_lowest_failing_set(tmp_path, capsys, monkeypatch):
    # a perfect matching that maps 0 <-> 1 and fixes 2 and 3: it inverts
    # {0} and {1} but neither {2} nor {3}
    c = Collection.of(4, [[0], [1], [2], [3]])
    monkeypatch.setattr(invert, "max_bipartite_matching", lambda adj, n: ([1, 0, 2, 3], [1, 0, 2, 3]))
    with pytest.raises(RuntimeError, match="matching postcondition violated: permutation fails set 2$"):
        decide_invertible(c)
    f = tmp_path / "c.txt"
    f.write_text(serialize_collection(c))
    assert cli.main(["invert", "--input", str(f)]) == 4
    assert "internal error: matching postcondition violated" in capsys.readouterr().err


# Mutations of a valid file, one per kind of input the format allows or
# refuses; each takes the file's lines (header first) and returns new lines.
def _set_line(rng, lines):
    """Index of a random set line still as the writer wrote it."""
    candidates = [i for i, line in enumerate(lines[1:], 1) if re.fullmatch(r"[0-9]+( [0-9]+)*", line)]
    return rng.choice(candidates) if candidates else None


def _at_set(change):
    def mutate(rng, lines, n):
        i = _set_line(rng, lines)
        if i is not None:
            tokens = lines[i].split(" ")
            lines[i] = " ".join(change(rng, tokens, n))
        return lines

    return mutate


def _replace_token(make):
    def change(rng, tokens, n):
        k = rng.randrange(len(tokens))
        tokens[k] = make(rng, tokens[k], n)
        return tokens

    return change


def _duplicate(rng, tokens, n):
    tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(tokens))
    return tokens


def _blanks(rng, lines, n):
    i = rng.randrange(len(lines)) if lines else None
    if i is not None:
        blank = lambda: rng.choice(["\t", "  ", " \t ", "\t\t", "   "])
        pad = lambda: rng.choice(["", " ", "\t", " \t "])
        lines[i] = pad() + re.sub(" ", lambda _: blank(), lines[i]) + pad()
    return lines


def _comment_or_blank_line(rng, lines, n):
    extra = rng.choice(["", "   ", "\t", "# note", "  # indented", "#", "#0 1", "\t#x y z", "#3 3"])
    lines.insert(rng.randrange(len(lines) + 1), extra)
    return lines


def _header_zeros(rng, lines, n):
    lines[0] = "0" * rng.randrange(1, 25) + lines[0]
    return lines


def _two_token_header(rng, lines, n):
    lines[0] = rng.choice([f"{n} {n}", f"{n} 0", f"{n}\t1", f"{n} #"])
    return lines


# Applied in this order: edits inside one set line, then the header, then
# whole lines, so each edit finds the fields it expects.
MUTATIONS = {
    "leading zeros": _at_set(_replace_token(lambda rng, t, n: "0" * rng.randrange(1, 25) + t)),
    "element equal to n": _at_set(_replace_token(lambda rng, t, n: str(n))),
    "element past n": _at_set(_replace_token(lambda rng, t, n: str(n + rng.randrange(1, 10**20)))),
    "duplicate element": _at_set(_duplicate),
    "non-digit token": _at_set(
        _replace_token(lambda rng, t, n: rng.choice(["x", "1.5", "0x3", "#", "1e3", "a1", t + "#", "0b1"]))
    ),
    "header leading zeros": _header_zeros,
    "two-token header": _two_token_header,
    "header only": lambda rng, lines, n: lines[:1],
    "empty file": lambda rng, lines, n: [],
    "tabs and runs of spaces": _blanks,
    "comment or blank line": _comment_or_blank_line,
}


def _corpus(rng):
    """(kinds, text) pairs: mutated files of small random collections."""
    for trial in range(1500):
        n = trial % 12
        c = Collection(n, tuple(Subset(n, rng.getrandbits(n) or 1) for _ in range(rng.randrange(5) if n else 0)))
        lines = serialize_collection(c).splitlines()
        kinds = rng.sample(list(MUTATIONS), rng.choice([1, 1, 2, 3]))
        for kind in sorted(kinds, key=list(MUTATIONS).index):
            lines = MUTATIONS[kind](rng, lines, n)
        ending = rng.choice(["\n", "\r\n"])
        yield kinds, ending.join(lines) + rng.choice([ending, ""])


def test_mutated_files_parse_as_the_oracle_parses_them():
    seen = {kind: set() for kind in MUTATIONS}
    for kinds, text in _corpus(random.Random(3)):
        expected = parsed(naive_parse_collection, text)
        assert parsed(parse_collection, text) == expected, (kinds, text)
        if len(kinds) == 1:
            seen[kinds[0]].add(isinstance(expected, Collection))
    # alone, these keep a file valid, and every other kind can break one
    valid = {"leading zeros", "header leading zeros", "header only", "tabs and runs of spaces",
             "comment or blank line"}
    assert all(seen[kind] == {True} for kind in valid), seen
    assert all(False in seen[kind] for kind in MUTATIONS.keys() - valid), seen


def test_the_first_fault_in_file_order_wins():
    text = "# c\n5\n0 1\n2 2 x\n9\n"
    assert parsed(parse_collection, text) == parsed(naive_parse_collection, text) == "line 4: duplicate element 2"
    text = "3\n0 1\n\n1 x 1 7\n"
    assert parsed(parse_collection, text) == parsed(naive_parse_collection, text) == "line 4: non-integer token 'x'"
    text = "8\n0 1\n" + "7 " * 9 + "\n"  # nine copies of one element
    assert parsed(parse_collection, text) == parsed(naive_parse_collection, text) == "line 3: duplicate element 7"
    # a control character before a bad token is the first fault
    assert parsed(parse_collection, "3\n0\x01 x\n") == "line 2: control character"
    assert parsed(parse_collection, "3\n0 x\n\x01\n") == "line 2: non-integer token 'x'"


@pytest.mark.parametrize(
    "text",
    [
        "3\n0\u00a01\n",  # a no-break space between elements
        "3\n\u0661\n",  # ARABIC-INDIC DIGIT ONE as an element
        "\u0663\n0\n",  # ... and THREE as the header
        "# n\u2083\n3\n0\n",  # a non-ASCII comment
        "3\n0\x1f1\n",  # ASCII unit separator: a blank to str.split
        "3\n0 1\x0b2\n",  # vertical tab and file separator: line ends
        "3\n0\x1c1\n",  # to str.splitlines
        "3\x0c\n0\n",  # form feed: a blank to str.strip
        "3\r0 1\r",  # carriage returns without line feeds
        "3\n0\r1\n",
        "+3\n0\n",  # a sign or an underscore in a number
        "3\n+1\n",
        "3\n-0\n",
        "1_0\n0\n",
        "3\n0_1\n",
    ],
)
def test_only_exemptions_outside_the_ascii_grammar(text):
    # the deliberate narrowings: the oracle's int(), str.split, str.strip
    # and str.splitlines accept these; the file format is ASCII digits with
    # space and tab as blanks and '\n' or '\r\n' as line ends, and the
    # parser refuses the rest
    assert isinstance(naive_parse_collection(text), Collection)
    with pytest.raises(FormatError):
        parse_collection(text)


def test_permutation_files_parse_as_the_oracle_parses_them():
    # the permutation file is read with the collection file's token scan
    # and decimal reader: the same accepted text, faults and messages as
    # the token-by-token original on files inside the ASCII grammar
    rng = random.Random(5)
    edits = [
        lambda line: "# note\n" + line,
        lambda line: line + "\n\n  \n#0 1",
        lambda line: "\t" + line.replace(" ", rng.choice(["\t", "   ", " \t "])) + " ",
        lambda line: line.replace(" ", " 000", 1),
        lambda line: line + " " + line.split()[0],  # a repeated value
        lambda line: line + " " + str(len(line.split())),  # the value n
        lambda line: line + " " + "9" * 25,
        lambda line: line.replace(" ", " x", 1),
        lambda line: line + "\n" + line,  # two data lines
        lambda line: "",
        lambda line: "# only a comment",
    ]
    for trial in range(400):
        image = list(range(rng.randrange(1, 12)))
        rng.shuffle(image)
        line = serialize_permutation(Permutation(len(image), tuple(image))).strip() or "0"
        for edit in rng.sample(edits, rng.choice([0, 1, 2])):
            line = edit(line)
        text = line.replace("\n", rng.choice(["\n", "\r\n"])) + rng.choice(["\n", "\r\n", ""])
        assert parsed(parse_permutation, text) == parsed(naive_parse_permutation, text), text
    for text in ("\n", "# c\n\r\n"):
        assert parse_permutation(text) == naive_parse_permutation(text) == Permutation(0, ())
    # the narrowings of the collection file hold here too
    for text in ("1 \u0660\n", "1\u00a00\n", "+1 0\n", "1 -0\n", "1 0_0\n", "1\x1f0\n", "1 0\r"):
        assert isinstance(naive_parse_permutation(text), Permutation)
        with pytest.raises(FormatError):
            parse_permutation(text)


def test_elements_past_2_63_are_refused():
    # the oracle cannot hold such a set; the parser refuses it as input
    big = "9223372036854775808"
    with pytest.raises(FormatError, match=f"line 2: element {big} at or above 2"):
        parse_collection(f"{big}1\n{big}\n")
    with pytest.raises(FormatError, match=f"line 2: element {big} outside"):
        parse_collection(f"5\n0 {big}\n")
    assert parse_collection(f"{big}\n{'0' * 40}7\n").sets[0].elements() == [7]
    # leading zeros are accepted at any length, past int()'s default digit cap
    assert parse_collection("0" * 5000 + "3\n" + "0" * 5000 + "2\n").sets[0].elements() == [2]
    wide = "1" * 5000 + "\n0\n"  # a header int() cannot read is refused as the oracle refuses it
    assert parsed(parse_collection, wide) == parsed(naive_parse_collection, wide)


def test_sets_span_parse_blocks(monkeypatch):
    rng = random.Random(8)
    c = Collection(300, tuple(s for d in drawn(rng, 300, 6) for s in d.sets))
    text = "# comment\n" + serialize_collection(c).replace("\n", "\r\n")
    for size in (1, 7, 100, 4096):
        monkeypatch.setattr(setcore, "_PARSE_BLOCK", size)
        assert parse_collection(text) == c
        bad = text.replace("\r\n", "\r\n0 0\r\n", 5)
        assert parsed(parse_collection, bad) == parsed(naive_parse_collection, bad)


def test_sets_span_write_blocks(monkeypatch):
    rng = random.Random(9)
    c = Collection(2000, tuple(s for d in drawn(rng, 2000, 6) for s in d.sets))
    for size in (1, 7, 100):
        monkeypatch.setattr(setcore, "_WRITE_BLOCK", size)
        assert serialize_collection(c, ("note",)) == naive_serialize_collection(c, ("note",))


def test_write_holds_a_few_copies_of_its_text():
    fam = pack.construct_packing(400, "1/2")  # 12,769 blocks
    c = Collection(fam.n, fam.blocks)
    c.incidence  # the record is the collection's, built before the writer runs
    tracemalloc.start()
    try:
        text = serialize_collection(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text)  # the byte buffer, its string and the joined text


def test_parse_holds_no_more_memory_than_the_oracle():
    text = pack.serialize_family(pack.construct_packing(400, "1/2"))  # 12,769 blocks

    def peak(parse):
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_collection) <= peak(naive_parse_collection)


GROUP_EDGES = (9_999, 10_000, 10_001, 10**8 - 1, 10**8 + 1, 1 << 63)
EDGE_ELEMENTS = (0, 9_999, 10_000, 10**8 - 1, 10**8, (1 << 63) - 1)


@pytest.mark.parametrize("n", GROUP_EDGES)
def test_digit_group_edges_match_the_oracles(n):
    # the writer writes base-10^4 groups: inner groups keep their zeros and
    # groups above the first digit are dropped; the reader takes the text
    # back with CRLF line ends, comment lines and 20-odd leading zeros
    below = [x for x in EDGE_ELEMENTS if x < n]
    sets = [below, below[::-2], below[-1:], below[:1]]
    c = Collection.of(n, sets)
    text = serialize_collection(c, ("edges",))
    assert text == f"# edges\n{n}\n" + "".join(" ".join(map(str, sorted(s))) + "\n" for s in sets)
    assert write_collection(c, ("edges",)) == text.encode()
    # the oracles hold a set as one Python int of n bits: not at n = 2^63
    oracle = n <= 10**8 + 1
    if oracle:
        assert text == naive_serialize_collection(c, ("edges",))
    crlf = text.replace("\n", "\r\n")
    commented = text.replace("\n", "\n# note 1 2\n#\n", 2)
    padded = f"{n}\n" + "".join(" ".join("0" * 22 + str(x) for x in s) + "\n" for s in sets)  # and unsorted
    for variant in (text, crlf, commented, padded, padded.replace(" ", "\t  ")):
        assert parse_collection(variant) == parse_collection(variant.encode()) == c
        if oracle:
            assert naive_parse_collection(variant) == c


@pytest.mark.parametrize("token", ["9223372036854775808", "9999999999999999999", "18446744073709551616",
                                   "0" * 30 + "9223372036854775808"])
def test_tokens_at_or_above_2_63_are_refused_with_their_digits(token):
    # 19 digits are read as uint64, which does not wrap: a token at or
    # above 2^63 is refused, never taken for a smaller element
    digits = token.lstrip("0")
    with pytest.raises(FormatError, match=re.escape(f"line 2: element {digits} outside [0, {1 << 63})")):
        parse_collection(f"{1 << 63}\n{token}\n")
    with pytest.raises(FormatError, match=re.escape(f"line 4: element {digits} at or above 2^63")):
        parse_collection(f"{10**30}\r\n# c\r\n0\r\n1 {token} 2\r\n")


def test_parsers_take_any_bytes_like():
    files = [(parse_collection, "# c\n5\n0 4\n3\n", Collection.of(5, [[0, 4], [3]])),
             (parse_permutation, "1 0\r\n", Permutation(2, (1, 0))),
             (qcube.parse_cube_edges, "2\n00 1\n", qcube.CubeEdgeSet.of(2, [(0, 1)]))]
    for parse, text, value in files:
        for data in (text, text.encode(), bytearray(text.encode()), memoryview(text.encode())):
            assert parse(data) == value
    assert parse_collection(memoryview(files[0][1].encode()).cast("I")) == files[0][2]  # 4-byte items
    for data in ("4\n0 \u00e9\n", "4\n0 \u00e9\n".encode(), b"4\n0 \xff\n"):
        with pytest.raises(FormatError, match="collection files are ASCII"):
            parse_collection(data)
        with pytest.raises(FormatError, match="collection files are ASCII"):
            pack.parse_family(data, "1/2")


def test_the_reader_holds_one_block_at_a_time(monkeypatch):
    # read_lines lets go of each Lines it gave once the next one comes, and
    # each parser lets go of it before the next block is scanned
    fam, m = pack.construct_packing(28, "1/2"), qcube.recursive_blocking_set(6)
    for text in (serialize_collection(fam), qcube.serialize_cube_edges(m)):
        given = []
        for lines in setcore.read_lines(text, "line", 64, "the header"):
            assert all(ref() is None for ref in given)
            given.append(weakref.ref(lines))
        assert len(given) > 5
    made = []

    class Lines(setcore.Lines):
        def __init__(self, *args):
            assert all(ref() is None for ref in made), "an earlier block is still held"
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(setcore, "Lines", Lines)
    monkeypatch.setattr(setcore, "_PARSE_BLOCK", 64)
    monkeypatch.setattr(qcube, "_EDGE_BLOCK", 64)
    assert pack.parse_family(pack.serialize_family(fam)) == fam and len(made) > 5
    made.clear()
    # CRLF line ends: a file that the cube parser reads by tokens, not by decoding the writer's lines
    assert qcube.parse_cube_edges(qcube.serialize_cube_edges(m).replace("\n", "\r\n")) == m and len(made) > 5


def test_a_fresh_import_builds_no_digit_table():
    # the writer's table is built on the first write, so importing setpack
    # costs no more than before
    code = ("from setpack import setcore\n"
            "assert setcore._digit_table.cache_info().currsize == 0\n"
            "setcore.write_collection(setcore.Collection.of(3, [[0, 2]]))\n"
            "assert setcore._digit_table.cache_info().currsize == 1\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
