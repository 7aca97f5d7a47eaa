import json
import random
import sys
import time
import tracemalloc

import pytest

from setpack import Collection, cli, invert, kappa, pack, qcube, setcore
from setpack.cli import dump_json, exact_int_output, main, parse_ratio

from oracles import naive_no_three_checks, naive_verify_packing
from fractions import Fraction


@pytest.fixture(autouse=True)
def documents_as_the_encoder_writes_them(monkeypatch):
    # every --json document written in these tests is json.dumps(doc, indent=2)
    def checked(doc):
        text = dump_json(doc)
        assert text == json.dumps(doc, indent=2), doc
        return text

    monkeypatch.setattr(cli, "dump_json", checked)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_parse_ratio():
    assert parse_ratio("1/3") == Fraction(1, 3)
    assert parse_ratio("0.25") == Fraction(1, 4)
    assert parse_ratio("0.333333") == Fraction(333333, 10**6)  # exact already
    assert parse_ratio("0.3333333333333333") == Fraction(1, 3)  # den capped at 1e6
    with pytest.raises(Exception):
        parse_ratio("x")


def test_invert_positive(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("4\n0 1\n2 3\n")
    code, out = run(capsys, "invert", "--input", str(f))
    assert code == 0
    perm = [int(t) for t in out.splitlines()[0].split()]
    assert sorted(perm) == [0, 1, 2, 3]
    assert "verified" in out


def test_invert_negative(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("4\n0 1\n0 2\n0 3\n")
    code, out = run(capsys, "invert", "--input", str(f))
    assert code == 1
    assert out.startswith("NOT INVERTIBLE")


def test_invert_bad_file(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("4\n0 9\n")
    code, _ = run(capsys, "invert", "--input", str(f))
    assert code == 3
    code, _ = run(capsys, "invert", "--input", str(tmp_path / "missing.txt"))
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["invert", "--input"], "collection files are ASCII"),
        (["kappa", "--input"], "collection files are ASCII"),
        (["triple", "--input"], "collection files are ASCII"),
        (["pack", "verify", "--alpha", "1/2", "--input"], "collection files are ASCII"),
        (["pack", "no3", "--n", "240", "--k", "6", "--rs"], "collection files are ASCII"),
        (["cube", "verify", "--n", "2", "--edges"], "cube edge files are ASCII"),
    ],
    ids=["invert", "kappa", "triple", "pack-verify", "pack-no3-rs", "cube-verify"],
)
def test_file_that_is_not_utf8_exits_3(argv, message, tmp_path, capsys):
    # a malformed input file, not a usage error
    f = tmp_path / "bad.txt"
    f.write_bytes(b"2\n0 0\n\xff\n" if argv[0] == "cube" else b"4\n0 1\n\xff\n")
    assert main(argv + [str(f)]) == 3
    assert f"input error: {message}" in capsys.readouterr().err


def test_pack_verify_header_of_a_file_that_is_not_utf8(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"# packing alpha=1/2\n4\n0 1\n\xff\n")
    assert main(["pack", "verify", "--input", str(f)]) == 3
    assert "input error: collection files are ASCII" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["definitely-not-a-command"])
    assert e.value.code == 2


def test_triple(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("6\n0\n1\n2\n")
    code, out = run(capsys, "triple", "--input", str(f))
    assert code == 0 and "CONDITION HOLDS" in out

    f.write_text("4\n0 1\n0 2\n0 3\n")
    code, out = run(capsys, "triple", "--input", str(f))
    assert code == 1 and "CONDITION FAILS" in out


def test_sigma_lambda(capsys):
    code, out = run(capsys, "sigma", "6")
    assert code == 0 and out.strip() == "15"
    code, out = run(capsys, "lambda", "6", "3")
    assert code == 0 and out.strip() == "6"


HUGE = str(10**20)


@pytest.mark.parametrize("argv", [["sigma", HUGE], ["lambda", HUGE, "3"], ["--json", "sigma", HUGE], ["--json", "lambda", HUGE, "3"]])
def test_sigma_lambda_past_the_factorial_limit_are_usage_errors(capsys, argv):
    # math.factorial refuses arguments past 2^63 - 1; that is a usage error
    # (exit 2), never the negative result (exit 1) a traceback would give
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n = {HUGE} is too large to count exactly\n"


@pytest.mark.parametrize("argv", [["sigma", "1000000000"], ["lambda", "1000000000", "3"], ["lambda", "1000000000", "0"]])
def test_sigma_lambda_refuse_past_the_cap_before_counting(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: n = 1000000000 is too large to count exactly\n"


def test_sigma_lambda_cap_and_its_override(monkeypatch, capsys):
    monkeypatch.setattr(kappa, "DEFAULT_COUNT_LIMIT", 3000)
    assert main(["sigma", "3001"]) == 2
    assert "n = 3001 is too large" in capsys.readouterr().err
    code, out = run(capsys, "--limit", "3001", "sigma", "3001")
    assert code == 0 and len(out.strip()) > 4300
    # lambda N I is capped on N - I, and past floor(N/2) the count is 0
    code, out = run(capsys, "lambda", "3002", "2")
    assert code == 0 and len(out.strip()) > 4300
    assert main(["lambda", "3002", "1"]) == 2
    capsys.readouterr()
    assert run(capsys, "lambda", "10000000000", "5000000001") == (0, "0\n")


def test_sigma_lambda_beyond_int_digit_limit(capsys):
    # exact values longer than the interpreter's default int-to-str cap
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        sigma_digits = len(str(kappa.sigma(3000)))
        lambda_digits = len(str(kappa.lambda_simple(4000, 3)))
    finally:
        sys.set_int_max_str_digits(old)
    assert sigma_digits > old > 0

    code, out = run(capsys, "sigma", "3000")
    assert code == 0 and len(out.strip()) == sigma_digits
    code, out = run(capsys, "lambda", "4000", "3")
    assert code == 0 and len(out.strip()) == lambda_digits
    code, out = run(capsys, "--json", "sigma", "3000")
    assert code == 0
    assert len(out.split('"sigma": ')[1].split(",")[0]) == sigma_digits
    # the cap is back once the output is written
    assert sys.get_int_max_str_digits() == old


def test_limit_must_be_positive(capsys):
    for value in ("-1", "0", "x"):
        with pytest.raises(SystemExit) as e:
            main(["--limit", value, "cube", "build", "--n", "5"])
        assert e.value.code == 2
        assert "--limit" in capsys.readouterr().err
    code, out = run(capsys, "--limit", "4", "cube", "build", "--n", "5")
    assert code == 0 and "verification skipped (n over limit)" in out


def test_kappa(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("4\n0\n1\n2\n3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out = run(capsys, "kappa", "--input", str(f))
    assert code == 0
    assert "8/1 = 8" in out
    assert "inverts 8 of 10" in out

    code, out = run(capsys, "kappa", "--input", str(f), "--exhaustive", "--simple-only")
    assert code == 0 and "inverts 8 of 10" in out


def test_consecutive_calls_share_nothing(tmp_path, capsys):
    # the argument tree is built once per process; no call's options reach the next
    f = tmp_path / "c.txt"
    f.write_text("4\n0\n1\n2\n3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    _, exhaustive = run(capsys, "kappa", "--input", str(f), "--exhaustive")
    assert "exhaustive optimum:" in exhaustive
    code, plain = run(capsys, "kappa", "--input", str(f))
    assert code == 0
    assert "derandomized simple permutation: inverts 8 of 10" in plain
    assert "exhaustive" not in plain

    code, doc = run(capsys, "--json", "kappa", "--input", str(f))
    assert code == 0 and json.loads(doc)["inverted_count"] == 8
    code, text = run(capsys, "kappa", "--input", str(f))
    assert code == 0 and text == plain
    code, text = run(capsys, "sigma", "6")
    assert code == 0 and text == "15\n"


def test_internal_failure_exits_4(tmp_path, capsys, monkeypatch):
    f = tmp_path / "c.txt"
    f.write_text("4\n0\n1\n")

    def broken(col):
        raise RuntimeError("boom")

    monkeypatch.setattr(kappa, "find_simple_permutation", broken)
    assert main(["kappa", "--input", str(f)]) == 4
    assert "internal error: boom" in capsys.readouterr().err

    # a miscounting search fails the library's recount and bound check
    monkeypatch.setattr(kappa, "inverts", lambda p, s: False)
    assert main(["kappa", "--exhaustive", "--input", str(f)]) == 4
    assert "internal error: exhaustive optimum fails its recount" in capsys.readouterr().err


def test_pack_build_verify_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "fam.txt"
    code, out = run(
        capsys, "pack", "build", "--n", "28", "--alpha", "1/2", "--out", str(out_file)
    )
    assert code == 0
    assert "49 blocks" in out and "verification: pass" in out

    code, out = run(capsys, "pack", "verify", "--input", str(out_file))
    assert code == 0 and "verification: pass" in out

    # corrupt the family: duplicate first block
    text = out_file.read_text()
    lines = text.splitlines()
    lines.append(lines[2])
    out_file.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "pack", "verify", "--input", str(out_file))
    assert code == 1


def test_pack_build_checks_once_per_level(monkeypatch, capsys):
    calls = []
    real = pack.verify_packing

    def counted(f):
        calls.append(len(f.blocks))
        return real(f)

    monkeypatch.setattr(pack, "verify_packing", counted)
    for n, alpha in ((28, "1/2"), (10, "1/2"), (268, "1/2"), (152, "1/4")):
        calls.clear()
        code, out = run(capsys, "--json", "pack", "build", "--n", str(n), "--alpha", alpha)
        checked = list(calls)
        family, trace = pack.construct_packing_traced(n, Fraction(alpha))
        levels = []  # product levels are certified, not re-checked
        node = trace
        while node is not None:
            if node.q is None:  # base or fallback
                levels.append(node.size)
            node = node.sub
        assert code == 0 and checked == levels[::-1], (n, alpha, checked)
        doc = json.loads(out)
        oracle = naive_verify_packing(family)
        assert (doc["max_intersection"], doc["verified"]) == (oracle.max_intersection, oracle.ok)


def counted_records(monkeypatch) -> list:
    """The set counts of the incidence records built from now on."""
    built, real = [], setcore.Incidence.__init__

    def counted(self, n, indptr, elements):
        built.append(len(indptr) - 1)
        real(self, n, indptr, elements)

    monkeypatch.setattr(setcore.Incidence, "__init__", counted)
    return built


def test_pack_build_out_builds_one_incidence_per_family(monkeypatch, tmp_path, capsys):
    # each level's family is its record, which serves the level's check,
    # if any, and the writer; a certified product level needs none
    built = counted_records(monkeypatch)
    out = tmp_path / "fam.txt"
    # (28, 1/2): 7 checked singletons under 49 certified product blocks,
    # rendered from their 7 sub-blocks; (10, 1/2): 2 checked singletons,
    # whose record the fallback family shares
    for n, records in ((28, [7]), (10, [2])):
        built.clear()
        assert main(["pack", "build", "--n", str(n), "--alpha", "1/2", "--out", str(out)]) == 0
        assert built == records, n
    # a product level checked pair by pair, as when its certificate falls back
    monkeypatch.setattr(pack, "_certified_report", lambda family, *rest: pack.verify_packing(family))
    built.clear()
    assert main(["pack", "build", "--n", "28", "--alpha", "1/2", "--out", str(out)]) == 0
    assert built == [7, 49]


def test_pack_verify_accepts_huge_ground_size(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text(f"{1 << 24}\n0\n1\n")
    assert main(["pack", "verify", "--input", str(f), "--alpha", "1/2"]) == 0
    assert "pass: 1 pairs checked, max intersection 0 (blocks 0,1)" in capsys.readouterr().out


def test_pack_verify_malformed_header_alpha_exits_3(tmp_path, capsys):
    # the fault is in the file: exit 3, not a traceback (1/0) or a usage error (x)
    f = tmp_path / "fam.txt"
    for alpha in ("1/0", "x", ""):
        f.write_text(f"# packing n=4 alpha={alpha} c=1/4\n4\n0\n1\n")
        assert main(["pack", "verify", "--input", str(f)]) == 3, alpha
        assert f"input error: malformed alpha={alpha} in the family header" in capsys.readouterr().err
        with pytest.raises(setcore.FormatError):
            pack.parse_family(f.read_text())
        # an --alpha given on the command line takes the header's place
        assert main(["pack", "verify", "--input", str(f), "--alpha", "1/2"]) == 0
        capsys.readouterr()


def test_pack_verify_reads_the_structure_off_the_file(monkeypatch, tmp_path, capsys):
    # (400, 1/2): the pairwise check runs on the 113 sub-blocks alone, read
    # from the file's first 113 lines, and no incidence record is built:
    # the file is compared with their product's
    out = tmp_path / "fam.txt"
    assert main(["pack", "build", "--n", "400", "--alpha", "1/2", "--out", str(out)]) == 0
    capsys.readouterr()
    checked, real = [], pack._max_pair
    monkeypatch.setattr(pack, "_max_pair", lambda points, n: checked.append(len(points)) or real(points, n))
    built = counted_records(monkeypatch)
    code, text = run(capsys, "pack", "verify", "--input", str(out))
    assert code == 0 and (checked, built) == ([113], [])
    assert "pass: 81517296 pairs checked, max intersection 11 (blocks 0,1), threshold < 16" in text


def test_pack_verify_refuses_nonpositive_alpha(tmp_path, capsys):
    # a nonpositive alpha is bad input, not a claim that fails to verify
    f = tmp_path / "fam.txt"
    for alpha in ("-1/2", "0", "0/3"):
        f.write_text(f"# packing n=4 alpha={alpha} c=1/4\n4\n0\n1\n")
        assert main(["pack", "verify", "--input", str(f)]) == 3, alpha
        assert f"input error: nonpositive alpha={alpha} in the family header" in capsys.readouterr().err
        with pytest.raises(setcore.FormatError):
            pack.parse_family(f.read_text())
        assert main(["pack", "verify", "--input", str(f), "--alpha", "1/2"]) == 0
        capsys.readouterr()
    for alpha in ("0", "-1/2", "-0.5"):
        assert main(["pack", "verify", "--input", str(f), f"--alpha={alpha}"]) == 2, alpha
        assert "error: alpha must be positive" in capsys.readouterr().err
        with pytest.raises(ValueError, match="alpha must be positive"):
            pack.parse_family(f.read_text(), alpha)


def test_commands_build_no_subset_per_set(monkeypatch, tmp_path, capsys):
    # invert, kappa, pack build --out and pack verify read the record alone:
    # a Subset only per conflict-graph row, certificate or witness
    built, real = [], setcore.Subset.__post_init__
    monkeypatch.setattr(setcore.Subset, "__post_init__", lambda self: built.append(self.n) or real(self))
    rng = random.Random(17)
    n, m = 150, 1200
    for extra in ([], [list(range(n // 2 + 1))]):  # a witness, then a certificate
        f = tmp_path / "c.txt"
        f.write_text(setcore.serialize_collection(Collection.of(n, [rng.sample(range(n), rng.randint(1, 3)) for _ in range(m)] + extra)))
        built.clear()
        code, _ = run(capsys, "invert", "--input", str(f))
        assert code == (1 if extra else 0) and len(built) <= n + 2, len(built)
    built.clear()
    assert run(capsys, "kappa", "--input", str(f))[0] == 0 and built == []
    out = tmp_path / "fam.txt"
    assert run(capsys, "pack", "build", "--n", "1000", "--alpha", "1/8", "--out", str(out))[0] == 0  # 3,721 blocks
    assert run(capsys, "pack", "verify", "--input", str(out))[0] == 0
    assert built == []


def test_pack_no3(tmp_path, capsys):
    out_file = tmp_path / "no3.txt"
    code, out = run(
        capsys, "pack", "no3", "--n", "12", "--k", "3", "--out", str(out_file)
    )
    assert code == 0
    assert "3 sets of size 6" in out
    assert out_file.read_text().startswith("12\n")
    assert naive_no_three_checks(setcore.parse_collection(out_file.read_text())) == []


@pytest.fixture(scope="module")
def rs361(tmp_path_factory):
    """The 361 blocks of construct_packing(128, 1/3), shifted past the core
    [0, 114) of pack no3 --n 240 --k 6."""
    inc = pack.construct_packing(128, Fraction(1, 3)).incidence
    path = tmp_path_factory.mktemp("rs") / "rs361.txt"
    path.write_text(setcore.serialize_collection(Collection(240, setcore.Incidence(240, inc.indptr, inc.elements + 114))))
    return path


def no3_rs(capsys, rs, *extra, n="240", k="6"):
    code = main([*extra, "pack", "no3", "--n", n, "--k", k, "--rs", str(rs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pack_no3_rs(rs361, tmp_path, capsys):
    out_file = tmp_path / "no3.txt"
    code, out, _ = no3_rs(capsys, rs361)
    assert code == 0
    assert out.splitlines() == [
        "361 sets of size 120 on n=240; no 3-subcollection invertible, every 2-subcollection invertible",
        "verified: residue blocks meet in fewer than k/3 = 6/3 points: every triple fails the condition, every pair is half-size",
    ]
    code, out, _ = no3_rs(capsys, rs361, "--json")
    assert code == 0
    assert json.loads(out) == {"n": 240, "k": 6, "sets": 361, "set_size": 120, "verified": True, "exit_code": 0}
    code, out = run(capsys, "pack", "no3", "--n", "240", "--k", "6", "--rs", str(rs361), "--out", str(out_file))
    assert code == 0 and out.splitlines()[-1] == f"written to {out_file}"
    col = pack.no_three_invertible_family(240, 6, pack.parse_family(rs361.read_text(), Fraction(1, 3)))
    assert out_file.read_text() == setcore.serialize_collection(col)


def test_pack_no3_rs_is_checked_by_structure(rs361, monkeypatch, capsys):
    # relative to the core the residues are the (128, 1/3) packing, whose
    # structure certifies them; shifted past the core they have none
    shifted = pack.parse_family(rs361.read_text(), Fraction(1, 3))
    assert pack._structure_report(shifted) is None
    reports, real = [], pack._structure_report
    monkeypatch.setattr(pack, "_structure_report", lambda f: reports.append(real(f)) or reports[-1])
    assert no3_rs(capsys, rs361, "--json")[0] == 0
    assert len(reports) == 1 and reports[0] == naive_verify_packing(pack.construct_packing(128, Fraction(1, 3)))


def test_pack_no3_rs_faults(rs361, tmp_path, capsys):
    lines = rs361.read_text().splitlines(keepends=True)

    def edited(at):
        # at: line by block index; the file keeps its header line 0
        path = tmp_path / "rs.txt"
        path.write_text("".join(at.get(i - 1, line) for i, line in enumerate(lines)))
        return path

    for at, n, k, code, message in [
        ({}, "242", "6", 2, "error: residue family must live on the same ground set"),
        ({}, "240", "5", 2, "error: residue block 0 does not have cardinality 5"),
        ({4: "114 135\n"}, "240", "6", 2, "error: blocks must have equal cardinality"),
        ({7: lines[8].replace("114", "113")}, "240", "6", 2, "error: residue block 7 intrudes into the core [0, 114)"),
        ({10: lines[4]}, "240", "6", 2, "error: residue blocks 3,10 intersect in >= k/3 elements"),
        ({5: "114 x 156 177 198 219\n"}, "240", "6", 3, "input error: "),
        ({5: "114 135 156 177 198 240\n"}, "240", "6", 3, "input error: "),
    ]:
        got, out, err = no3_rs(capsys, edited(at), n=n, k=k)
        assert (got, out) == (code, "") and err.startswith(message), (at, n, k, err)


def test_pack_no3_rs_builds_no_subset(rs361, monkeypatch, tmp_path, capsys):
    built, real = [], setcore.Subset.__post_init__
    monkeypatch.setattr(setcore.Subset, "__post_init__", lambda self: built.append(self.n) or real(self))
    assert no3_rs(capsys, rs361, "--json")[0] == 0
    assert run(capsys, "pack", "no3", "--n", "240", "--k", "6", "--rs", str(rs361), "--out", str(tmp_path / "o.txt"))[0] == 0
    assert built == []


def test_pack_no3_rs_checks_no_triple_or_pair(rs361, capsys):
    # the residue check proves the claims: no triple or pair reaches invert
    watched, calls = {invert.check_triple.__code__, invert.decide_invertible.__code__}, []
    sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code in watched and calls.append(frame.f_code.co_name))
    try:
        code = no3_rs(capsys, rs361)[0]
    finally:
        sys.setprofile(None)
    assert code == 0 and calls == []


def test_pack_no3_rs_memory(rs361, tmp_path, capsys):
    tracemalloc.start()
    try:
        code, _ = run(capsys, "pack", "no3", "--n", "240", "--k", "6", "--rs", str(rs361), "--out", str(tmp_path / "o.txt"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 50 * 2**20, peak


def test_bounds_commands(capsys):
    code, out = run(capsys, "bounds", "optimum", "--alpha", "1/3")
    assert code == 0
    assert "optimal c = 0.0822194" in out
    assert "1.02451" in out

    code, out = run(capsys, "bounds", "lower", "--alpha", "1/3", "--c", "0.0825")
    assert code == 0 and "lower bound base: 1.02451" in out

    code, out = run(capsys, "bounds", "upper", "--alpha", "1/3", "--c", "0.0825")
    assert code == 0 and "1.06551" in out and "d'" in out

    code, out = run(capsys, "bounds", "upper", "--alpha", "1/4", "--c", "1/2")
    assert code == 0 and "size cap" in out and "3" in out


def test_bounds_lower_rejects_dense_regime(capsys):
    code = main(["bounds", "lower", "--alpha", "1/3", "--c", "0.5"])
    assert code == 2


def test_bounds_json(capsys):
    code, out = run(capsys, "--json", "bounds", "upper", "--alpha", "1/3", "--c", "0.0825")
    assert code == 0
    doc = json.loads(out)
    assert doc["base_upper"] == pytest.approx(1.06551, abs=1e-4)
    assert doc["exit_code"] == 0


def test_cube_build_verify(tmp_path, capsys):
    out_file = tmp_path / "m.txt"
    code, out = run(capsys, "cube", "build", "--n", "4", "--out", str(out_file))
    assert code == 0 and "verified square-blocking" in out

    code, out = run(capsys, "cube", "verify", "--n", "4", "--edges", str(out_file))
    assert code == 0 and "square-blocking" in out

    code, out = run(capsys, "cube", "build", "--n", "4", "--assist")
    assert code == 0 and "saved" in out

    # remove one edge: no longer blocking
    lines = out_file.read_text().splitlines()
    out_file.write_text("\n".join(lines[:-1]) + "\n")
    code, out = run(capsys, "cube", "verify", "--n", "4", "--edges", str(out_file))
    assert code == 1 and "NOT square-blocking" in out


def test_cube_verify_malformed_dimensions(tmp_path, capsys, monkeypatch):
    # the header and the limit are checked before any bit vector is built
    def refuse(n, edges):
        raise AssertionError(f"bit vectors of Q_{n} built before the header was checked")

    monkeypatch.setattr(qcube.CubeEdgeSet, "of", refuse)
    f = tmp_path / "m.txt"
    high_edge = "1" + "0" * 39 + " 0\n"  # vertex 2^39: 2^40 bits in the file's Q_40
    for text, n, code, message in (
        ("40\n", 40, 2, "exceeds square-check limit"),
        ("40\n" + high_edge, 40, 2, "exceeds square-check limit"),
        ("1000000\n", 5, 3, "file is for Q_1000000, not Q_5"),
        ("40\n" + high_edge, 5, 3, "file is for Q_40, not Q_5"),
        ("-3\n", 3, 3, "line 1: non-integer token '-3'"),  # the header is decimal digits only
        ("+3\n", 3, 3, "line 1: non-integer token '+3'"),
        ("1_0\n", 10, 3, "line 1: non-integer token '1_0'"),
    ):
        f.write_text(text)
        assert main(["cube", "verify", "--n", str(n), "--edges", str(f)]) == code
        assert message in capsys.readouterr().err


def test_cube_verify_decodes_written_files_as_tokens_read_them(tmp_path, capsys, monkeypatch):
    # the written file and its copies in other line shapes give what the
    # token path gives, byte for byte; only the written file is decoded
    path, written = tmp_path / "m.txt", tmp_path / "written.txt"
    assert main(["cube", "build", "--n", "11", "--assist", "--out", str(written)]) == 0
    capsys.readouterr()
    raw = written.read_bytes()
    head, body = raw.split(b"\n", 1)
    copies = {
        "written": raw,
        "CRLF": raw.replace(b"\n", b"\r\n"),
        "comment line": head + b"\n# Q_11\n" + body,
        "tab": raw.replace(b" ", b"\t", 1),
        "leading-zero direction": raw.replace(b" 10\n", b" 010\n", 1),
        "no final newline": raw[:-1],
        "header for another n": b"12\n" + body,
        "an edge short": raw[: raw.rindex(b"\n", 0, -1) + 1],  # no longer blocking
    }
    assert len(set(copies.values())) == len(copies)
    token_path = lambda raw: None

    def verify(n, decode):
        monkeypatch.setattr(qcube, "decode_cube_edges", decode)
        runs = []
        for flags in ([], ["--json"]):
            code = main([*flags, "cube", "verify", "--n", str(n), "--edges", str(path)])
            runs.append((code, *capsys.readouterr()))
        return runs

    decode, codes = qcube.decode_cube_edges, set()
    for what, data in copies.items():
        path.write_bytes(data)
        for n in (11, 12):
            runs = verify(n, decode)
            assert runs == verify(n, token_path), (what, n)
            codes.add(runs[0][0])
    assert codes == {0, 1, 3}

    def refuse(*args):
        raise AssertionError("a written file reached the token reader")

    monkeypatch.setattr(qcube, "read_lines", refuse)
    path.write_bytes(raw)
    assert verify(11, decode)[0] == (0, "5039 edges: square-blocking\n", "")


def test_dump_json_edge_cases():
    docs = [
        {},
        {"empty": [], "none": None, "yes": True, "no": False, "float": 0.1, "nan": float("nan"), "inf": float("-inf")},
        {"quoted": 'say "a, b" \\ [c] {d}', "list": [None, True, False, -1, 2.5, 10**20]},
        {"strings": ["a, b", "c"]},  # the encoder's own path from here on
        {"nested": [[1, 2], []]},
        {"dict": {"a": [1]}},
        {"empty dict": {}},
        {1: "int key"},
        {"tuple": (1, 2), "big": -(10**4400), "bigs": [10**4301, 0]},
    ]
    with exact_int_output():
        for doc in docs:
            assert dump_json(doc) == json.dumps(doc, indent=2), doc
        assert len(dump_json({"big": 10**4400})) > 4400


@pytest.mark.parametrize("argv", [
    ["invert", "--input", "{positive}"], ["invert", "--input", "{negative}"], ["triple", "--input", "{triple}"],
    ["sigma", "6"], ["lambda", "6", "3"], ["kappa", "--input", "{positive}"],
    ["kappa", "--input", "{positive}", "--exhaustive"], ["pack", "build", "--n", "28", "--alpha", "1/2"],
    ["pack", "verify", "--input", "{family}"], ["pack", "no3", "--n", "12", "--k", "3"],
    ["bounds", "lower", "--alpha", "1/3"], ["bounds", "upper", "--alpha", "1/3", "--c", "1/2"],
    ["bounds", "optimum", "--alpha", "1/3"], ["cube", "build", "--n", "6", "--assist"],
    ["cube", "verify", "--n", "6", "--edges", "{edges}"],
], ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")))
def test_every_command_document(argv, monkeypatch, tmp_path, capsys):
    # each command's --json document goes through dump_json (checked by the
    # fixture above); only the text output writes the permutation's line
    files = {"positive": "4\n0 1\n2 3\n", "negative": "4\n0 1\n0 2\n0 3\n", "triple": "6\n0\n1\n2\n",
             "family": pack.serialize_family(pack.construct_packing(28, Fraction(1, 2)))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    main(["cube", "build", "--n", "6", "--out", str(tmp_path / "edges")])
    capsys.readouterr()
    argv = [a.format(**{name: tmp_path / name for name in [*files, "edges"]}) for a in argv]
    lines, real = [], setcore.serialize_permutation
    monkeypatch.setattr(setcore, "serialize_permutation", lambda p: lines.append(real(p)) or lines[-1])
    code, text = run(capsys, *argv)
    written = lines[:]
    lines.clear()
    json_code, doc = run(capsys, "--json", *argv)
    doc = json.loads(doc)
    assert doc["exit_code"] == code == json_code and not lines
    assert written == ([real(setcore.Permutation(len(doc["permutation"]), tuple(doc["permutation"])))]
                       if "permutation" in doc else [])
    assert all(line.strip() in text.splitlines() for line in written)


def test_deterministic_output(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("6\n0 1 2\n3 4\n5\n")
    _, out1 = run(capsys, "kappa", "--input", str(f))
    _, out2 = run(capsys, "kappa", "--input", str(f))
    assert out1 == out2
    _, j1 = run(capsys, "--json", "bounds", "optimum", "--alpha", "1/3")
    _, j2 = run(capsys, "--json", "bounds", "optimum", "--alpha", "1/3")
    assert j1 == j2
