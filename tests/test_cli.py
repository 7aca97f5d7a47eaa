import json
import sys

import pytest

from setpack import kappa, pack, qcube
from setpack.cli import main, parse_ratio
from setpack.setcore import Permutation

from oracles import naive_verify_packing
from fractions import Fraction


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


def test_internal_failure_exits_4(tmp_path, capsys, monkeypatch):
    f = tmp_path / "c.txt"
    f.write_text("4\n0\n1\n")

    def broken(col):
        raise RuntimeError("boom")

    monkeypatch.setattr(kappa, "find_simple_permutation", broken)
    assert main(["kappa", "--input", str(f)]) == 4
    assert "internal error: boom" in capsys.readouterr().err

    # a miscounting search fails the command's own recount
    monkeypatch.setattr(kappa, "find_simple_permutation", lambda col: (Permutation.identity(4), 2))
    assert main(["kappa", "--input", str(f)]) == 4
    assert "internal error: self-check failed" in capsys.readouterr().err


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
        levels = []
        node = trace
        while node is not None:
            levels.append(node.size)
            node = node.sub
        assert code == 0 and checked == levels[::-1], (n, alpha, checked)
        doc = json.loads(out)
        oracle = naive_verify_packing(family)
        assert (doc["max_intersection"], doc["verified"]) == (oracle.max_intersection, oracle.ok)


def test_pack_verify_accepts_huge_ground_size(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text(f"{1 << 24}\n0\n1\n")
    assert main(["pack", "verify", "--input", str(f), "--alpha", "1/2"]) == 0
    assert "pass: 1 pairs checked, max intersection 0 (blocks 0,1)" in capsys.readouterr().out


def test_pack_no3(tmp_path, capsys):
    out_file = tmp_path / "no3.txt"
    code, out = run(
        capsys, "pack", "no3", "--n", "12", "--k", "3", "--out", str(out_file)
    )
    assert code == 0
    assert "3 sets of size 6" in out
    assert out_file.read_text().startswith("12\n")


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
        ("-3\n", 3, 3, "dimension -3"),
    ):
        f.write_text(text)
        assert main(["cube", "verify", "--n", str(n), "--edges", str(f)]) == code
        assert message in capsys.readouterr().err


def test_deterministic_output(tmp_path, capsys):
    f = tmp_path / "c.txt"
    f.write_text("6\n0 1 2\n3 4\n5\n")
    _, out1 = run(capsys, "kappa", "--input", str(f))
    _, out2 = run(capsys, "kappa", "--input", str(f))
    assert out1 == out2
    _, j1 = run(capsys, "--json", "bounds", "optimum", "--alpha", "1/3")
    _, j2 = run(capsys, "--json", "bounds", "optimum", "--alpha", "1/3")
    assert j1 == j2
