"""Command-line entry point.

Exit codes: 0 positive result, 1 negative result (not invertible,
verification failed, condition violated), 2 usage error, 3 unreadable or
malformed input file, 4 internal failure (a library self-check failed or
memory ran out).  Output is deterministic: floats at 6 significant
digits, exact rationals as p/q; --json emits one document with the same
values.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from math import ceil

from . import bounds, invert, kappa, pack, qcube, setcore

MAX_RATIO_DENOMINATOR = 10**6


def fmt(x: float) -> str:
    return f"{x:.6g}"


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def parse_ratio(text: str) -> Fraction:
    """P/Q literally; a decimal becomes the nearest fraction with
    denominator at most 10^6."""
    try:
        if "/" in text:
            return Fraction(text)
        return Fraction(text).limit_denominator(MAX_RATIO_DENOMINATOR)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a ratio: {text!r}") from None


def positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


@contextmanager
def exact_int_output():
    """Lift the interpreter's cap on int-to-decimal conversion (4300 digits
    by default; absent before Python 3.10.7) while exact results are
    written, and restore it afterwards.  Input parsing keeps the cap."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _read(path: str) -> bytes:
    # the parsers read bytes and refuse any that are not ASCII (exit 3)
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, chunks):
    # each chunk is written as the iterable makes it
    with open(path, "wb") as fh:
        fh.writelines(chunks)


class Outcome:
    def __init__(self):
        self.lines: list[str] = []
        self.doc: dict = {}
        self.code = 0

    def say(self, line: str):
        self.lines.append(line)


def _cmd_invert(args, out: Outcome):
    col = setcore.parse_collection(_read(args.input))
    result = invert.decide_invertible(col)
    if result.invertible:
        perm = result.matched
        if not args.json:
            out.say(setcore.serialize_permutation(perm).strip())
        out.say(f"verified: permutation inverts all {col.m} sets")
        out.doc = {
            "invertible": True,
            "permutation": list(perm.image),
            "sets_verified": col.m,
        }
    else:
        cert = result.certificate
        nbhd = result.neighbourhood.cardinality()
        out.say("NOT INVERTIBLE")
        out.say(" ".join(map(str, cert.elements())))
        out.say(
            f"verified: certificate has {cert.cardinality()} vertices but "
            f"only {nbhd} neighbours"
        )
        out.doc = {
            "invertible": False,
            "certificate": cert.elements(),
            "certificate_size": cert.cardinality(),
            "neighbourhood_size": nbhd,
        }
        out.code = 1


def _cmd_triple(args, out: Outcome):
    col = setcore.parse_collection(_read(args.input))
    ok = invert.check_triple(col)
    a, b = invert.triple_intersection_sizes(col)
    k = col.sets[0].cardinality()
    out.say(f"|S1^S2^S3| = {a}, |~S1^~S2^~S3| = {b}, slack 3(n-2k)/2 = {3 * (col.n - 2 * k)}/2")
    out.say("CONDITION HOLDS" if ok else "CONDITION FAILS")
    out.doc = {"holds": ok, "triple_intersection": a, "complement_intersection": b}
    out.code = 0 if ok else 1


def _cmd_sigma(args, out: Outcome):
    value = kappa.sigma(args.n, args.limit or kappa.DEFAULT_COUNT_LIMIT)
    with exact_int_output():
        out.say(str(value))
    out.doc = {"n": args.n, "sigma": value}


def _cmd_lambda(args, out: Outcome):
    value = kappa.lambda_simple(args.n, args.i, args.limit or kappa.DEFAULT_COUNT_LIMIT)
    with exact_int_output():
        out.say(str(value))
    out.doc = {"n": args.n, "i": args.i, "lambda": value}


def _cmd_kappa(args, out: Outcome):
    col = setcore.parse_collection(_read(args.input))
    profile = kappa.SizeProfile.from_collection(col)
    bound = kappa.kappa_lower_bound(profile)
    oversized = kappa.oversized_count(col)
    out.say(f"lower bound: {frac_str(bound)} = {fmt(float(bound))}")
    if oversized:
        out.say(f"note: {oversized} sets exceed floor(n/2) and can never be inverted")
    if args.exhaustive:
        perm, count = kappa.exhaustive_kappa(col, args.simple_only, args.limit or kappa.DEFAULT_EXHAUSTIVE_LIMIT)
        label = "exhaustive optimum (simple only)" if args.simple_only else "exhaustive optimum"
    else:
        perm, count = kappa.find_simple_permutation(col)
        label = "derandomized simple permutation"
    if not args.json:
        out.say(setcore.serialize_permutation(perm).strip())
    out.say(f"{label}: inverts {count} of {col.m} sets")
    # both searches recount their answer and raise below ceil(bound)
    out.say(f"verified: recount == count, count >= ceil(bound) = {ceil(bound)}")
    out.doc = {
        "bound": frac_str(bound),
        "bound_float": float(bound),
        "oversized_sets": oversized,
        "permutation": list(perm.image),
        "inverted_count": count,
    }


def _cmd_pack_build(args, out: Outcome):
    family, trace = pack.construct_packing_traced(args.n, args.alpha)
    # the construction's certificate or check; its prime q and distinct coefficients
    # leave no two blocks sharing two sub-blocks, and other levels have none
    report = trace.report
    out.say(
        f"built {family.m} blocks of size {family.block_size} "
        f"on n={family.n} (requested {args.n}), c = {frac_str(family.achieved_c)}"
    )
    out.say(f"verification: {report.summary()}")
    out.say("shared-constituent violations: 0")
    out.doc = {
        "n_requested": args.n,
        "n_used": family.n,
        "alpha": frac_str(family.declared_alpha),
        "achieved_c": frac_str(family.achieved_c),
        "blocks": family.m,
        "block_size": family.block_size,
        "max_intersection": report.max_intersection,
        "verified": report.ok,
        "shared_constituent_violations": 0,
    }
    if args.out:  # streamed: the top level's record is never gathered
        _write(args.out, pack.family_chunks(family))
        out.say(f"written to {args.out}")


def _cmd_pack_verify(args, out: Outcome):
    with open(args.input, "rb") as fh:  # OSError: exit 3, as from _read
        family, report = pack.verify_family_file(fh, args.alpha)
    out.say(f"{family.m} blocks of size {report.block_size} on n={family.n}")
    out.say(f"verification: {report.summary()}")
    if not report.distinct:
        out.say("failure: duplicate blocks")
    out.doc = {
        "blocks": family.m,
        "alpha": frac_str(family.declared_alpha),
        "max_intersection": report.max_intersection,
        "threshold": frac_str(report.threshold),
        "pairs_checked": report.pairs_checked,
        "verified": report.ok,
    }
    out.code = 0 if report.ok else 1


def _cmd_pack_no3(args, out: Outcome):
    if args.rs:
        rs = pack.parse_family(_read(args.rs), Fraction(1, 3))
    else:
        rs = pack.residue_family(args.n, args.k)
    col = pack.no_three_invertible_family(args.n, args.k, rs)
    out.say(
        f"{col.m} sets of size {col.n // 2} on n={col.n}; "
        f"no 3-subcollection invertible, every 2-subcollection invertible"
    )
    out.say(
        f"verified: residue blocks meet in fewer than k/3 = {args.k}/3 points: "
        f"every triple fails the condition, every pair is half-size"
    )
    out.doc = {
        "n": col.n,
        "k": args.k,
        "sets": col.m,
        "set_size": col.n // 2,
        "verified": True,
    }
    if args.out:
        _write(args.out, [setcore.write_collection(col)])
        out.say(f"written to {args.out}")


def _bounds_doc(report: bounds.BoundReport) -> dict:
    doc = report.as_dict()
    return {k: (v if not isinstance(v, float) else float(fmt(v))) for k, v in doc.items()}


def _cmd_bounds_lower(args, out: Outcome):
    alpha = float(args.alpha)
    c = float(args.c) if args.c is not None else None
    if c is not None and c > alpha:
        raise ValueError("the counting lower bound needs c <= alpha; see 'bounds upper'")
    report = bounds.bound_report(alpha, c)
    out.say(f"alpha = {frac_str(args.alpha)}, c = {fmt(report.c)}")
    out.say(f"log lower bound per element: {fmt(report.log_lower_per_n)}")
    out.say(f"lower bound base: {fmt(report.base_lower)}")
    out.doc = _bounds_doc(report)


def _cmd_bounds_upper(args, out: Outcome):
    alpha = float(args.alpha)
    c = float(args.c)
    report = bounds.bound_report(alpha, c)
    out.say(f"alpha = {frac_str(args.alpha)}, c = {fmt(c)}")
    if report.ub_small_c is not None:
        out.say(f"size cap (c > alpha): {fmt(report.ub_small_c)}")
    else:
        out.say(f"log upper bound per element: {fmt(report.log_upper_per_n)} + o(1)")
        out.say(f"upper bound base: {fmt(report.base_upper)} + o(1)")
        out.say(f"minimizing endpoint d' = {fmt(report.d_prime_used)} ({report.d_prime_label})")
    out.doc = _bounds_doc(report)


def _cmd_bounds_optimum(args, out: Outcome):
    alpha = float(args.alpha)
    report = bounds.bound_report(alpha, None)
    out.say(f"alpha = {frac_str(args.alpha)}")
    out.say(f"optimal c = {fmt(report.c_star)}")
    out.say(f"lower bound base at optimum: {fmt(report.base_lower)}")
    out.doc = _bounds_doc(report)


def _cmd_cube_build(args, out: Outcome):
    limit = args.limit or qcube.DEFAULT_SQUARE_LIMIT
    if args.assist:
        m, saved = qcube.inversion_assisted_blocking(args.n, limit)
        out.say(f"assisted blocking set for Q_{args.n}: {len(m)} edges (saved {saved})")
    else:
        m = qcube.recursive_blocking_set(args.n, limit)
        saved = None
        out.say(f"blocking set for Q_{args.n}: {len(m)} edges")
    bound = (args.n - 1) * (1 << (args.n - 2))
    verified = args.n <= limit
    out.say(f"size ceiling (n-1)*2^(n-2) = {bound}")
    out.say("verified square-blocking" if verified else "verification skipped (n over limit)")
    out.doc = {
        "n": args.n,
        "edges": len(m),
        "ceiling": bound,
        "verified": verified,
        "saved": saved,
    }
    if args.out:
        _write(args.out, qcube.cube_edge_chunks(m))  # streamed: the file is never gathered
        out.say(f"written to {args.out}")


def _cmd_cube_verify(args, out: Outcome):
    limit = args.limit or qcube.DEFAULT_SQUARE_LIMIT
    if args.n > limit:  # refused before parsing: each direction of Q_n holds 2^n bits
        raise ValueError(f"n={args.n} exceeds square-check limit {limit}")
    m = qcube.parse_cube_edges(_read(args.edges), args.n)
    ok = qcube.is_square_blocking(m, limit)
    out.say(f"{len(m)} edges: " + ("square-blocking" if ok else "NOT square-blocking"))
    out.doc = {"n": m.n, "edges": len(m), "square_blocking": ok}
    out.code = 0 if ok else 1


def dump_json(doc: dict) -> str:
    """json.dumps(doc, indent=2), from the C encoder's one-line text of each
    value when doc maps str keys to scalars and lists of numbers, bools and
    None, as every command's document does; else by json.dumps itself."""
    fields = []
    for key, value in doc.items():
        text = json.dumps(value)
        if type(key) is not str or text[0] == "{" or text[0] == "[" and ('"' in text or "{" in text or text.count("[") > 1):
            return json.dumps(doc, indent=2)
        if text[0] == "[" and len(text) > 2:
            text = "[\n    " + text[1:-1].replace(", ", ",\n    ") + "\n  ]"
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}" if fields else "{}"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process: parse_args leaves
    the parser unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="setpack",
        description="set inversion, packing construction and bound calculators",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument(
        "--limit", type=positive_int, default=None, help="override enumeration caps (N > 0)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="decide invertibility of a collection")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("triple", help="three-set invertibility condition")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_triple)

    p = sub.add_parser("sigma", help="count simple permutations")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("lambda", help="count simple permutations inverting an i-set")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("kappa", help="inverted-count bound and witness permutation")
    p.add_argument("--input", required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--simple-only", action="store_true")
    p.set_defaults(handler=_cmd_kappa)

    pk = sub.add_parser("pack", help="packing construction and verification")
    pksub = pk.add_subparsers(dest="pack_command", required=True)
    p = pksub.add_parser("build")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parse_ratio, required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pack_build)
    p = pksub.add_parser("verify")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=parse_ratio, default=None)
    p.set_defaults(handler=_cmd_pack_verify)
    p = pksub.add_parser("no3")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rs")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_pack_no3)

    bd = sub.add_parser("bounds", help="packing-size bound calculators")
    bdsub = bd.add_subparsers(dest="bounds_command", required=True)
    p = bdsub.add_parser("lower")
    p.add_argument("--alpha", type=parse_ratio, required=True)
    p.add_argument("--c", type=parse_ratio, default=None)
    p.set_defaults(handler=_cmd_bounds_lower)
    p = bdsub.add_parser("upper")
    p.add_argument("--alpha", type=parse_ratio, required=True)
    p.add_argument("--c", type=parse_ratio, required=True)
    p.set_defaults(handler=_cmd_bounds_upper)
    p = bdsub.add_parser("optimum")
    p.add_argument("--alpha", type=parse_ratio, required=True)
    p.set_defaults(handler=_cmd_bounds_optimum)

    cb = sub.add_parser("cube", help="hypercube square-blocking sets")
    cbsub = cb.add_subparsers(dest="cube_command", required=True)
    p = cbsub.add_parser("build")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--assist", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_cube_build)
    p = cbsub.add_parser("verify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edges", required=True)
    p.set_defaults(handler=_cmd_cube_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Outcome()
    try:
        args.handler(args, out)
    except (setcore.FormatError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    if args.json:
        out.doc["exit_code"] = out.code
        with exact_int_output():
            print(dump_json(out.doc))
    else:
        for line in out.lines:
            print(line)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
