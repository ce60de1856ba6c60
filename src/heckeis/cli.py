"""Command-line driver.

JSON goes to stdout, human-readable logs to stderr.  Exit codes: 0 success,
1 failing verification reports, 2 argument/parse errors, 3 numeric failures.
The environment variable HECKE_EIS_PRECISION sets the default --tol of
eval-eisenstein; it must lie in [1e-14, 1e-4].
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
from fractions import Fraction

from .basefield import FieldDescriptor, FracIdeal, QuadElement, parse_field
from .dalgebra import DNumber, Quaternion
from .eisenstein import EisensteinEvaluator
from .errors import HeckeisError
from .heckeint import HeckeSetup, relative_klf_check
from .lattice import OFLattice
from .reports import reports_to_json
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAILED_REPORTS = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3

ENV_VAR = "HECKE_EIS_PRECISION"


def _log(msg: str):
    print(msg, file=sys.stderr)


class CliParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# argument parsing helpers

_TWO_FLOATS = re.compile(
    r"^([+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)([+-]\d*\.?\d+(?:[eE][+-]?\d+)?)$")

_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_tol(s: str) -> float:
    """A --tol value: a finite float > 0."""
    try:
        tol = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {s!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {s}")
    return tol


def default_tol() -> float:
    """The default --tol of eval-eisenstein: $HECKE_EIS_PRECISION, which must
    lie in [1e-14, 1e-4], or 1e-9 when it is unset."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return 1e-9
    try:
        tol = float(raw)
    except ValueError:
        raise CliParseError(
            f"{ENV_VAR} must be a float, got {raw!r}") from None
    if not 1e-14 <= tol <= 1e-4:
        raise CliParseError(f"{ENV_VAR} must lie in [1e-14, 1e-4], got {raw}")
    return tol


def parse_complex(s: str) -> complex:
    """'2', '0.3,0.2' or '0.3+0.2' -> complex, with finite parts."""
    s = s.strip()
    if "," in s:
        re_, im_ = s.split(",", 1)
        z = complex(float(re_), float(im_))
    elif m := _TWO_FLOATS.match(s):
        z = complex(float(m.group(1)), float(m.group(2)))
    else:
        z = complex(float(s), 0.0)
    if not cmath.isfinite(z):
        raise CliParseError(f"--s must be finite, got {s!r}")
    return z


def _parse_rational(tok: str) -> Fraction:
    if not _RATIONAL.match(tok):
        raise CliParseError(f"cannot parse rational {tok!r}")
    return Fraction(tok)


def parse_quad_element(F: FieldDescriptor, s: str) -> QuadElement:
    """'1', '3/2', '2w', '3/2w', '1+2w', '-1/2-3w' -> a + b*omega."""
    s = s.replace(" ", "")
    if not s:
        raise CliParseError("empty field element")
    if "w" not in s:
        return QuadElement(F, _parse_rational(s), Fraction(0))
    head, _, rest = s.partition("w")
    if rest:
        raise CliParseError(f"cannot parse field element {s!r}")
    # split head into the rational part and the omega coefficient: the b
    # coefficient starts at the last sign that is not leading and does not
    # follow '/' or another sign
    split = None
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "/+-":
            split = i
            break
    if split is None:
        a_tok, b_tok = "", head
    else:
        a_tok, b_tok = head[:split], head[split:]
    a = _parse_rational(a_tok) if a_tok else Fraction(0)
    if b_tok in ("", "+"):
        b = Fraction(1)
    elif b_tok == "-":
        b = Fraction(-1)
    else:
        b = _parse_rational(b_tok)
    return QuadElement(F, a, b)


def parse_ideal(F: FieldDescriptor, s: str) -> FracIdeal:
    s = s.strip()
    if F.is_rational:
        try:
            return FracIdeal(F, gen=Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise CliParseError(f"cannot parse rational ideal {s!r}") from exc
    if s in ("O", "o", "1"):
        return FracIdeal.unit_ideal(F)
    if s.startswith("hnf:"):
        parts = s[4:].split(":")
        if len(parts) not in (3, 4):
            raise CliParseError("hnf ideal needs hnf:a:b:c[:q]")
        a, b, c = (int(p) for p in parts[:3])
        q = Fraction(parts[3]) if len(parts) == 4 else Fraction(1)
        return FracIdeal.from_hnf(F, a, b, c, q)
    return FracIdeal(F, gen=parse_quad_element(F, s))


def parse_lattice(F: FieldDescriptor, spec: str) -> OFLattice:
    """'a,z,b' with rational/element ideals and z as 'x+y' (F = Q) or
    'xr:xi:yr:yi' (imaginary quadratic F), every coordinate finite."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise CliParseError(
            f"lattice spec {spec!r} must be 'a,z,b' (three comma-separated parts)")
    ideal_a = parse_ideal(F, parts[0])
    ideal_b = parse_ideal(F, parts[2])
    zs = parts[1].strip()
    if F.is_rational:
        if ":" in zs:
            xs, ys = zs.split(":")
        else:
            m = _TWO_FLOATS.match(zs)
            if not m:
                raise CliParseError(
                    f"cannot parse z component {zs!r} for base field Q "
                    "(expected 'x+y' or 'x:y')")
            xs, ys = m.groups()
        coords = [float(xs), float(ys)]
    else:
        coords = zs.split(":")
        if len(coords) != 4:
            raise CliParseError(
                f"z component {zs!r} needs 4 coordinates 'xr:xi:yr:yi' over "
                f"{F.label}")
        coords = [float(c) for c in coords]
    if not all(map(math.isfinite, coords)):
        raise CliParseError(
            f"z component {zs!r} of the lattice must have finite coordinates")
    if F.is_rational:
        z = DNumber.from_xy(F, *coords)
    else:
        xr, xi, yr, yi = coords
        z = DNumber(F, (Quaternion(complex(xr, xi), complex(yr, yi)),))
    return OFLattice(F, ideal_a, z, ideal_b)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval_eisenstein(args) -> int:
    # s first: a numeric failure's hint reads it again
    s = parse_complex(args.s)
    F = parse_field(args.base_field, base=True)
    lat = parse_lattice(F, args.lattice)
    ev = EisensteinEvaluator(lat)
    tol = args.tol
    from .specialfun import gamma_F
    ehat = ev.ehat(s, tol, method=args.method)
    evalue = ehat / gamma_F(F, 2 * s)
    _log(f"E(Lambda, {s}) = {evalue}")
    _log(f"Ehat(Lambda, {s}) = {ehat}")
    payload = {
        "command": "eval-eisenstein",
        "field": F.label,
        "parameters": {"lattice": args.lattice, "s": {"re": s.real, "im": s.imag},
                       "tol": tol, "method": args.method,
                       "volume": lat.covolume},
        "E": {"re": evalue.real, "im": evalue.imag},
        "Ehat": {"re": ehat.real, "im": ehat.imag},
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed)
    for r in reports:
        _log(r.summary_line())
    _emit(reports_to_json(reports), args.out)
    n_fail = sum(not r.passed for r in reports)
    _log(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_FAILED_REPORTS


def cmd_limit_formula(args) -> int:
    K = parse_field(args.K)
    if not K.is_real_quadratic:
        raise CliParseError(
            f"--K must name a real quadratic field, got {args.K!r}")
    ideal = parse_ideal(K, args.ideal)
    setup = HeckeSetup(K, ideal)
    out = relative_klf_check(setup, args.tol)
    payload = {
        "command": "limit-formula",
        "field": f"{K.label}/Q",
        "parameters": {"ideal": args.ideal, "tol": args.tol},
        "lhs": out["lhs"],
        "lhs_via_torus_integral": out["lhs_hecke"],
        "rhs": out["rhs"],
        "absError": out["abs_error"],
        "terms": out["terms"],
    }
    _log(f"limit formula {K.label}/Q: |lhs-rhs| = {out['abs_error']:.3e}")
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _emit(text: str, out_path):
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heckeis",
        description="Eisenstein series, completed zeta functions and "
                    "quadratic-extension integral formulas: evaluation and "
                    "numerical certification.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval-eisenstein", help="evaluate E and Ehat of a lattice")
    pe.add_argument("--base-field", required=True,
                    help="Q or Q(sqrt{d}) with d in {-1,-2,-3,-7,-11}")
    pe.add_argument("--lattice", required=True,
                    help="'a,z,b': ideals and the z component ('x+y' over Q, "
                         "'xr:xi:yr:yi' over imaginary quadratic fields)")
    pe.add_argument("--s", required=True, help="complex s as 're[,im]'")
    pe.add_argument("--tol", type=parse_tol, default=default_tol())
    pe.add_argument("--method", choices=["direct", "expansion", "lattice", "auto"],
                    default="auto")
    pe.add_argument("--out", default=None, help="also write the JSON here")
    pe.set_defaults(func=cmd_eval_eisenstein)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    choices=sorted(SUITES) + ["all"])
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("limit-formula",
                        help="relative limit-formula comparison for real "
                             "quadratic K")
    pl.add_argument("--K", required=True, help="real quadratic field, e.g. Q(sqrt5)")
    pl.add_argument("--ideal", default="O",
                    help="'O', an element like '1+2w', or hnf:a:b:c[:q]")
    pl.add_argument("--tol", type=parse_tol, default=1e-8)
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_limit_formula)
    return p


def _untried(args) -> list:
    """What to try after a numeric failure: the eval-eisenstein routes not
    yet tried (auto is the expansion, since a lattice given here always has
    its pseudo-basis), direct only where Re s > 1.05, and a looser --tol."""
    if not hasattr(args, "method"):
        return ["a looser --tol"] if hasattr(args, "tol") else []
    tried = "expansion" if args.method == "auto" else args.method
    direct = parse_complex(args.s).real > 1.05
    return [f"--method {m}" for m in ("expansion", "lattice", "direct")
            if m != tried and (m != "direct" or direct)] + ["a looser --tol"]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0,) else 0
    except CliParseError as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE
    try:
        return args.func(args)
    except (HeckeisError, ArithmeticError) as exc:
        # before ValueError: several numeric failures also derive from it;
        # ArithmeticError: an overflow or a division by zero in the numerics
        _log(f"numeric failure: {exc}")
        if hints := _untried(args):
            _log("hint: try " + " or ".join(hints))
        return EXIT_NUMERIC
    except (CliParseError, ValueError) as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
