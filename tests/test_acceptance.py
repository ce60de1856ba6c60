"""Acceptance gate: every criterion at its stated tolerance, one summary
line per criterion (run pytest with -s to see the lines as they complete).

The checks are the same deterministic batteries exposed by the `verify`
CLI; this module pins the seed and the tolerances.
"""

import pytest

from heckeis.verify import (checks_fe, checks_fourier, checks_hecke,
                            checks_klf, checks_specialfun, checks_theta)

SEED = 7
_cache = {}


def _suite(builder):
    if builder not in _cache:
        _cache[builder] = builder(seed=SEED)
    return _cache[builder]


def _run_criterion(number, description, checks, tolerances=None):
    reports = [c.run() for c in checks]
    assert reports, "criterion has no checks"
    if tolerances is not None:
        for r in reports:
            assert r.tolerance == tolerances[r.command], \
                f"{r.command} tolerance drifted from the pinned value"
    worst = max(r.abs_error for r in reports)
    ok = all(r.passed for r in reports)
    print(f"\nACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] "
          f"{description}: {len(reports)} checks, worst |lhs-rhs| = {worst:.3e}")
    for r in reports:
        assert r.passed, r.summary_line()


def _by_command(checks, *commands):
    return [c for c in checks if c.command in commands]


def test_criterion_01_imaginary_quadratic_zeta_identity():
    checks = _by_command(_suite(checks_hecke), "imquad-zeta-vs-eisenstein")
    assert len(checks) == 9      # {Q(i), Q(sqrt-3), Q(sqrt-5) nonprincipal} x 3 s
    _run_criterion(1, "partial zeta of imaginary quadratic fields vs the "
                      "direct Eisenstein sum (s in {1.5, 2, 3}, tol 1e-6)",
                   checks, {"imquad-zeta-vs-eisenstein": 1e-6})


def test_criterion_02_real_quadratic_integral_formula():
    checks = _by_command(_suite(checks_hecke), "hecke-integral-real")
    assert len(checks) == 3      # Q(sqrt2), Q(sqrt5), Q(sqrt3): both unit norms
    _run_criterion(2, "torus integral vs completed Dedekind zeta at s = 2 "
                      "(tol 1e-6)", checks, {"hecke-integral-real": 1e-6})


def test_criterion_03_integral_formula_off_axis():
    checks = _by_command(_suite(checks_hecke), "hecke-integral-complex-s")
    assert len(checks) == 1
    _run_criterion(3, "torus integral at s = 1.5 + 0.5i vs Euler-Maclaurin "
                      "continued zeta L (tol 1e-6)", checks,
                   {"hecke-integral-complex-s": 1e-6})


def test_criterion_04_functional_equation():
    checks = _suite(checks_fe)
    # (5 over Q + 2 over Q(i)) x 3 values of s, and covolume 8.75e4 over
    # Q(sqrt-7)
    assert len(checks) == 22
    _run_criterion(4, "functional equation Ehat(L, s) = Ehat(L*, 1-s) "
                      "(tol 1e-9)", checks, {"functional-equation": 1e-9})


def test_criterion_05_fourier_expansion_vs_lattice_sums():
    checks = _suite(checks_fourier)
    assert len(checks) == 120    # 10 lattices x 6 base fields x 2 values of s
    _run_criterion(5, "expansion vs direct/lattice summation, 10 lattices "
                      "per base field at s in {1.5, 2.5} (tol 1e-9)", checks,
                   {"fourier-expansion-vs-lattice-sum": 1e-9,
                    "fourier-expansion-vs-direct": 1e-9})


def test_criterion_06_residue_and_limit_constant():
    klf = _suite(checks_klf)
    res = _by_command(klf, "eisenstein-residue")
    cts = _by_command(klf, "eisenstein-ct")
    assert len(res) == 3 and len(cts) == 5
    _run_criterion(6, "residue C_F/2 (tol 1e-7) and closed-form constant "
                      "term vs Laurent limit (tol 1e-8)", res + cts,
                   {"eisenstein-residue": 1e-7, "eisenstein-ct": 1e-8})


def test_criterion_07_h_modularity():
    klf = _suite(checks_klf)
    checks = _by_command(klf, "h-translation", "h-inversion", "h-gl2-matrix")
    assert len(checks) == 11     # 5 translations + 5 inversions + 1 GL2 matrix
    _run_criterion(7, "modularity of the limit-formula h function "
                      "(translation 1e-10, inversion/GL2 1e-8)", checks,
                   {"h-translation": 1e-10, "h-inversion": 1e-8,
                    "h-gl2-matrix": 1e-8})


def test_criterion_08_theta_transformation():
    checks = _suite(checks_theta)
    # 20 (t, lattice) pairs + 20 volume products + 20 turned duals
    assert len(checks) == 60
    _run_criterion(8, "theta transformation law and V(L) V(L*) = 1 "
                      "(tol 1e-10), L* at covolume 1 a turned L (1e-12)",
                   checks,
                   {"theta-transformation": 1e-10, "dual-volume-product": 1e-10,
                    "dual-is-turned-lattice": 1e-12})


def test_criterion_09_relative_limit_formula():
    klf = _suite(checks_klf)
    checks = _by_command(klf, "relative-klf", "torus-measure-identity")
    assert len(checks) == 4      # Q(sqrt5), Q(sqrt2): formula + measure identity
    _run_criterion(9, "relative limit formula (tol 1e-5) and torus measure "
                      "identity (tol 1e-8)", checks,
                   {"relative-klf": 1e-5, "torus-measure-identity": 1e-8})


def test_criterion_10_special_functions():
    checks = _suite(checks_specialfun)
    assert len(checks) == 13
    _run_criterion(10, "gamma factor vs defining integral (1e-10), half-order "
                       "Bessel closed form and order symmetry (1e-12)", checks,
                   {"gamma-factor-vs-integral": 1e-10,
                    "bessel-half-order-closed-form": 1e-12,
                    "bessel-order-symmetry": 1e-12})
