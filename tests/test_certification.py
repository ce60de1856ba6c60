"""Each shared primitive of the evaluation routes is covered by a check that
catches a fault in it: a mutation test in the sense of DeMillo, Lipton and
Sayward, "Hints on test data selection" (IEEE Computer 11, 1978).

Each case perturbs one primitive in every module whose routes call it, by a
relative 1e-7, by dropping one lattice point, or by serving kept lattice
points under a wrong key or past their radius, and runs the verify suite
named for it (one of theta, specialfun, klf, fe, hecke and shells; the
fourier suite would catch most of them too, but takes longer than all
six).  The checks named for it must then be the ones of that suite that
fail, or the library must raise.

eisenstein._sl2_reduce is left out: Ehat is invariant under SL2(O_F), so the
reduction only bounds the cost of the expansion, and no value shows it.
"""

import pytest

from heckeis import eisenstein, heckeint, lattice, specialfun, zeta
from heckeis.errors import HeckeisError
from heckeis.verify import run_suite


def _scaled(f):
    def mutant(*args, **kwargs):
        return f(*args, **kwargs) * (1 + 1e-7)
    return mutant


def _first_point_dropped(f):
    def mutant(*args, **kwargs):
        blocks = f(*args, **kwargs)
        first = next(blocks, None)
        if isinstance(first, tuple):
            yield first[0][1:], first[1][:, 1:]
        elif first is not None:
            yield first[1:]
        yield from blocks
    return mutant


def _one_entry_off(f):
    def mutant(ideal):
        M = f(ideal).copy()
        M[0, 0] *= 1 + 1e-7
        return M
    return mutant


# primitive: (the suite that catches it, the checks of that suite that then
# fail, none where the library raises, the bindings the routes call)
MUTANTS = {
    # the theta law: theta(t, L) against theta(1/t, L*) on the dual lattice
    "ball_points": ("theta", ["theta-transformation"], [
        (m, "ball_points", _first_point_dropped(lattice.ball_points))
        for m in (lattice, zeta, eisenstein)]),
    # h of the expansion (xi of an ideal) at z + 1 and at -1/z against h of
    # the lattice route (the theta split of the lattice) at z
    "gamma_lattice_sum": ("klf", ["h-inversion", "h-translation"], [
        (zeta, "gamma_lattice_sum", _scaled(zeta.gamma_lattice_sum))]),
    "upper_incomplete_gamma": ("klf", ["h-inversion", "h-translation"], [
        (zeta, "upper_incomplete_gamma",
         _scaled(zeta.upper_incomplete_gamma))]),
    # the continued fraction's loop for few arguments alone: at x = 2.2 the
    # recurrence takes Gamma(s, x) from it and Gamma(s + 1, x) from the
    # series
    "_lentz_scalar": ("specialfun", ["incgamma-recurrence"], [
        (specialfun, "_lentz_scalar", _scaled(specialfun._lentz_scalar))]),
    # the functional equation: the expansion (Bessel pair sum) against the
    # lattice route of the dual, which has no Bessel function
    "bessel_k_batch": ("fe", ["functional-equation"], [
        (eisenstein, "bessel_k_batch", _scaled(eisenstein.bessel_k_batch))]),
    # every pseudo-basis lattice checks its determinant against the closed
    # form |d_F| N(a) N(b) |N(y)| of its covolume
    "ideal_embedding_matrix": ("theta", [], [
        (m, "ideal_embedding_matrix",
         _one_entry_off(lattice.ideal_embedding_matrix))
        for m in (lattice, zeta, eisenstein)]),
    # the torus integral against the zeta oracle at s = 3 and over
    # Q(sqrt193), where |xi_K(2)| = 46.4: checks of the value itself, which
    # a ratio of two such values would not see
    "_torus_quadrature": ("hecke", ["hecke-integral-large-regulator",
                                    "hecke-integral-s3"], [
        (heckeint, "_torus_quadrature", _scaled(heckeint._torus_quadrature))]),
    # the store of kept listings, which every route reads: a listing served
    # under a key without its inner radius is the points of another shell;
    # theta-annuli asks for two shells of one outer radius, at the same
    # radii for every lattice of a base field.  Without its basis (for the
    # basis' shape and dtype) it is the points of another lattice: one
    # lattice's ball in place of its dual's breaks the theta law
    "_kept_key-no-r_min": ("shells", ["theta-annuli"], [
        (lattice, "_kept_key",
         lambda basis, coeffs, r_min, r: (basis, coeffs, None, r))]),
    "_kept_key-no-basis": ("theta", ["theta-transformation"], [
        (lattice, "_kept_key",
         lambda basis, coeffs, r_min, r: (basis[1:], coeffs, r_min, r))]),
    # a listing of one block served at a smaller radius without the radius
    # mask: theta-annuli lists the ball of radius 2 before that of radius 1
    "_Kept.blocks-no-mask": ("shells", ["theta-annuli"], [
        (lattice._Kept, "blocks", lambda self, r2_max: iter(self.parts))]),
    # the Gamma factor of the completed zeta function against its integral,
    # and the incomplete gamma's series, which subtracts from Gamma(s)
    "complex_gamma": ("specialfun", ["gamma-factor-vs-integral",
                                     "incgamma-recurrence"], [
        (specialfun, "complex_gamma", _scaled(specialfun.complex_gamma))]),
}


@pytest.fixture
def fresh_caches():
    """Clear the xi caches and the lattice points ball_points keeps before
    the mutation, so that nothing cached earlier hides it, and after, so
    that nothing computed under it stays."""
    def clear():
        zeta.completed_zeta.cache_clear()
        zeta.CompletedZeta.value.cache_clear()
        zeta.CompletedZeta.laurent_ct.cache_clear()
        lattice._BALLS.clear()

    clear()
    yield
    clear()


@pytest.mark.parametrize("primitive", list(MUTANTS))
def test_a_check_catches_each_shared_primitive(primitive, monkeypatch,
                                               fresh_caches):
    suite, catching, bindings = MUTANTS[primitive]
    for module, name, mutant in bindings:
        monkeypatch.setattr(module, name, mutant)
    try:
        reports = run_suite(suite, seed=7)
    except HeckeisError:
        assert catching == [], (primitive, suite)
        return
    failed = sorted({r.command for r in reports if not r.passed})
    assert catching and failed == catching, (primitive, suite, failed)
