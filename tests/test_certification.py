"""Each shared primitive of the evaluation routes is covered by a check that
catches a fault in it: a mutation test in the sense of DeMillo, Lipton and
Sayward, "Hints on test data selection" (IEEE Computer 11, 1978).

Each case perturbs one primitive in every module whose routes call it, by a
relative 1e-7 or by dropping one lattice point, and runs the verify suite
named for it (one of theta, specialfun, klf, fe and hecke; the fourier
suite would catch most of them too, but takes longer than all five).  Some
check of that suite must then fail, or the library must raise.

eisenstein._sl2_reduce is left out: Ehat is invariant under SL2(O_F), so the
reduction only bounds the cost of the expansion, and no value shows it.
"""

import pytest

from heckeis import eisenstein, lattice, zeta
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


# primitive: (the suite that catches it, the bindings the routes call)
MUTANTS = {
    # the theta law: theta(t, L) against theta(1/t, L*) on the dual lattice
    "ball_points": ("theta", [
        (m, "ball_points", _first_point_dropped(lattice.ball_points))
        for m in (lattice, zeta, eisenstein)]),
    # h-translation: h of the expansion (xi of an ideal) at z + 1 against h
    # of the lattice route (the theta split of the lattice) at z
    "gamma_lattice_sum": ("klf", [
        (zeta, "gamma_lattice_sum", _scaled(zeta.gamma_lattice_sum))]),
    "upper_incomplete_gamma": ("klf", [
        (zeta, "upper_incomplete_gamma",
         _scaled(zeta.upper_incomplete_gamma))]),
    # the functional equation: the expansion (Bessel pair sum) against the
    # lattice route of the dual, which has no Bessel function
    "bessel_k_batch": ("fe", [
        (eisenstein, "bessel_k_batch", _scaled(eisenstein.bessel_k_batch))]),
    # every pseudo-basis lattice checks its determinant against the closed
    # form |d_F| N(a) N(b) |N(y)| of its covolume
    "ideal_embedding_matrix": ("theta", [
        (m, "ideal_embedding_matrix",
         _one_entry_off(lattice.ideal_embedding_matrix))
        for m in (lattice, zeta, eisenstein)]),
}


@pytest.fixture
def fresh_caches():
    """Clear the xi caches before the mutation, so that no value cached
    earlier hides it, and after, so that none computed under it stays."""
    def clear():
        zeta.completed_zeta.cache_clear()
        zeta.CompletedZeta.value.cache_clear()
        zeta.CompletedZeta.laurent_ct.cache_clear()

    clear()
    yield
    clear()


@pytest.mark.parametrize("primitive", list(MUTANTS))
def test_a_check_catches_each_shared_primitive(primitive, monkeypatch,
                                               fresh_caches):
    suite, bindings = MUTANTS[primitive]
    for module, name, mutant in bindings:
        monkeypatch.setattr(module, name, mutant)
    try:
        reports = run_suite(suite, seed=7)
    except HeckeisError:
        return
    assert any(not r.passed for r in reports), (primitive, suite)
