import random

from heckeis.dalgebra import Quaternion

# the basis quaternions 1, i, j, k
Q_ONE = Quaternion(1 + 0j, 0j)
Q_I = Quaternion(1j, 0j)
Q_J = Quaternion(0j, 1 + 0j)
Q_K = Quaternion(0j, 1j)


def test_quaternion_multiplication_table():
    minus_one = Quaternion(-1 + 0j, 0j)
    assert Q_I * Q_I == minus_one
    assert Q_J * Q_J == minus_one
    assert Q_K * Q_K == minus_one
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J
    assert Q_J * Q_I == Quaternion(0j, -1j)     # -k
    # i j k = -1
    assert Q_I * Q_J * Q_K == minus_one


def test_quaternion_norm_multiplicative_on_signed_units():
    units = [Q_ONE, Q_I, Q_J, Q_K]
    units += [Quaternion(-u.x, -u.y) for u in units]
    for p in units:
        for q in units:
            assert (p * q).abs2() == 1.0
            assert p.abs2() * q.abs2() == 1.0


def test_quaternion_assoc_and_norm_random():
    rng = random.Random(11)
    for _ in range(200):
        def rq():
            return Quaternion(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                              complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        p, q, r = rq(), rq(), rq()
        lhs, rhs = (p * q) * r, p * (q * r)
        assert abs(lhs.x - rhs.x) + abs(lhs.y - rhs.y) < 1e-12
        assert abs((p * q).abs2() - p.abs2() * q.abs2()) \
            < 1e-12 * max(1.0, p.abs2() * q.abs2())


def test_quaternion_inverse():
    q = Quaternion(1 + 2j, -0.5 + 0.25j)
    p = q * q.inverse()
    assert abs(p.x - 1) < 1e-14 and abs(p.y) < 1e-14
