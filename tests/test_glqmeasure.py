import json

import pytest

from oligocat.glqmeasure import (QContext, count_spanning_pairs,
                                 count_subspaces)
from oligocat.scalar import Poly

x = Poly.var()


def test_q_integers():
    q2 = QContext(2)
    assert q2.q_int(3) == 7
    assert q2.q_int(0) == 0
    assert count_subspaces(2, 4, 2) == 35
    assert count_subspaces(3, 5, 0) == 1


def test_q_range_errors():
    with pytest.raises(ValueError):
        QContext(2).omega(-1, 0)
    with pytest.raises(ValueError):
        QContext(1)


def test_omega_basics():
    q2 = QContext(2)
    assert q2.omega(0, 1) == x
    assert q2.omega(0, 0) == Poly.one()
    assert q2.omega(0, 2)(q2.q_int(4)) == 35
    for n in range(1, 6):
        assert q2.omega(1, 1)(q2.q_int(n)) == q2.q_int(n - 1)


def test_q_pascal():
    for q in (2, 3):
        assert QContext(q).check_q_pascal(4).ok
    # d = 0 degenerates to 1 = 1 + 0
    assert QContext(2).check_q_pascal(0).ok


def test_q_pascal_negative_control():
    rep = QContext(2).check_q_pascal(4, perturb=(2, 2, 1))
    assert not rep.ok
    assert (2, 2) in rep.witnesses or (1, 2) in rep.witnesses


def test_grassmann_structure_constants():
    q2 = QContext(2)
    assert q2.grassmann_structure_constants(1, 1) == {1: 1, 2: 6}
    assert q2.grassmann_structure_constants(0, 3) == {3: 1}
    for q in (2, 3):
        ctx = QContext(q)
        for i in range(4):
            for j in range(4):
                ctx.grassmann_structure_constants(i, j)  # raises on failure


def test_subspace_count_oracle():
    for q in (2, 3):
        ctx = QContext(q)
        for n in range(5):
            for d in range(n + 1):
                assert (ctx.omega(0, d)(ctx.q_int(n))
                        == count_subspaces(q, n, d)), (q, n, d)


def test_spanning_pair_oracle():
    ctx = QContext(2)
    for i, j in [(1, 1), (1, 2)]:
        sc = ctx.grassmann_structure_constants(i, j)
        for d, val in sc.items():
            assert count_spanning_pairs(2, 4, i, j, d) == val


def test_integrality():
    for q in (2, 3):
        ctx = QContext(q)
        for m in range(4):
            for d in range(4):
                for n in range(m, m + 5):
                    assert ctx.omega(m, d)(ctx.q_int(n)).denominator == 1


def test_table_export():
    tbl = QContext(2).omega_table(2, 2, range(4))
    blob = json.dumps(tbl, sort_keys=True)
    assert json.loads(blob) == json.loads(json.dumps(tbl, sort_keys=True))
    assert tbl["q"] == 2 and len(tbl["rows"]) == 9
