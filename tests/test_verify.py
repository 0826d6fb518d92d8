import pytest

from oligocat.verify import SUITE_NAMES, run_suites, sym_end_oracle


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suites("no-such-suite")


def test_single_suites_pass():
    for name in ("order-counts", "glq-identities", "rado-demo"):
        rows = run_suites(name)
        assert rows and all(c.ok for c in rows), [r for r in rows if not r.ok]


def test_oracle_shapes():
    alg, mats = sym_end_oracle(1, 4)
    assert alg.dim == 2 and len(mats) == 2
    assert len(mats[0]) == 4 and all(len(row) == 4 for row in mats[0])
    # the basis matrices partition the all-ones matrix
    assert all(sum(m[r][c] for m in mats) == 1
               for r in range(4) for c in range(4))


def test_suite_names_cover_everything():
    rows = run_suites("all")
    assert {c.suite for c in rows} == set(SUITE_NAMES)
    assert all(c.ok for c in rows), [c for c in rows if not c.ok]
