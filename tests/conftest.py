import pytest

from lexseg import _kernels, construct, fixture


@pytest.fixture(scope="session")
def example2():
    return fixture("example2")


@pytest.fixture(scope="session")
def remark3():
    return fixture("remark3")


@pytest.fixture(scope="session")
def grid_reports():
    return [construct(r, s) for r in range(1, 13) for s in range(1, 13)]


@pytest.fixture(scope="session")
def grid_ideals(grid_reports):
    return [report.ideal for report in grid_reports]


@pytest.fixture(scope="session")
def wide_ideal():
    """construct(40, 3): 1,113 generators, the largest ideal the tests build."""
    return construct(40, 3).ideal


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make standard-monomial enumeration fail: runtime paths must not use it."""
    def forbidden(gens, degree):
        raise AssertionError("a runtime path enumerated standard monomials")

    monkeypatch.setattr(_kernels, "count_standard", forbidden)
