import pytest

from lexseg import _kernels, construct, fixture


@pytest.fixture(scope="session")
def example2():
    return fixture("example2")


@pytest.fixture(scope="session")
def remark3():
    return fixture("remark3")


@pytest.fixture(scope="session")
def grid_ideals():
    return [construct(r, s).ideal for r in range(1, 13) for s in range(1, 13)]


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make standard-monomial enumeration fail: runtime paths must not use it."""
    def forbidden(gens, degree):
        raise AssertionError("a runtime path enumerated standard monomials")

    monkeypatch.setattr(_kernels, "count_standard", forbidden)
