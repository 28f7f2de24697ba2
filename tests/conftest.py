import pytest

from omforge.corpus import non_euclidean_848


@pytest.fixture(scope="session")
def non_euclidean_om():
    return non_euclidean_848()


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for one test and
    returns the list that each call appends to."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install
