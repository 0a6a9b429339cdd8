"""Shared test helpers."""

import pytest

from hexatile import qfit


@pytest.fixture
def q_stand_in(monkeypatch):
    """q_stand_in(point) makes qfit's fit read point(a, b, c, d, p) in place of
    Q: it lifts the point function to the line sampler the fit reads."""

    def use(point):
        monkeypatch.setattr(qfit, "sample_line", lambda top, b, c, d, p: [
            point(a, b, c, d, p) for a in range(p, top + 1)])

    return use
