"""Fixtures and helpers shared by the test modules."""

import math

import pytest

from atomris import sim


def standard_complex_normal(rng, shape):
    """i.i.d. CN(0, 1) entries of ``shape``, (re + j im) / sqrt(2), the real
    parts drawn first: bit for bit the user-to-RIS draw of that shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


@pytest.fixture
def rank_deficient(monkeypatch):
    """Make ``sim``'s composed channel rank-deficient at the given trials
    of the campaign's order, the condition number of H^H H about
    1e14 / t^2 at trial t; returns the list of every trial's channel
    composed.  A batch composes its trials in one stacked call, whose
    rows are marked in trial order."""
    def make(*trials):
        composed = []
        effective_channel = sim.effective_channel

        def compose(ch, theta):
            stacked = effective_channel(ch, theta)
            for h in stacked:
                if (t := len(composed)) in trials:
                    h[:, 1] = h[:, 0] + 1e-7 * t * h[:, 1]
                composed.append(h)
            return stacked

        monkeypatch.setattr(sim, "effective_channel", compose)
        return composed

    return make
