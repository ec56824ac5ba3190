"""Work counts that must grow near-linearly with the input.

Wall time cannot gate a scaling claim on a shared host, but a count of
the work a call does can: it does not move with the host. Each test runs
one CLI call at n, 2n and 4n, through a counting wrapper, and asserts
that each doubling of n multiplies the count by at most 2.5.
"""
import pytest

from arborpack import maxflow
from arborpack.cli import main

SIZES = (5000, 10000, 20000)
GROWTH = 2.5


@pytest.fixture
def labelled(monkeypatch):
    """The vertices `_path_to_sink` labels, summed over its calls;
    only the `first_min_sink` sweep runs it."""
    total = [0]
    real = maxflow._path_to_sink

    def counting(*args):
        queue, start = real(*args)
        total[0] += len(queue)
        return queue, start

    monkeypatch.setattr(maxflow, "_path_to_sink", counting)
    return total


@pytest.mark.parametrize("max_cap", [1, 2])
def test_exact_sweep_labels_grow_linearly(tmp_path, capsys, labelled, max_cap):
    # On a chordless cycle each sink's backward search stops at the
    # vertex before it, which already joined the sources: a few labels
    # per sink. With capacities 1-2 the cycle keeps residual capacity
    # behind each sink, so a search that went on past the first source
    # it labels would label the whole cycle for every sink; with unit
    # capacities the flows saturate the arcs behind it.
    counts = []
    for n in SIZES:
        path = tmp_path / f"cycle-{n}.dmc"
        assert main(["gen", "cycle_plus_chords", "--n", str(n), "--chords", "0",
                     "--max-cap", str(max_cap), "--seed", "1", "--out", str(path)]) == 0
        labelled[0] = 0
        assert main(["mincut", str(path), "--exact"]) == 0
        counts.append(labelled[0])
    capsys.readouterr()
    for small, large in zip(counts, counts[1:]):
        assert 0 < large <= GROWTH * small, counts
