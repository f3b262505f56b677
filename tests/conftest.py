import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from tannaka_forge import tannaka
from tannaka_forge.rings import ring_make
from tannaka_forge.algebra import AlgebraSpec


@pytest.fixture(scope="session")
def Z8():
    return ring_make(2, 3, 1)


@pytest.fixture(scope="session")
def Z4():
    return ring_make(2, 2, 1)


@pytest.fixture(scope="session")
def F2():
    return ring_make(2, 1, 1)


@pytest.fixture(scope="session")
def F4():
    return ring_make(2, 1, 2)


@pytest.fixture(scope="session")
def GR42():
    return ring_make(2, 2, 2)


@pytest.fixture(scope="session")
def alg_f2():
    return AlgebraSpec.make(2, 1, 1)


@pytest.fixture(scope="session")
def alg_f3():
    return AlgebraSpec.make(3, 1, 1)


@pytest.fixture(scope="session")
def alg_f4():
    return AlgebraSpec.make(2, 1, 2)


@pytest.fixture(scope="session")
def alg_gr42():
    return AlgebraSpec.make(2, 2, 2)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls((module, name), ...) -> {name: calls so far}: wraps each
    function in every tannaka_forge module that holds it, so calls from
    inside the engine are counted too."""
    def install(*targets):
        counts = dict.fromkeys((name for _, name in targets), 0)
        engine = [m for key, m in sys.modules.items()
                  if key == "tannaka_forge" or key.startswith("tannaka_forge.")]
        for owner, name in targets:
            orig = getattr(owner, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                counts[_name] += 1
                return _orig(*args, **kwargs)

            for mod in engine:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, counted)
        return counts
    return install


class _Widths(list):
    """Columns offered to each call, in call order; read: those it read."""

    def __init__(self):
        super().__init__()
        self.read = []


@pytest.fixture
def howell_widths(monkeypatch):
    """The number of relation columns each `howell` call through `tannaka`
    is offered, in call order, and in .read how many of them it read: the
    columns come as a stream, of which `howell` may leave a tail unread
    once its span is the full category's, so the columns it reads are
    counted as they go and the rest once it returns."""
    widths = _Widths()
    orig = tannaka.howell

    def counted(ring, rows, width, corank=0):
        widths.read.append(0)
        rows = iter(rows)

        def rows_counted():
            for row in rows:
                widths.read[-1] += 1
                yield row
        out = orig(ring, rows_counted(), width, corank)
        widths.append(widths.read[-1] + sum(1 for _ in rows))
        return out
    monkeypatch.setattr(tannaka, "howell", counted)
    return widths


@pytest.fixture
def stream_reads(monkeypatch):
    """How many relation columns the stream of each `_relation_columns`
    call through `tannaka` yielded, in call order; with `howell_widths`,
    which draws the tail `howell` leaves, that is every column offered.
    The rows `howell` reads besides them are the full blocks' kernel rows."""
    reads = []
    orig = tannaka._relation_columns

    def counted(*args, **kwargs):
        *head, cols = orig(*args, **kwargs)
        i = len(reads)
        reads.append(0)

        def cols_counted():
            for col in cols:
                reads[i] += 1
                yield col
        return (*head, cols_counted())
    monkeypatch.setattr(tannaka, "_relation_columns", counted)
    return reads
