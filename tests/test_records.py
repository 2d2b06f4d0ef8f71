"""Value records: frozen ones refuse assignment, equality and repr follow
each record's fields, and MultiGraph caches what it derives."""

import pytest

from conftest import triangle
from densefw import (
    Orientation,
    SetFunctionOracle,
    decompose_supermodular,
    edge_count_fn,
    lmo,
    weighted_greedy,
)


def _frozen_fields():
    g = triangle()
    f = edge_count_fn(g)
    orientation, load = Orientation.from_mask(g, 0b11), lmo(f, [0, 0, 0])
    return [
        (g, "n"),
        (g, "edges"),
        (f, "kind"),
        (f, "_eval"),
        (f, "_gains"),
        (load, "values"),
        (orientation, "share_first"),
        (decompose_supermodular(f), "blocks"),
        (weighted_greedy(g, [0, 0, 0]), "order"),
    ]


@pytest.mark.parametrize("record, field", _frozen_fields(), ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_frozen_record_refuses_assignment(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    assert hash(record) == hash(record)


def test_oracle_equality_ignores_gains_and_repr_hides_callables():
    f = edge_count_fn(triangle())
    assert f._gains is not None and f._chain is not None
    plain = SetFunctionOracle(f.ground, f.kind, f.monotone, f.normalized, f._eval)
    assert plain == f
    assert hash(plain) == hash(f)
    assert plain != SetFunctionOracle(f.ground, f.kind, f.monotone, f.normalized, len)
    assert repr(f) == "SetFunctionOracle(ground=(0, 1, 2), kind='supermodular', monotone=True, normalized=True)"
    object.__setattr__(plain, "_eval", len)  # a wrapper swapped in from outside, as a tracer does
    assert plain.value({0, 1}) == 2


def test_multigraph_degrees_computed_once():
    g = triangle()
    assert "degrees" not in vars(g)
    first = g.degrees
    assert vars(g)["degrees"] is first
    assert g.degrees is first
