"""Value records: every record is frozen, built positionally from the
fields its annotations name, with equality and repr following those
fields; MultiGraph caches what it derives."""

import pytest

from conftest import triangle
from densefw import (
    ConvergenceTrace,
    GreedyPPResult,
    Orientation,
    PeelResult,
    SetFunctionOracle,
    decompose_supermodular,
    edge_count_fn,
    lmo,
    supergreedy_pp,
    weighted_supergreedy,
)
from densefw.checks import CheckResult, run_instance_checks  # checks loads every module with a record
from densefw.errors import Record
from densefw.fw import TraceRecord


def _frozen_fields():
    g = triangle()
    f = edge_count_fn(g)
    orientation, load = Orientation.from_mask(g, 0b11), lmo(f, [0, 0, 0])
    result = supergreedy_pp(f, 2)
    return [
        (g, "n"),
        (g, "edges"),
        (f, "kind"),
        (f, "_eval"),
        (f, "_gains"),
        (load, "values"),
        (orientation, "share_first"),
        (decompose_supermodular(f), "blocks"),
        (weighted_supergreedy(f, [0, 0, 0]), "order"),
        (result, "best_set"),
        (result.trace, "records"),
        (result.trace.records[0], "objective"),
        (run_instance_checks(g)[0], "ok"),
    ]


@pytest.mark.parametrize("record, field", _frozen_fields(), ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_frozen_record_refuses_assignment(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value
    if isinstance(record, (ConvergenceTrace, GreedyPPResult)):  # they hold a list of trace rows
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(record)


@pytest.mark.parametrize("cls, values", [
    (TraceRecord, (1, 0.0, 1.0)),
    (TraceRecord, (1, 0.0, 1.0, None, None)),
    (CheckResult, ("name", True)),
    (Orientation, ()),
    (PeelResult, ((0, 1),)),
    (GreedyPPResult, (frozenset({0, 1}), 1, None, 1, None)),  # best_set, best_density, x, trace
], ids=lambda x: x.__name__ if isinstance(x, type) else str(len(x)))
def test_wrong_field_count_raises(cls, values):
    with pytest.raises(TypeError, match=f"{cls.__name__} takes {len(cls._fields)} fields, got {len(values)}"):
        cls(*values)


def test_fields_come_from_the_annotations():
    class Point(Record):
        y: int
        x: int

        def total(self):
            return self.x + self.y

    class Labelled(Point):
        label: str

    assert (Record._fields, Point._fields, Labelled._fields) == ((), ("y", "x"), ("y", "x", "label"))
    p = Labelled(1, 2, "a")
    assert (p.y, p.x, p.label, p.total()) == (1, 2, "a", 3)
    assert repr(p).endswith(".Labelled(y=1, x=2, label='a')")  # a qualified name
    assert p == Labelled(1, 2, "a") != Labelled(2, 1, "a")
    assert p.__eq__(Point(1, 2)) is p.__eq__((1, 2, "a")) is NotImplemented  # another class, a plain tuple
    assert p != Point(1, 2) and p != (1, 2, "a")
    with pytest.raises(TypeError, match=r"\.Point takes 2 fields, got 3$"):
        Point(1, 2, 3)


def test_fields_lead_the_annotations():
    """The positional constructor follows `_fields`, which every package
    record takes whole from its annotations; the oracle hooks stay out."""
    classes, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("densefw."):
                classes.append(cls)
    assert len(classes) == 10
    for cls in classes:
        assert tuple(vars(cls)["__annotations__"]) == cls._fields, cls.__name__
    assert SetFunctionOracle._fields == ("ground", "kind", "monotone", "normalized", "_eval")


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
