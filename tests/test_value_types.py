"""The contract of the library's value types, in one table over all thirteen.

Every type builds from positional or keyword arguments in its field order,
hashes as the plain tuple of its fields (a graph type hashes as the tuple
of what it stores: a matrix its sign masks and labels, a skeleton its nodes
and neighbour masks), survives a ``pickle`` round trip
(as the records of a study run on worker processes must) and refuses
assignment.  The records and parameter types are named tuples, so they
equal the plain tuple of their fields and ``_replace`` works on them; where
the constructor checks its arguments, ``_replace`` checks the same way.
The two graph types are not tuples: ``len`` of one is an error, and they
equal only their own kind.
"""

import copy
import pickle

import pytest

from balance_lab import (
    AbsorptionRecord,
    AppraisalMatrix,
    BalanceViolation,
    ErParams,
    FactionPartition,
    RegressionResult,
    SihParams,
    SiohParams,
    SiohState,
    SubchordalWitness,
    SubgraphCertificate,
    TrialRecord,
    TriangulationFan,
    UndirectedSkeleton,
    UpdateEvent,
)
from balance_lab.balance import NEGATIVE_TRIAD, NO_NEGATIVE_LINKS, TWO_FACTION
from balance_lab.dynamics import SYMMETRY

X = AppraisalMatrix(((0, 1, -1), (1, 0, 0), (-1, 1, 0)), (2, 5, 9))
ER = ErParams(8, 0.5, 0.25)

# (type, field names in order, arguments already in their stored form)
TABLE = [
    (AppraisalMatrix, ("rows", "labels"), (X.rows, (2, 5, 9))),
    (UndirectedSkeleton, ("nodes", "edges"), ((1, 2, 3), frozenset({(1, 2), (2, 3)}))),
    (FactionPartition, ("kind", "v1", "v2"), (TWO_FACTION, frozenset({1, 2}), frozenset({3}))),
    (SubchordalWitness, ("cycle", "extra_edges"), ((1, 2, 3, 4), frozenset({(1, 3)}))),
    (TriangulationFan, ("triads",), (((1, 2, 3), (1, 3, 4)),)),
    (
        SubgraphCertificate,
        ("nodes", "certified", "cycle", "reason"),
        ((1, 2, 3, 4), False, None, "no subchordal covering cycle"),
    ),
    (SihParams, ("p1", "p2", "p3"), (0.2, 0.3, 0.5)),
    (SiohParams, ("q1", "q2", "q3", "sih"), (0.5, 0.25, 0.25, SihParams(0.6, 0.2, 0.2))),
    (SiohState, ("x", "y"), (X, (1, -1, 1))),
    (
        AbsorptionRecord,
        ("absorbed", "steps", "final_x", "final_y", "events"),
        (True, 3, X, (1, 1, 1), ()),
    ),
    (ErParams, ("n", "p", "p_neg"), (8, 0.5, 0.25)),
    (
        TrialRecord,
        ("trial_index", "seed", "er", "c0", "c_inf", "rho_link", "n_triad", "steps", "absorbed"),
        (4, 17, ER, 0.25, 0.0, 0.5, 2, 30, True),
    ),
    (RegressionResult, ("k", "b", "r", "n_points"), (1.5, -0.25, 0.9, 12)),
]
GRAPH_TYPES = (AppraisalMatrix, UndirectedSkeleton)
# X's (plus, minus) sign masks and labels: bit b of plus[a] is X[a][b] == 1.
# The skeleton's nodes and neighbour masks: bit b of masks[a] is the edge {a + 1, b + 1}.
HASH_KEYS = {
    AppraisalMatrix: (((2, 1, 2), (4, 0, 1)), (2, 5, 9)),
    UndirectedSkeleton: ((1, 2, 3), (2, 5, 2)),
}
IDS = [cls.__name__ for cls, _, _ in TABLE]


@pytest.mark.parametrize("cls, fields, args", TABLE, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, args):
    value = cls(*args)
    assert value == cls(**dict(zip(fields, args)))
    assert tuple(getattr(value, name) for name in fields) == args


@pytest.mark.parametrize("cls, fields, args", TABLE, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, args):
    assert hash(cls(*args)) == hash(HASH_KEYS.get(cls, args))


@pytest.mark.parametrize("cls, fields, args", TABLE, ids=IDS)
def test_pickle_round_trip_returns_an_equal_value(cls, fields, args):
    value = cls(*args)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)


@pytest.mark.parametrize("cls, fields, args", TABLE, ids=IDS)
def test_fields_refuse_assignment(cls, fields, args):
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("cls, fields, args", TABLE, ids=IDS)
def test_records_are_tuples_and_graphs_are_not(cls, fields, args):
    value = cls(*args)
    if cls in GRAPH_TYPES:
        with pytest.raises(TypeError):
            len(value)
        assert value != args
    else:
        assert value == args and len(value) == len(fields)
        assert value._replace(**{fields[-1]: args[-1]}) == value


def test_defaults():
    assert SihParams() == SihParams(1 / 3, 1 / 3, 1 / 3)
    assert SiohParams().sih == SihParams()
    assert SiohParams(sih=SihParams(0.6, 0.2, 0.2)).q1 == 1 / 3
    assert FactionPartition(NO_NEGATIVE_LINKS, frozenset({1})).v2 == frozenset()
    assert SubgraphCertificate((1, 2, 3), True, None).reason is None
    record = AbsorptionRecord(True, 0, X)
    assert record.final_y is None and record.events is None
    assert AppraisalMatrix(X.rows).labels == (1, 2, 3)
    assert UndirectedSkeleton((1, 2)).edges == frozenset()


def test_graph_types_equal_only_their_own_kind():
    class Sub(AppraisalMatrix):
        pass

    assert X != Sub(X.rows, X.labels)
    assert X != UndirectedSkeleton(X.labels)


# A checked value and a change its constructor refuses.
REFUSED_CHANGES = [
    (SihParams(), {"p1": 2.0}),
    (SiohParams(), {"q2": -0.1}),
    (SiohState(X, (1, -1, 1)), {"y": (1, 1)}),
    (ErParams(8, 0.5, 0.25), {"n": 1}),
    (FactionPartition(TWO_FACTION, frozenset({1, 2}), frozenset({3})), {"v2": frozenset({2})}),
    (SubchordalWitness((1, 2, 3, 4), frozenset({(1, 3)})), {"extra_edges": frozenset()}),
    (UpdateEvent(0, 1, 2, SYMMETRY, None, 1, -1), {"k": 3}),
    (BalanceViolation(NEGATIVE_TRIAD, (1, 2, 3)), {"nodes": (1, 2)}),
]


@pytest.mark.parametrize(
    "value, changes", REFUSED_CHANGES, ids=[type(v).__name__ for v, _ in REFUSED_CHANGES]
)
def test_replace_checks_like_the_constructor(value, changes):
    with pytest.raises(ValueError) as direct:
        type(value)(**{**value._asdict(), **changes})
    with pytest.raises(ValueError) as replaced:
        value._replace(**changes)
    assert str(replaced.value) == str(direct.value)
    if hasattr(copy, "replace"):
        with pytest.raises(ValueError) as copied:
            copy.replace(value, **changes)
        assert str(copied.value) == str(direct.value)
    with pytest.raises(ValueError, match="unexpected field names"):
        value._replace(missing=0)
