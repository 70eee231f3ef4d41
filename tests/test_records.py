"""Every record type is an immutable `typing.NamedTuple`.

The records hold the columns and tables that every measure reads, and
several of them (a snippet's columns, a batch's tables, a route's conflict
zone) are shared between snippets, so none may be changed once built.
`Snippet`'s empty default columns are one array per field, shared by every
snippet built without them, so they must not be writeable either.
"""

import numpy as np
import pytest

from logcurator import baselines, features, geometry, scene, sdv, selection, traffic

MODULES = (scene, selection, features, geometry, sdv, traffic, baselines)
RECORDS = [
    value
    for module in MODULES
    for value in vars(module).values()
    if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
]


def test_every_record_type_is_found():
    assert {r.__name__ for r in RECORDS} >= {
        "Finding", "Snippet", "Lane", "Intersection", "TrafficControl",
        "SceneMap", "SnippetPool", "TaskConfig", "CurationConfig", "AuditEntry",
        "CurationResult", "FeatureVector", "ScoredBatch", "NormalizationStats",
        "FeatureBundle", "SegmentTable", "RouteMatch",
        "ConflictZone", "Detections", "Tracks", "ForecastEntry", "GaussianForecast",
    }


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_no_attribute_of_a_record_can_be_set_or_deleted(record):
    obj = record(*[None] * len(record._fields))
    names = [*record._fields, *(n for n, v in vars(record).items() if isinstance(v, property))]
    for name in [*names, "not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_snippet_default_columns_are_shared_and_read_only():
    a = scene.Snippet("a", "log", (0, 0))
    b = scene.Snippet("b", "log", (1, 1))
    columns = [n for n, v in scene.Snippet._field_defaults.items() if isinstance(v, np.ndarray)]
    assert {"index", "ego_pose", "det_center", "det_speed"} <= set(columns)
    for name in columns:
        column = getattr(a, name)
        assert column is getattr(b, name) and len(column) == 0
        assert not column.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0
