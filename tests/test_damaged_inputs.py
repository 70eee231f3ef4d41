"""Damaged feature stores, configs, pools, maps, forecasts and results
through `cli.main`.

Each example takes a small valid workspace, damages one field that the
reader needs (drops it, or sets it to a string, NaN, a list or null) and
runs the command that reads it. The command must exit 2, the domain-error
code, with no exception escaping and no traceback on stderr. Further cases
set a field to Infinity, a 400-digit integer, `true`, its own JSON text as
a string or, for an integer, a fraction, set an id to a number or a map
list to an object, or damage a file's bytes (not UTF-8, or nested 10^5
arrays deep); their errors must also name the file, and the line of a
line-oriented file.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcurator import cli

CONFIG = {
    "tasks": [{"name": "busy", "weights": {"crowd_dynamic": 1.0, "class_div": 0.5}, "budget": 1}],
    "k_div": 1,
    "seed": 0,
    "roi_radius": 75.0,
    "near_dist": 10.0,
    "horizon": 5.0,
    "map_match_gate": 3.0,
    "map_match_min_frac": 0.9,
    "lane_width_fallback": 3.6,
    "normalization": "zscore",
}
DROP = "drop"
VALUES = {"string": "x", "nan": float("nan"), "list": [[]], "null": None}
SET = tuple(VALUES)
ANY = (DROP,) + SET
# only in the explicit examples and the targets that name them: k_div, seed
# and budget rightly accept a huge integer, and a store's valid flag is a
# boolean. "numstr" and "fraction" derive from the value they replace: its
# own JSON text as a string ("20" for 20, "false" for false), and the
# integer plus 0.9, which int() would have truncated back to it.
DAMAGES = {
    **VALUES,
    "inf": float("inf"),
    "bigint": 10**400,
    "fraction": lambda value: value + 0.9,
    "numstr": json.dumps,
    "bool": True,
    "number": 7,
    "object": {},
}

# (file, line, key path, damages that make the field invalid). Ids must be
# JSON strings, but any string is one; task names are free-form, so they are
# only dropped; optional config fields fall back to defaults, so they are only
# set. The number rule covers every input file: a numeric string or a boolean
# is no number, and a fraction is no integer.
NUMBER_RULE_TARGETS = [
    ("feats/snippet_features.jsonl", 2, ("values", 3), ("numstr", "bool")),
    ("feats/frame_features.jsonl", 2, ("values", 0, 5), ("numstr", "bool")),
    ("feats/normalization.json", 0, ("snippet", "std", 1), ("numstr", "bool")),
    ("feats/normalization.json", 0, ("frame", "mean", 0), ("numstr", "bool")),
    ("pool.jsonl", 0, ("snippet_length",), ("numstr", "fraction")),
]
# ids and names are JSON strings, never what str() makes of another value,
# and a map's lists are JSON arrays; the map's fourth lane is one that no
# other lane references
NOT_TEXT = ("null", "list", "number")
TEXT_RULE_TARGETS = (
    [("pool.jsonl", 1, (key,), NOT_TEXT) for key in ("snippet_id", "log_id")]
    + [("pool.jsonl", 1, ("frames", 4, "detections", 0, "track_id"), NOT_TEXT)]
    + [("scene.map.json", 0, ("lanes", 3, "id"), NOT_TEXT)]
    + [("scene.map.json", 0, ("lanes", 0, "left_neighbor"), ("list", "object"))]
    + [("forecasts.jsonl", 1, (key,), NOT_TEXT) for key in ("snippet_id", "actor_id")]
    + [
        ("scene.map.json", 0, (key,), ("object",))
        for key in ("lanes", "intersections", "traffic_controls", "crosswalks")
    ]
)
# a result that report reads must hold lists of objects and of string ids
RESULT_TARGETS = [
    ("result.json", 0, ("selected",), ("bigint", "null")),
    ("result.json", 0, ("selected", 0), ("list", "bigint")),
    ("result.json", 0, ("tasks", 0), ("bigint", "null")),
    ("result.json", 0, ("audit", 0), ("bigint", "null")),
    ("result.json", 0, ("diverse",), ("bigint", "null")),
]
SNIPPET_FIELDS = [(key,) for key in ("kind", "snippet_id", "valid", "values")] + [("values", 3)]
FRAME_FIELDS = [(key,) for key in ("kind", "snippet_id", "values")] + [("values", 0, 5)]
TARGETS = (
    [("config.json", 0, (key,), SET) for key in CONFIG]
    + [("config.json", 0, ("tasks", 0, key), ANY) for key in ("weights", "budget")]
    + [
        ("config.json", 0, ("tasks", 0, "name"), (DROP,)),
        ("config.json", 0, ("tasks", 0, "weights", "crowd_dynamic"), SET),
    ]
    + [("feats/snippet_features.jsonl", 0, (key,), ANY) for key in ("kind", "names")]
    + [("feats/snippet_features.jsonl", 2, path, ANY) for path in SNIPPET_FIELDS]
    + [("feats/frame_features.jsonl", 0, (key,), ANY) for key in ("kind", "names")]
    + [("feats/frame_features.jsonl", 2, path, ANY) for path in FRAME_FIELDS]
    + [
        ("feats/normalization.json", 0, path, ANY)
        for part in ("snippet", "frame")
        for path in [(part,), (part, "mean"), (part, "std"), (part, "flagged"), (part, "std", 1)]
    ]
    + [
        ("pool.jsonl", 0, (key,), ANY)
        for key in ("kind", "schema_version", "map_path", "snippet_length")
    ]
    + [("pool.jsonl", 1, (key,), (DROP,)) for key in ("snippet_id", "log_id")]
    + [("pool.jsonl", 1, (key,), ANY) for key in ("kind", "frame_range", "frames")]
    + [
        ("pool.jsonl", 1, ("frames", 4, key), ANY)
        for key in ("index", "timestamp", "ego_pose", "geo", "detections")
    ]
    + [("pool.jsonl", 1, ("frames", 4, "detections", 0), SET)]
    + [
        ("pool.jsonl", 1, ("frames", 4, "detections", 0, key), ANY)
        for key in ("class", "center", "yaw", "size", "speed")
    ]
    + [("pool.jsonl", 1, ("frames", 4, "detections", 0, "track_id"), (DROP,))]
    + [
        ("forecasts.jsonl", 1, path, ANY)
        for path in [("kind",), ("frame_index",), ("timestep",), ("mu",), ("cov",), ("mu", 0), ("cov", 2)]
    ]
    + [("forecasts.jsonl", 1, (key,), (DROP,)) for key in ("snippet_id", "actor_id")]
    + [
        ("feats/provenance.json", 0, (key,), ANY)
        for key in (
            "kind", "schema_version", "pool_sha256", "map_name", "map_sha256",
            "snippet_length", "config", "snippets",
        )
    ]
    + [("feats/provenance.json", 0, ("config", key), ANY) for key in ("roi_radius", "normalization")]
    + [
        ("feats/provenance.json", 0, ("snippets", 0), SET),
        ("feats/provenance.json", 0, ("snippets", 0, 0), ANY),
        ("feats/provenance.json", 0, ("snippets", 0, 2), ANY),
        ("feats/provenance.json", 0, ("snippets", 0, 2, 1), ANY),
        # any string is a log id
        ("feats/provenance.json", 0, ("snippets", 0, 1), (DROP, "nan", "list", "null")),
    ]
    + NUMBER_RULE_TARGETS
    + TEXT_RULE_TARGETS
    + RESULT_TARGETS
)


@st.composite
def damages(draw):
    name, line, path, kinds = draw(st.sampled_from(TARGETS))
    return name, line, path, draw(st.sampled_from(kinds))


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("damaged")
    pool = str(root / "pool.jsonl")
    synth = ["synth", "--snippets", "3", "--frames", "20", "--seed", "3", "--jitter"]
    assert cli.main(synth + ["--out", pool, "--forecasts", str(root / "forecasts.jsonl")]) == 0
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert cli.main(["score", pool, "--out", str(root / "feats")]) == 0
    config, result = str(root / "config.json"), str(root / "result.json")
    assert cli.main(["curate", pool, "--config", config, "--out", result]) == 0
    return str(root)


def damage_file(path, line, key_path, kind):
    with open(path) as fh:
        lines = fh.read().splitlines()
    obj = json.loads(lines[line])
    *parents, last = key_path
    target = obj
    for key in parents:
        target = target[key]
    if kind == DROP:
        target.pop(last)
    else:
        value = DAMAGES[kind]
        target[last] = value(target[last]) if callable(value) else value
    lines[line] = json.dumps(obj)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def command(root, name):
    pool = os.path.join(root, "pool.jsonl")
    if name in ("pool.jsonl", "scene.map.json"):
        return ["score", pool, "--out", os.path.join(root, "feats2")]
    if name == "forecasts.jsonl":
        forecasts, out = os.path.join(root, name), os.path.join(root, "b.json")
        return ["baseline", pool, "--method", "entropy", "-k", "1", "--forecasts", forecasts, "--out", out]
    if name == "result.json":
        return ["report", pool, os.path.join(root, name), "--out-dir", os.path.join(root, "report")]
    config = os.path.join(root, "config.json")
    out, feats = os.path.join(root, "r.json"), os.path.join(root, "feats")
    return ["curate", pool, "--config", config, "--out", out, "--features", feats]


def test_undamaged_workspace_runs(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        # result.json: report, which ended in a traceback from np.histogram
        # on a feature column whose min and max were a few ulps apart
        for name in ("pool.jsonl", "config.json", "forecasts.jsonl", "result.json"):
            assert cli.main(command(root, name)) == 0


# the cases that each ended in a traceback before these inputs were checked
@example(damage=("config.json", 0, ("tasks", 0, "weights", "crowd_dynamic"), "string"))
@example(damage=("feats/frame_features.jsonl", 2, ("values",), DROP))
@example(damage=("feats/frame_features.jsonl", 2, ("values", 0, 5), "nan"))
@example(damage=("feats/normalization.json", 0, ("snippet",), DROP))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0, "speed"), "string"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "timestamp"), "string"))
@example(damage=("pool.jsonl", 0, ("snippet_length",), "string"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0), "nan"))
# and the cases that each ended in an OverflowError traceback
@example(damage=("pool.jsonl", 0, ("snippet_length",), "inf"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "index"), "inf"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "timestamp"), "bigint"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0, "yaw"), "bigint"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0, "speed"), "bigint"))
@example(damage=("config.json", 0, ("roi_radius",), "bigint"))
@example(damage=("config.json", 0, ("tasks", 0, "weights", "crowd_dynamic"), "bigint"))
@example(damage=("feats/snippet_features.jsonl", 2, ("values", 3), "bigint"))
@example(damage=("feats/normalization.json", 0, ("snippet", "std", 1), "bigint"))
# and the numbers numpy read where the pool held something else
@example(damage=("pool.jsonl", 1, ("frames", 4, "index"), "fraction"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0, "speed"), "numstr"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "detections", 0, "yaw"), "bool"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "ego_pose", 2), "bool"))
@example(damage=("pool.jsonl", 1, ("frames", 4, "index"), "bool"))
@example(damage=("pool.jsonl", 1, ("frame_range", 1), "fraction"))
# and a provenance.json that no longer fingerprints the store
@example(damage=("feats/provenance.json", 0, ("config", "roi_radius"), "nan"))
@example(damage=("feats/provenance.json", 0, ("snippets", 0, 2, 1), "string"))
@example(damage=("feats/provenance.json", 0, ("map_name",), "string"))
# and the ids read through str() and the map lists read as empty
@example(damage=("pool.jsonl", 1, ("snippet_id",), "null"))
@example(damage=("pool.jsonl", 1, ("log_id",), "number"))
@example(damage=("scene.map.json", 0, ("intersections",), "object"))
@example(damage=("forecasts.jsonl", 1, ("actor_id",), "list"))
@example(damage=("scene.map.json", 0, ("lanes", 0, "left_neighbor"), "object"))
# and the forecast values the loader once accepted, or that overflowed
@example(damage=("forecasts.jsonl", 1, ("cov", 2), "inf"))
@example(damage=("forecasts.jsonl", 1, ("frame_index",), "fraction"))
@example(damage=("forecasts.jsonl", 1, ("mu", 0), "numstr"))
@example(damage=("forecasts.jsonl", 1, ("timestep",), "bool"))
@settings(max_examples=300)
@given(damage=damages())
def test_damaged_input_is_a_domain_error(base, damage):
    name, line, key_path, kind = damage
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        damage_file(os.path.join(root, name), line, key_path, kind)
        code = cli.main(command(root, name))
    assert code == 2, (damage, err.getvalue())
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "key_path,kind,field",
    [
        (("frames", 4, "index"), "fraction", "frame index"),
        (("frames", 4, "detections", 0, "speed"), "numstr", "detection speed"),
        (("frames", 4, "detections", 0, "size", 0), "bool", "detection size"),
        (("frames", 4, "timestamp"), "bool", "frame timestamp"),
    ],
)
def test_pool_number_of_another_type_names_file_line_and_field(base, key_path, kind, field):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, "pool.jsonl")
        damage_file(path, 1, key_path, kind)
        code, err = run_damaged(root, "pool.jsonl")
    assert code == 2, err
    assert f"pool file {path} line 2: every {field} must be" in err


def test_integral_float_frame_index_is_accepted(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        pool = os.path.join(root, "pool.jsonl")
        with open(pool) as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[1])
        obj["frames"][4]["index"] = float(obj["frames"][4]["index"])
        lines[1] = json.dumps(obj)
        with open(pool, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, err = run_damaged(root, "pool.jsonl")
    assert code == 0, err


@pytest.mark.parametrize(
    "name,line,key_path,kind",
    [(name, line, path, kind)
     for name, line, path, kinds in NUMBER_RULE_TARGETS + RESULT_TARGETS + TEXT_RULE_TARGETS
     for kind in kinds],
)
def test_number_rule_and_result_shape_name_the_file(base, name, line, key_path, kind):
    assert_damage_names_the_file(base, name, line, key_path, kind)


def assert_damage_names_the_file(workspace, name, line, key_path, kind):
    """One damaged field of file `name`, in a copy of `workspace`, makes the
    command that reads the file exit 2 with an error naming it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(workspace, os.path.join(tmp, "w"))
        path = os.path.join(root, name)
        damage_file(path, line, key_path, kind)
        code, err = run_damaged(root, name)
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert path in err


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().split("\n")[:-1]


def test_reported_lines_count_blank_lines(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, "forecasts.jsonl")
        header, *records = read_lines(path)
        write_lines(path, [header, "", "", "{broken"])
        code, err = run_damaged(root, "forecasts.jsonl")
        assert code == 2, err
        assert f"forecast file {path} line 4: invalid JSON" in err

        # a record that breaks a number rule, and a header fault, name
        # their own lines too
        bad = json.loads(records[1])
        bad["frame_index"] += 0.5
        write_lines(path, [header, "", records[0], "", json.dumps(bad), *records[2:]])
        code, err = run_damaged(root, "forecasts.jsonl")
        assert code == 2, err
        assert f"forecast file {path} line 5: malformed forecast record" in err
        pool = os.path.join(root, "pool.jsonl")
        pool_header, *snippets = read_lines(pool)
        write_lines(pool, ["", pool_header.replace('"snippet_length":20', '"snippet_length":"20"')] + snippets)
        code, err = run_damaged(root, "pool.jsonl")
        assert code == 2, err
        assert f"pool file {pool} line 2: malformed header field" in err


def test_rows_split_at_newlines_only(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        pool = os.path.join(root, "pool.jsonl")
        header, first, *rest = read_lines(pool)
        # U+2028, U+2029 and U+0085 are valid raw in a JSON string, and
        # str.splitlines() would break the row at each of them
        record = json.loads(first)
        record["snippet_id"] += "\u2028\u2029\x85"
        write_lines(pool, [header, json.dumps(record, ensure_ascii=False), *rest])
        code, err = run_damaged(root, "pool.jsonl")
        assert code == 0, err
        # a trailing carriage return ends a row like a newline
        with open(pool, "w", encoding="utf-8", newline="\r\n") as fh:
            fh.write("\n".join([header, first, *rest]) + "\n")
        code, err = run_damaged(root, "pool.jsonl")
        assert code == 0, err


@pytest.mark.parametrize(
    "key,value,fault",
    [
        ("horizon", "7", "malformed header field"),
        ("horizon", 2.9, "malformed header field"),
        ("horizon", True, "malformed header field"),
        ("horizon", None, "malformed header field"),
        ("horizon", DROP, "header missing field 'horizon'"),
        ("schema_version", 7, "unsupported schema_version 7"),
        ("schema_version", True, "malformed header field"),
    ],
)
def test_forecast_header_is_checked(base, key, value, fault):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, "forecasts.jsonl")
        header, *records = read_lines(path)
        header = json.loads(header)
        if value == DROP:
            header.pop(key)
        else:
            header[key] = value
        # after a blank line, the header is on line 2
        write_lines(path, ["", json.dumps(header), *records])
        code, err = run_damaged(root, "forecasts.jsonl")
    assert code == 2, err
    assert err.startswith(f"error: forecast file {path} line 2: {fault}"), err


def run_damaged(root, name):
    """(exit code, stderr) of the command that reads file `name` of `root`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(command(root, name))
    return code, err.getvalue()


# (file, line of a line-oriented file or None for a one-value file)
FILES = [
    ("pool.jsonl", 1),
    ("scene.map.json", None),
    ("config.json", None),
    ("feats/snippet_features.jsonl", 2),
    ("feats/normalization.json", None),
    ("feats/provenance.json", None),
    ("forecasts.jsonl", 1),
    ("result.json", None),
]
BYTE_DAMAGES = {
    "not_utf8": lambda text: text.replace(b'"', b'"\xff', 1),
    "nested_too_deep": lambda text: b"[" * 10**5 + b"]" * 10**5,
}


@pytest.mark.parametrize("damage", sorted(BYTE_DAMAGES))
@pytest.mark.parametrize("name,line", FILES)
def test_damaged_bytes_are_a_domain_error(base, name, line, damage):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        at = 0 if line is None else line
        lines[at] = BYTE_DAMAGES[damage](lines[at])
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        code, err = run_damaged(root, name)
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert path in err
    if line is not None:
        assert f"{path} line {line + 1}" in err


@pytest.fixture(scope="module")
def map_bases(tmp_path_factory):
    """template -> a one-snippet workspace whose map has the element a
    damage targets: controls at an intersection, or height samples."""
    out = {}
    for template in ("four_way_intersection", "hilly"):
        root = tmp_path_factory.mktemp(template)
        synth = ["synth", "--template", template, "--snippets", "1", "--frames", "20", "--jitter"]
        assert cli.main(synth + ["--out", str(root / "pool.jsonl")]) == 0
        out[template] = str(root)
    return out


MAP_TARGETS = [
    ("four_way_intersection", ("lanes", 0, "centerline", 0, 0)),
    ("four_way_intersection", ("traffic_controls", 0, "position", 1)),
    ("hilly", ("height_samples", 0, 2)),
]
# (template, key path, damages) under the number, flag and array rules:
# `true` is a valid is_bike_lane and null a valid width; a map list that is
# an object was once read as an empty list
MAP_NUMBER_TARGETS = [(template, path, ("numstr", "bool")) for template, path in MAP_TARGETS] + [
    ("four_way_intersection", ("lanes", 0, "is_bike_lane"), ("numstr", "string", "null", "nan")),
    ("four_way_intersection", ("lanes", 0, "width"), ("numstr", "bool")),
    ("four_way_intersection", ("intersections", 0, "incoming_roads"), ("numstr", "fraction")),
    ("four_way_intersection", ("intersections", 0, "lanes_per_road", 0), ("numstr", "bool", "fraction")),
    ("four_way_intersection", ("intersections", 0, "polygon", 0, 0), ("numstr", "bool")),
    ("four_way_intersection", ("crosswalks", 0, 0, 1), ("numstr", "bool")),
] + [
    ("four_way_intersection", (key,), ("object",))
    for key in ("intersections", "traffic_controls", "crosswalks")
]


@pytest.mark.parametrize(
    "template,key_path,kind",
    [
        pytest.param(template, path, kind, id="-".join(map(str, (template, *path, kind))))
        for template, path, kinds in MAP_NUMBER_TARGETS
        for kind in kinds
    ],
)
def test_map_number_of_another_type_is_a_domain_error(map_bases, template, key_path, kind):
    assert_damage_names_the_file(map_bases[template], "scene.map.json", 0, key_path, kind)


@pytest.mark.parametrize("kind", ["nan", "inf", "bigint", "string", "null"])
@pytest.mark.parametrize("template,key_path", MAP_TARGETS)
def test_damaged_map_is_a_domain_error(map_bases, template, key_path, kind):
    assert_damage_names_the_file(map_bases[template], "scene.map.json", 0, key_path, kind)


def test_overflowing_task_score_is_a_domain_error(base):
    weights = {"crowd_dynamic": 1e308, "crowd_static": -1e308, "turns": 1e308}
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        config = dict(CONFIG, tasks=[dict(CONFIG["tasks"][0], weights=weights)])
        with open(os.path.join(root, "config.json"), "w") as fh:
            json.dump(config, fh)
        code, err = run_damaged(root, "config.json")
    assert code == 2, err
    assert err.startswith("error: task 'busy': ") and "not finite" in err


def test_zero_spread_in_an_unflagged_dimension_is_a_domain_error(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, "feats", "normalization.json")
        with open(path) as fh:
            stats = json.load(fh)
        dim = min(set(range(len(stats["frame"]["std"]))) - set(stats["frame"]["flagged"]))
        stats["frame"]["std"][dim] = 0.0
        with open(path, "w") as fh:
            json.dump(stats, fh)
        code, err = run_damaged(root, "feats/normalization.json")
    assert code == 2, err
    assert err.startswith("error: ") and path in err
    assert f"'frame' std has zero spread in dimension(s) {dim}," in err


def test_overflowing_forecast_covariance_is_a_domain_error(base):
    with tempfile.TemporaryDirectory() as tmp:
        root = shutil.copytree(base, os.path.join(tmp, "w"))
        path = os.path.join(root, "forecasts.jsonl")
        with open(path) as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[1])
        record["cov"] = [1e308, 0, 1e308]
        lines[1] = json.dumps(record)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, err = run_damaged(root, "forecasts.jsonl")
    assert code == 2, err
    assert err.startswith("error: snippet ") and "has no finite entropy" in err
