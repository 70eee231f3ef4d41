import hashlib
import itertools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import scene, synthgen

from support import (
    cross_map,
    drive,
    make_detection,
    make_frame,
    make_snippet,
    pool_of,
    square_intersection,
)


def damageable_record():
    """A valid six-frame snippet record with three tracks, one per class; the
    pedestrian leaves after frame 3."""
    frames = []
    for k in range(6):
        dets = [
            make_detection("car", "vehicle", (5.0 + k, 1.0), speed=3.0, yaw=0.1),
            make_detection("bike", "bicyclist", (-3.0, 2.0 + k), speed=1.5, size=(1.8, 0.6)),
        ]
        if k <= 3:
            dets.insert(1, make_detection("ped", "pedestrian", (2.0, -4.0), speed=0.5))
        frames.append(make_frame(10 + k, ego=(float(k), 0.0, 0.0), detections=dets))
    return {"snippet_id": "s0", "log_id": "L", "frame_range": [10, 15], "frames": frames}


BAD_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def damage_steps(draw):
    """One damage to one field of one frame or detection of
    `damageable_record()`, as a function that applies it."""
    k = draw(st.integers(0, 5))
    j = draw(st.integers(0, 2))
    kind = draw(
        st.sampled_from(
            ["index", "timestamp", "heading", "geo", "frame_nan", "class", "switch", "size", "speed", "det_nan"]
        )
    )
    if kind == "index":
        value = draw(st.integers(0, 20))
        return lambda r: r["frames"][k].__setitem__("index", value)
    if kind == "timestamp":
        back = draw(st.sampled_from([0.0, 0.05, 0.3]))
        return lambda r: r["frames"][k].__setitem__("timestamp", r["frames"][max(k - 1, 0)]["timestamp"] - back)
    if kind == "heading":
        value = draw(st.sampled_from([np.pi, -np.pi, 3.5, -4.0]))
        return lambda r: r["frames"][k]["ego_pose"].__setitem__(2, value)
    if kind == "geo":
        i, value = draw(st.sampled_from([(0, 90.5), (0, -91.0), (1, 180.5), (1, -200.0), (0, 90.0)]))
        return lambda r: r["frames"][k]["geo"].__setitem__(i, value)
    if kind == "frame_nan":
        field, i = draw(st.sampled_from([("timestamp", None), ("ego_pose", 0), ("ego_pose", 1),
                                         ("ego_pose", 2), ("geo", 0), ("geo", 1)]))
        value = draw(BAD_FLOATS)
        if i is None:
            return lambda r: r["frames"][k].__setitem__(field, value)
        return lambda r: r["frames"][k][field].__setitem__(i, value)

    def at(r):
        dets = r["frames"][k]["detections"]
        return dets[min(j, len(dets) - 1)]

    if kind == "class":
        value = draw(st.sampled_from(["unicycle", "truck", "Vehicle"]))
        return lambda r: at(r).__setitem__("class", value)
    if kind == "switch":
        value = draw(st.sampled_from(scene.DETECTION_CLASSES))
        return lambda r: at(r).__setitem__("class", value)
    if kind == "size":
        i, value = draw(st.integers(0, 1)), draw(st.sampled_from([0.0, -1.0, -0.0]))
        return lambda r: at(r)["size"].__setitem__(i, value)
    if kind == "speed":
        value = draw(st.sampled_from([-0.5, -1e-9, -0.0]))
        return lambda r: at(r).__setitem__("speed", value)
    field, i = draw(st.sampled_from([("center", 0), ("center", 1), ("yaw", None), ("size", 0),
                                     ("size", 1), ("speed", None)]))
    value = draw(BAD_FLOATS)
    if i is None:
        return lambda r: at(r).__setitem__(field, value)
    return lambda r: at(r)[field].__setitem__(i, value)


@st.composite
def damaged_pools(draw):
    """Pool records of six-frame snippets: `damageable_record()`s under ids
    drawn from three, so some repeat, each damaged by `damage_steps` and
    some cut short of the header's length."""
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        record = damageable_record()
        record["snippet_id"] = draw(st.sampled_from(["s0", "s1", "s2"]))
        for step in draw(st.lists(damage_steps(), max_size=3)):
            step(record)
        record["frames"] = record["frames"][: draw(st.sampled_from([6, 6, 6, 2, 5]))]
        pool.append({"kind": "snippet", **record})
    return pool


def snip(sid, log_id, first, last):
    frames = [make_frame(i) for i in range(first, last + 1)]
    return make_snippet(frames, sid, log_id)


class TestOverlap:
    def test_shared_frames_same_log(self):
        assert scene.snippets_overlap(snip("a", "L", 0, 249), snip("b", "L", 100, 349))

    def test_adjacent_ranges_disjoint(self):
        assert not scene.snippets_overlap(snip("a", "L", 0, 249), snip("b", "L", 250, 499))

    def test_different_logs_never_overlap(self):
        assert not scene.snippets_overlap(snip("a", "L1", 0, 249), snip("b", "L2", 0, 249))

    @given(st.integers(0, 500), st.integers(0, 200), st.integers(0, 500), st.integers(0, 200))
    def test_symmetric_and_reflexive(self, a0, alen, b0, blen):
        a = snip("a", "L", a0, a0 + alen)
        b = snip("b", "L", b0, b0 + blen)
        assert scene.snippets_overlap(a, b) == scene.snippets_overlap(b, a)
        assert scene.snippets_overlap(a, a)


class TestRuns:
    def test_empty_column_has_no_runs(self):
        assert scene.runs(np.array([], dtype=int)) == []

    def test_constant_column_is_one_run(self):
        assert scene.runs(np.full(5, 7)) == [(0, 5)]

    def test_alternating_column_is_one_run_per_value(self):
        assert scene.runs(np.array([1, 2, 1, 2])) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_boolean_column(self):
        keys = np.array([True, True, False, True])
        assert scene.runs(keys) == [(0, 2), (2, 3), (3, 4)]

    @given(st.lists(st.integers(-2, 2), max_size=30))
    def test_matches_groupby(self, values):
        spans, at = [], 0
        for _, group in itertools.groupby(values):
            n = len(list(group))
            spans.append((at, at + n))
            at += n
        assert scene.runs(np.array(values, dtype=int)) == spans


def validate(s):
    """The snippet's report by the loader's column rules, as a chunk of one."""
    return scene.ValidationReport(tuple(scene._check([s])[0]))


class TestValidation:
    def test_valid_snippet_empty_report(self):
        s = drive([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        report = validate(s)
        assert report.ok

    def test_non_monotone_timestamp(self):
        frames = [make_frame(0), make_frame(1), make_frame(2)]
        frames[2]["timestamp"] = 0.05
        report = validate(make_snippet(frames))
        assert [f.rule for f in report.findings] == ["timestamps"]

    def test_unknown_detection_class(self):
        det = make_detection(label="unicycle")
        s = make_snippet([make_frame(0, detections=(det,))])
        report = validate(s)
        assert any(f.rule == "class" for f in report.findings)

    def test_heading_outside_range(self):
        s = make_snippet([make_frame(0, ego=(0.0, 0.0, np.pi))])
        report = validate(s)
        assert any(f.rule == "heading" for f in report.findings)

    def test_frame_range_mismatch(self):
        s = scene.snippet_from_obj(
            {"snippet_id": "s0", "log_id": "L", "frame_range": [0, 5], "frames": [make_frame(0), make_frame(1)]}
        )
        report = validate(s)
        assert any(f.rule == "frame_range" for f in report.findings)

    def test_track_switching_class(self):
        f0 = make_frame(0, detections=(make_detection("t1", "vehicle"),))
        f1 = make_frame(1, detections=(make_detection("t1", "pedestrian"),))
        report = validate(make_snippet([f0, f1]))
        assert any(f.rule == "track_class" for f in report.findings)

    def test_findings_name_the_snippet(self):
        det = make_detection(speed=-1.0)
        s = make_snippet([make_frame(0, detections=(det,))], snippet_id="bad_one")
        report = validate(s)
        assert report.findings and all(f.snippet_id == "bad_one" for f in report.findings)

    @settings(max_examples=600, deadline=None)
    @given(st.lists(damage_steps(), min_size=1, max_size=4))
    def test_findings_match_the_per_frame_loop(self, steps):
        record = damageable_record()
        for step in steps:
            step(record)
        s = scene.snippet_from_obj(record)
        got = validate(s).findings
        assert got == ref.validate_snippet(s, scene.SceneMap()).findings

    @pytest.mark.parametrize("rows", [1, scene.VALIDATE_ROWS])
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pool=damaged_pools())
    def test_chunked_findings_match_the_per_snippet_loop(self, pool, rows, monkeypatch):
        # one snippet per chunk, and the whole pool in one chunk
        monkeypatch.setattr(scene, "VALIDATE_ROWS", rows)
        want, seen = [], set()
        for record in pool:
            s = scene.snippet_from_obj(record)
            if s.snippet_id in seen:
                want.append(scene.Finding(s.snippet_id, "pool.ids", "duplicate snippet_id"))
            seen.add(s.snippet_id)
            if s.num_frames != 6:
                detail = f"{s.num_frames} frames, header says 6"
                want.append(scene.Finding(s.snippet_id, "pool.length", detail))
            want += ref.validate_snippet(s, scene.SceneMap()).findings
        with tempfile.TemporaryDirectory() as d:
            scene.save_map(scene.SceneMap(), os.path.join(d, "scene.map.json"))
            header = {"kind": "pool_header", "schema_version": 1, "map_path": "scene.map.json",
                      "snippet_length": 6}
            path = os.path.join(d, "pool.jsonl")
            with open(path, "w") as fh:  # json.dumps: damaged values may be NaN
                fh.write("\n".join(map(json.dumps, [header, *pool])) + "\n")
            try:
                scene.load_pool(path)
                got = []
            except scene.PoolValidationError as exc:
                got = exc.findings
        assert got == want

    def test_map_duplicate_lane_ids(self):
        lane = scene.Lane("same", ((0.0, 0.0), (1.0, 0.0)))
        report = scene.validate_map(scene.SceneMap(lanes=(lane, lane)))
        assert any(f.rule == "map.lane_ids" for f in report.findings)

    def test_map_dangling_successor(self):
        lane = scene.Lane("a", ((0.0, 0.0), (1.0, 0.0)), successors=("ghost",))
        report = scene.validate_map(scene.SceneMap(lanes=(lane,)))
        assert any(f.rule == "map.reference" for f in report.findings)

    def test_map_self_intersecting_polygon(self):
        bowtie = ((0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 4.0))
        inter = scene.Intersection(bowtie, 2, (1, 1))
        report = scene.validate_map(scene.SceneMap(intersections=(inter,)))
        assert any(f.rule == "map.polygon" for f in report.findings)

    def test_valid_map_passes(self):
        m = cross_map(sign=True, light=True)
        m = scene.SceneMap(
            lanes=m.lanes,
            traffic_controls=m.traffic_controls,
            intersections=(square_intersection(),),
            crosswalks=(((-2.0, -8.0), (2.0, -8.0), (2.0, -6.0), (-2.0, -6.0)),),
            height_samples=((0.0, 0.0, 0.0), (5.0, 5.0, 1.0)),
        )
        assert scene.validate_map(m).ok


def build_pool():
    dets = [
        (make_detection("t1", "vehicle", (3.0, 1.0), speed=2.5),),
        (make_detection("t1", "vehicle", (3.3, 1.0), speed=2.5),
         make_detection("t2", "pedestrian", (-4.0, 2.0), speed=1.0)),
        (),
    ]
    a = drive([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)], "s_a", "logA", detections=dets)
    b = drive([(5.0, 0.0), (6.0, 0.0), (7.0, 0.0)], "s_b", "logB")
    return pool_of([a, b], cross_map(sign=True))


GOLDEN_POOL = os.path.join(os.path.dirname(__file__), "data", "golden", "pool.jsonl")


def overlap_pool():
    """Jittered four-way turns, two half-overlapping snippets per log."""
    spec = synthgen.default_spec(
        "four_way_intersection", "turn", seed=5, n_snippets=4, num_frames=40, jitter=True, overlap_every=2
    )
    return synthgen.generate_pool(spec)[0]


class TestRoundTrip:
    def test_save_load_byte_identity(self, tmp_path):
        pools = {"hand": build_pool(), "golden": scene.load_pool(GOLDEN_POOL), "overlap": overlap_pool()}
        for name, pool in pools.items():
            p1 = tmp_path / name / "pool.ndjson"
            scene.save_pool(pool, str(p1))
            loaded = scene.load_pool(str(p1))
            p2 = tmp_path / name / "again" / "pool.ndjson"
            scene.save_pool(loaded, str(p2))
            assert p1.read_bytes() == p2.read_bytes(), name
            assert (tmp_path / name / "scene.map.json").read_bytes() == (
                tmp_path / name / "again" / "scene.map.json"
            ).read_bytes(), name
        with open(GOLDEN_POOL, "rb") as fh:
            assert (tmp_path / "golden" / "pool.ndjson").read_bytes() == fh.read()

    def test_pool_carries_the_digests_of_the_bytes_it_parsed(self, tmp_path):
        scene.save_pool(build_pool(), str(tmp_path / "pool.ndjson"))
        loaded = scene.load_pool(str(tmp_path / "pool.ndjson"))
        for name, digest in (("pool.ndjson", loaded.pool_sha256), ("scene.map.json", loaded.map_sha256)):
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(), name

    def test_loaded_values_match(self, tmp_path):
        pool = build_pool()
        scene.save_pool(pool, str(tmp_path / "pool.ndjson"))
        loaded = scene.load_pool(str(tmp_path / "pool.ndjson"))
        assert [s.snippet_id for s in loaded.snippets] == ["s_a", "s_b"]
        s = loaded.snippets[0]
        row = s.frame_starts()[1] + 1  # frame 1, detection 1
        assert s.classes[s.det_label[row]] == "pedestrian"
        assert tuple(s.det_center[row].tolist()) == (-4.0, 2.0)
        assert loaded.scene_map.traffic_controls[0].kind == "stop_sign"

    def test_map_round_trip(self, tmp_path):
        m = cross_map(sign=True, light=True)
        path = tmp_path / "m.json"
        scene.save_map(m, str(path))
        again = scene.load_map(str(path))
        assert again == m

    def test_canonical_dumps_sorted_compact(self):
        out = scene.canonical_dumps({"b": 1, "a": [1.5, 2]})
        assert out == '{"a":[1.5,2],"b":1}'

    def test_canonical_dumps_rejects_nan(self):
        with pytest.raises(ValueError):
            scene.canonical_dumps({"x": float("nan")})

    def test_write_atomic_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        scene.write_atomic(str(target), "payload")
        assert target.read_text() == "payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_write_rows_is_the_layout_read_header_reads(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = iter([{"b": 1.5, "a": [1, 2]}, {"c": None}])
        scene.write_rows(str(path), "thing_header", {"size": 2}, rows)
        assert path.read_text() == (
            '{"kind":"thing_header","schema_version":1,"size":2}\n{"a":[1,2],"b":1.5}\n{"c":null}\n'
        )
        _, header, (size,), got = scene.read_header(
            str(path), scene.PoolFormatError, "rows", "thing_header", ("size",)
        )
        assert (header["size"], size) == (2, 2)
        assert list(got) == [(2, {"a": [1, 2], "b": 1.5}), (3, {"c": None})]

    def test_write_json_is_one_canonical_line(self, tmp_path):
        path = tmp_path / "new" / "obj.json"
        scene.write_json(str(path), {"b": [0.1, None], "a": True})
        assert path.read_text() == '{"a":true,"b":[0.1,null]}\n'


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(scene.PoolFormatError, match="cannot read"):
            scene.load_pool(str(tmp_path / "nope.ndjson"))

    def test_non_json_header(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text("not json at all\n")
        with pytest.raises(scene.PoolFormatError, match="header"):
            scene.load_pool(str(p))

    def test_wrong_first_record(self, tmp_path):
        p = tmp_path / "pool.ndjson"
        p.write_text('{"kind":"snippet"}\n')
        with pytest.raises(scene.PoolFormatError, match="pool header"):
            scene.load_pool(str(p))

    def test_bad_snippet_line_number(self, tmp_path):
        pool = build_pool()
        p = tmp_path / "pool.ndjson"
        scene.save_pool(pool, str(p))
        lines = p.read_text().splitlines()
        lines[2] = "{broken"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(scene.PoolFormatError, match="line 3"):
            scene.load_pool(str(p))

    def test_validation_findings_name_snippet(self, tmp_path):
        pool = build_pool()
        p = tmp_path / "pool.ndjson"
        scene.save_pool(pool, str(p))
        lines = p.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["frames"][1]["timestamp"] = -5.0
        lines[1] = scene.canonical_dumps(obj)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(scene.PoolValidationError) as err:
            scene.load_pool(str(p))
        assert any(f.snippet_id == "s_a" for f in err.value.findings)

    def test_length_mismatch_reported(self, tmp_path):
        pool = build_pool()
        short = drive([(0.0, 0.0), (1.0, 0.0)], "s_c", "logC")
        bad = scene.SnippetPool(
            pool.snippets + (short,), pool.scene_map, pool.snippet_length
        )
        p = tmp_path / "pool.ndjson"
        scene.save_pool(bad, str(p))
        with pytest.raises(scene.PoolValidationError) as err:
            scene.load_pool(str(p))
        assert any(f.rule == "pool.length" for f in err.value.findings)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
EDGES = ["", " ", "\t", "x", ",", ",1", "]", "}", '"', "\ufeff", "NaN", "[" * 3, "\u2028", "\x85"]


@st.composite
def ndjson_rows(draw):
    """One NDJSON row: a JSON value, with raw non-ASCII text, and a prefix
    or suffix that may break it, or arbitrary text; it holds no "\n" and
    ends in no "\r", which the reader takes as the end of the row."""
    if draw(st.booleans()):
        value = json.dumps(draw(JSON_VALUES), ensure_ascii=False)
        row = draw(st.sampled_from(EDGES)) + value + draw(st.sampled_from(EDGES))
    else:
        row = draw(st.text(min_size=1, max_size=12))
    return row.replace("\n", "").rstrip("\r") or "x"


@settings(max_examples=300, deadline=None)
@given(row=ndjson_rows())
def test_row_reader_is_json_loads(tmp_path_factory, row):
    if not row.strip(" \t\r"):  # the reader skips rows of JSON whitespace
        return
    path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
    path.write_text("{}\n" + row + "\n", encoding="utf-8")
    try:
        want = ("ok", json.loads(row))
    except (ValueError, RecursionError) as exc:
        want = ("error", f"rows {path} line 2: invalid JSON: {exc}")
    try:
        got = ("ok", list(scene.read_rows(str(path), scene.PoolFormatError, "rows"))[1][1])
    except scene.PoolFormatError as exc:
        got = ("error", str(exc))
    # NaN != NaN: compare the canonical text of what was read
    assert repr(got) == repr(want)
