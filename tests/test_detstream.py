import io
import os

import numpy as np
import pytest

from trafficstate import detstream
from trafficstate.detstream import (
    ClassCatalog,
    Detection,
    DetectionBatch,
    format_detection,
    normalize_appearance,
    parse_detections,
    write_detections,
)
from trafficstate.errors import ParseError, ValidationError

from conftest import assert_no_child_left
from oracles import parse_by_rows


def parse_all(text, **kwargs):
    return list(parse_detections(io.StringIO(text), **kwargs))


def test_parse_plain_row():
    batches = parse_all("1,100,200,50,80,0.9,3\n")
    assert len(batches) == 1
    frame, batch = batches[0]
    assert frame == batch.frame == 1 and len(batch) == 1
    assert batch.boxes.tolist() == [[100.0, 200.0, 50.0, 80.0]]
    assert batch.confidence.tolist() == [0.9]
    assert batch.class_ids.tolist() == [3] and batch.class_ids.dtype == np.int64
    assert batch.appearance.shape == (1, 0)


def test_parse_unit_embedding_preserved():
    (_, batch), = parse_all("1,0,0,10,10,1.0,0,0.6,0.8\n")
    assert np.array_equal(batch.appearance, np.array([[0.6, 0.8]]))


def test_parse_embedding_normalized():
    (_, batch), = parse_all("1,0,0,10,10,1.0,0,3,4\n")
    assert np.allclose(batch.appearance, [[0.6, 0.8]])


def test_normalize_appearance_examples():
    assert np.array_equal(normalize_appearance(np.array([1.0, 0.0, 0.0])), [1, 0, 0])
    assert np.allclose(normalize_appearance(np.array([3.0, 4.0])), [0.6, 0.8])
    with pytest.raises(ValidationError):
        normalize_appearance(np.array([0.0, 0.0]))


@pytest.mark.parametrize("value", [1e308, 1e-200, 5e-324])
def test_normalize_appearance_rescales_when_squares_leave_float_range(value):
    # the squared sum overflows or underflows; the descriptor is still finite
    # and nonzero, so it normalizes without a warning
    v = normalize_appearance(np.array([value, value]))
    assert np.array_equal(v, normalize_appearance(np.array([1.0, 1.0])))


def test_normalize_appearance_keeps_bits_of_ordinary_descriptors():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=64) * 10.0 ** rng.uniform(-100, 100)
        assert np.array_equal(normalize_appearance(v), v / np.linalg.norm(v))


@pytest.mark.parametrize("v,message", [
    ([np.nan, 1.0], "non-finite embedding value"),
    ([np.inf, 0.0], "non-finite embedding value"),
    ([1e308, -np.inf], "non-finite embedding value"),
    ([0.0, 0.0], "zero norm"),
])
def test_normalize_appearance_rejects_non_finite_and_zero(v, message):
    with pytest.raises(ValidationError, match=message):
        normalize_appearance(np.array(v))


@pytest.mark.parametrize("row", ["1,0,0,10,10,1.0,0,1e308,1e308",
                                 "1,0,0,10,10,1.0,0,1e-200,1e-200"])
def test_parse_extreme_finite_embedding_is_unit(row):
    (_, batch), = parse_all(row + "\n")
    assert np.array_equal(batch.appearance[0], normalize_appearance(np.ones(2)))


@pytest.mark.parametrize("path,line_no,rendered", [
    (None, None, "x"),
    (None, 3, "line 3: x"),
    ("dets.txt", None, "dets.txt: x"),
    ("dets.txt", 3, "dets.txt:3: x"),
])
def test_parse_error_location(path, line_no, rendered):
    assert str(ParseError("x", line_no, path)) == rendered


def test_comments_and_blank_lines_skipped():
    batches = parse_all("# header\n\n1,0,0,10,10,0.5,0\n")
    assert len(batches) == 1 and len(batches[0][1]) == 1


def test_malformed_row_names_line():
    with pytest.raises(ParseError) as exc:
        parse_all("1,0,0,10,10,0.5,0\nnot,a,row\n")
    assert "2" in str(exc.value)


def test_bad_field_types_name_line():
    with pytest.raises(ParseError) as exc:
        parse_all("1,0,0,ten,10,0.5,0\n")
    assert "1" in str(exc.value)


@pytest.mark.parametrize("row", [
    "1,0,0,0,10,0.5,0",      # zero width
    "1,0,0,10,-5,0.5,0",     # negative height
    "1,0,0,10,10,1.5,0",     # confidence out of range
    "0,0,0,10,10,0.5,0",     # frame below 1
    "1,0,0,10,10,0.5,-2",    # negative class
    "1,0,0,10,10,0.5,9223372036854775808",  # class beyond int64
    "1,-2e5,0,10,10,0.5,0",  # x beyond the pixel bound
    "1,0,0,10,1e155,0.5,0",  # height beyond the pixel bound
])
def test_invalid_values_rejected(row):
    with pytest.raises(ValidationError):
        parse_all(row + "\n")


def test_embedding_dim_must_be_consistent():
    text = "1,0,0,10,10,1,0,1,0\n2,0,0,10,10,1,0,1,0,0\n"
    with pytest.raises(ValidationError):
        parse_all(text)


def test_zero_embedding_rejected():
    with pytest.raises(ValidationError):
        parse_all("1,0,0,10,10,1,0,0,0\n")


def test_frames_grouped_and_strictly_increasing():
    text = "1,0,0,10,10,1,0\n1,5,5,10,10,1,1\n3,0,0,10,10,1,0\n"
    batches = parse_all(text)
    assert [f for f, _ in batches] == [1, 3]
    assert [len(b) for _, b in batches] == [2, 1]


def test_out_of_order_frames_rejected():
    with pytest.raises(ParseError):
        parse_all("2,0,0,10,10,1,0\n1,0,0,10,10,1,0\n")


def test_confidence_floor_drops_rows_but_keeps_frames():
    text = "1,0,0,10,10,0.2,0\n2,0,0,10,10,0.9,0\n"
    batches = parse_all(text, min_confidence=0.5)
    assert [(f, len(b)) for f, b in batches] == [(1, 0), (2, 1)]


def test_class_catalog_defaults_and_validation():
    cat = ClassCatalog()
    assert cat.count == 14
    assert cat.names[0] == "Ambulance"
    with pytest.raises(ValidationError):
        ClassCatalog(names=("a", "a"))
    with pytest.raises(ValidationError):
        ClassCatalog(names=())


def rand_detection(rng, frame):
    dim = rng.choice([0, 4])
    appearance = None
    if dim:
        vec = rng.normal(size=dim)
        while np.linalg.norm(vec) == 0:
            vec = rng.normal(size=dim)
        appearance = vec / np.linalg.norm(vec)
    return Detection(
        frame=frame,
        class_id=int(rng.integers(0, 14)),
        bbox=(float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3)),
              float(rng.uniform(1e-3, 500)), float(rng.uniform(1e-3, 500))),
        confidence=float(rng.uniform(0, 1)),
        appearance=appearance,
    )


def test_round_trip_1000_random_rows():
    rng = np.random.default_rng(7)
    for trial in range(10):
        dim = int(rng.integers(1, 6))
        batches = []
        frame = 0
        for _ in range(100):
            frame += int(rng.integers(1, 3))
            det = rand_detection(rng, frame)
            if det.appearance is not None or rng.random() < 0.5:
                vec = rng.normal(size=dim)
                det.appearance = vec / np.linalg.norm(vec)
            else:
                det.appearance = None
            batches.append((frame, [det]))
        # a file must carry one consistent embedding width
        with_app = [b for b in batches if b[1][0].appearance is not None]
        out = io.StringIO()
        write_detections(out, with_app)
        reparsed = parse_all(out.getvalue())
        assert [f for f, _ in reparsed] == [f for f, _ in with_app]
        for (frame, dets), (_, batch) in zip(with_app, reparsed):
            expected = DetectionBatch.stack(frame, dets)
            for name in DetectionBatch.__slots__:
                assert np.array_equal(getattr(batch, name), getattr(expected, name))


def test_fuzz_mutations_never_break_invariants():
    rng = np.random.default_rng(11)
    base = "1,10,20,30,40,0.5,2,0.6,0.8\n2,1,2,3,4,0.25,1,1,0\n"
    alphabet = list("0123456789.,-eE\n# ")
    for _ in range(400):
        chars = list(base)
        for _ in range(rng.integers(1, 6)):
            pos = int(rng.integers(0, len(chars)))
            chars[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
        mutated = "".join(chars)
        try:
            batches = parse_all(mutated)
        except (ParseError, ValidationError):
            continue
        last_frame = 0
        for frame, batch in batches:
            assert frame == batch.frame > last_frame
            last_frame = frame
            assert (batch.boxes[:, 2:] > 0).all()
            assert ((0.0 <= batch.confidence) & (batch.confidence <= 1.0)).all()
            if batch.appearance.shape[1]:
                assert (abs(np.linalg.norm(batch.appearance, axis=1) - 1.0) <= 1e-9).all()


def test_format_detection_round_trips_exactly():
    det = Detection(frame=3, class_id=1, bbox=(1.1, 2.2, 3.3, 4.4),
                    confidence=0.123456789012345,
                    appearance=np.array([0.6, 0.8]))
    line = format_detection(det)
    (_, batch), = parse_all(line + "\n")
    assert tuple(batch.boxes[0]) == det.bbox
    assert batch.confidence[0] == det.confidence
    assert np.array_equal(batch.appearance[0], det.appearance)


# -- chunks ----------------------------------------------------------------------


def long_stream(frames=30, per_frame=100):
    """frames × per_frame rows with 16-d descriptors: several chunks at the
    default sizes."""
    vec = ",".join(["0.25"] * 16)
    return "".join(f"{f},{10 + k},10,5,5,0.9,0,{vec}\n"
                   for f in range(1, frames + 1) for k in range(per_frame))


def test_a_stream_within_one_chunk_is_read_without_a_reader(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a stream of one chunk")

    monkeypatch.setattr(os, "fork", no_fork)
    assert [f for f, _ in parse_all(long_stream(frames=4, per_frame=3))] == [1, 2, 3, 4]


def test_a_stream_without_descriptors_reads_alike_in_chunks(monkeypatch):
    text = "".join(f"{f},{10 + 30 * k},10,5,5,0.9,{k}\n" for f in range(1, 6) for k in range(3))
    whole = parse_all(text)
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 4)
    chunked = parse_all(text)
    assert [f for f, _ in chunked] == [f for f, _ in whole] == [1, 2, 3, 4, 5]
    for (_, a), (_, b) in zip(chunked, whole):
        for name in DetectionBatch.__slots__:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_64d_rows_over_several_chunks_parse_in_this_process_as_the_oracle_does(monkeypatch):
    # 8 chunks of 5 lines, frames of 3 rows split across their edges
    def no_fork():
        raise AssertionError("forked to parse a detection stream")

    rng = np.random.default_rng(5)
    text = "".join(f"{f},{10 + 30 * k},10,5,5,{0.5 + 0.1 * k},{k},"
                   + ",".join(map(repr, rng.normal(size=64).tolist())) + "\n"
                   for f in range(1, 14) for k in range(3))
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 5)
    monkeypatch.setattr(os, "fork", no_fork)
    got = parse_all(text)
    want = [(frame, DetectionBatch.stack(frame, dets))
            for frame, dets in parse_by_rows(io.StringIO(text))]
    assert [f for f, _ in got] == [f for f, _ in want] == list(range(1, 14))
    for (_, a), (_, b) in zip(got, want):
        assert a.appearance.shape == (3, 64)
        for name in DetectionBatch.__slots__:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_without_fork_the_stream_is_read_in_process(monkeypatch):
    # a platform without os.fork reads the same batches
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 4)
    text = long_stream(frames=4, per_frame=3)
    with_fork = parse_all(text)
    monkeypatch.delattr(os, "fork")
    without_fork = parse_all(text)
    assert [f for f, _ in without_fork] == [f for f, _ in with_fork] == [1, 2, 3, 4]
    for (_, a), (_, b) in zip(without_fork, with_fork):
        for name in DetectionBatch.__slots__:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_closing_the_stream_after_one_batch_leaves_no_child():
    batches = parse_detections(io.StringIO(long_stream()))
    frame, batch = next(batches)
    assert frame == 1 and len(batch) == 100
    batches.close()
    assert_no_child_left()


def test_a_bad_row_past_the_first_chunks_is_raised_after_their_frames(monkeypatch):
    monkeypatch.setattr(detstream, "CHUNK_ROWS", 4)
    lines = long_stream(frames=5, per_frame=3).splitlines(keepends=True)
    lines[10] = "4,10,10,5,5,1.5,0\n"
    frames = []
    with pytest.raises(ParseError, match="^dets.txt:11: "):
        for frame, _ in parse_detections(lines, path="dets.txt"):
            frames.append(frame)
    # chunk 3 (lines 9-12) holds the bad row: frames 1 and 2 end before it
    assert frames == [1, 2]
    assert_no_child_left()


# -- rule breaks in text numpy reads ------------------------------------------------

GOOD = "1,10,10,5,5,0.9,0,0.6,0.8"


def after_notes(bad):
    """A row, a comment and a blank line, then the bad row, on line 4."""
    return [GOOD, "# note", "", bad]


# (lines per chunk, lines): the last line is the first bad row; at the default
# 1024 lines per chunk each stream is one chunk
RULE_BREAKS = [
    pytest.param(1024, after_notes("1,2e5,10,5,5,0.9,1,0.6,0.8"), id="box out of range"),
    pytest.param(1024, after_notes("0,30,10,5,5,0.9,1,0.6,0.8"), id="frame 0"),
    pytest.param(1024, after_notes("1,30,10,5,5,0.9,-1,0.6,0.8"), id="class -1"),
    pytest.param(1024, after_notes("1,30,10,0,5,0.9,1,0.6,0.8"), id="width 0"),
    pytest.param(1024, after_notes("1,30,10,5,5,1.5,1,0.6,0.8"), id="confidence 1.5"),
    pytest.param(1024, after_notes("1,30,10,5,5,0.9,1,nan,0.8"), id="nan descriptor"),
    pytest.param(1024, after_notes("1,30,10,5,5,0.9,1,0,0"), id="zero descriptor"),
    pytest.param(1024, ["2" + GOOD[1:], "# note", "", GOOD], id="frame order within a chunk"),
    # the bad row opens the second chunk of 3 lines, behind the first's last frame
    pytest.param(3, [GOOD, "3" + GOOD[1:], "3" + GOOD[1:], "# note", "", "2" + GOOD[1:]],
                 id="frame order across chunks"),
]


@pytest.mark.parametrize("chunk_rows,lines", RULE_BREAKS)
def test_rule_breaks_numpy_reads_are_diagnosed_without_the_row_parse(chunk_rows, lines,
                                                                     monkeypatch):
    # the array read is enough to name the first bad row and the first rule it
    # breaks, with the row-at-a-time oracle's message and line
    def row_path(*args, **kwargs):
        raise AssertionError("rule break diagnosed by the row parse")

    text = "\n".join(lines + ["5" + GOOD[1:]]) + "\n"
    with pytest.raises(ParseError) as want:
        list(parse_by_rows(io.StringIO(text), path="dets.txt"))
    assert str(want.value).startswith(f"dets.txt:{len(lines)}: ")
    monkeypatch.setattr(detstream, "_parse_rows", row_path)
    monkeypatch.setattr(detstream, "CHUNK_ROWS", chunk_rows)
    with pytest.raises(ParseError) as got:
        list(parse_detections(io.StringIO(text), path="dets.txt"))
    assert str(got.value) == str(want.value)
    assert_no_child_left()
