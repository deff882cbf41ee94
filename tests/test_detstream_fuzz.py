"""The batched detection parser against the row-at-a-time oracle.

On a valid stream both must give the same frames with bitwise-equal
arrays; on a corrupted one both must raise a ParseError with the same
text, which names the same line. Frames yielded before an error may
differ by a chunk: the batched parser reads CHUNK_ROWS lines at a time and
yields a frame only once a later frame starts, so the frames of the chunk
that holds a bad row are never yielded. The chunk tests below shrink
CHUNK_ROWS to a few lines, so that frames, comments and errors fall on
chunk boundaries.

Needs hypothesis (the `test` extra in pyproject.toml); skipped without it.
"""
import io
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trafficstate import detstream  # noqa: E402
from trafficstate.detstream import UNIT_NORM_TOL, parse_detections  # noqa: E402
from trafficstate.errors import ParseError  # noqa: E402

from oracles import parse_by_rows  # noqa: E402

EPS = np.finfo(np.float64).eps


def bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def outcome(text, min_confidence=0.0):
    """(frames as bit tuples, error text) of the batched parser."""
    frames = []
    try:
        for frame, batch in parse_detections(io.StringIO(text), min_confidence, "dets.txt"):
            assert frame == batch.frame
            frames.append((frame, bits(batch.boxes), bits(batch.confidence),
                           bits(batch.class_ids), bits(batch.appearance)))
    except ParseError as exc:
        return None, str(exc)
    return frames, None


def oracle_outcome(text, min_confidence=0.0):
    """(frames as bit tuples, error text) of the row-at-a-time parser."""
    rows = [line.strip() for line in text.splitlines()]
    data = [r for r in rows if r and not r.startswith("#")]
    dim = len(data[0].split(",")) - 7 if data else 0
    frames = []
    try:
        for frame, dets in parse_by_rows(io.StringIO(text), min_confidence, "dets.txt"):
            m = len(dets)
            appearance = (np.array([d.appearance for d in dets], dtype=np.float64)
                          if dim and m else np.empty((m, dim)))
            frames.append((
                frame,
                bits(np.array([d.bbox for d in dets], dtype=np.float64).reshape(m, 4)),
                bits(np.array([d.confidence for d in dets], dtype=np.float64)),
                bits(np.array([d.class_id for d in dets], dtype=np.int64)),
                bits(appearance),
            ))
    except ParseError as exc:
        return None, str(exc)
    return frames, None


def assert_same(text, min_confidence=0.0):
    got, want = outcome(text, min_confidence), oracle_outcome(text, min_confidence)
    assert got == want
    return want


BASE = ["1,10,10,5,5,0.9,0,0.6,0.8",
        "1,30,10,5,5,0.2,1,3,4",
        "1,50,10,5,5,0.9,2,0.6,-0.8",
        "3,12,10,5,5,0.9,0,0.6,0.8",
        "3,32,10,5,5,0.9,1,1,0"]


def with_row(index, row, base=BASE):
    return "\n".join(base[:index] + [row] + base[index + 1:]) + "\n"


def scaled(s):
    return f"{0.6 * s!r},{0.8 * s!r}"


NEAR_ONE = [float(1.0 + sign * 1e-9 + k * EPS) for sign in (1, -1) for k in range(-4, 5)]

VALID = [
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,1_0,2"), id="underscore token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1, 3 ,\t4"), id="padded tokens"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,1e300,1e300"), id="squares overflow"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,1e-300,-1e-300"), id="squares underflow"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,5e-324,5e-324"), id="subnormal"),
    pytest.param("# header\n\n" + "\n\n".join(BASE) + "\n", id="comments and blanks"),
    pytest.param("1,10,10,5,5,0.9,0\n1,20,10,5,5,0.1,3\n4,10,10,5,5,1,0\n", id="no descriptors"),
    pytest.param(with_row(4, f"{2**63},32,10,5,5,0.9,1,+1, 0 "), id="frame past int64"),
    pytest.param(with_row(1, "1,30,10,1e5,1e-300,0.2,1,3,4"), id="least height"),
] + [pytest.param(with_row(1, f"1,30,10,5,5,0.2,1,{scaled(s)}"), id=f"norm {s!r}")
     for s in NEAR_ONE]

CORRUPT = [
    pytest.param(with_row(1, BASE[1] + ","), id="trailing comma on one row"),
    pytest.param("\n".join(r + "," for r in BASE) + "\n", id="trailing comma on every row"),
    pytest.param(with_row(1, BASE[1] + ",0.5"), id="wider row mid-frame"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,3"), id="narrower row mid-frame"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,3,x,4"), id="wider row with a bad token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,nan,4"), id="nan token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,1e400,4"), id="1e400 token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,0x10,4"), id="0x10 token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,,4"), id="empty token"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,3,4#5"), id="comment mark in a token"),
    pytest.param("1,10,10,5,5,0.9,0,1\n1,30,10,5,5,0.2,1,\n", id="blank one-column embedding"),
    pytest.param("1,10,10,5,5,0.9,0,\n1,30,10,5,5,0.2,1,\n", id="blank one-column embeddings"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,0,-0.0"), id="zero vector"),
    pytest.param(with_row(2, "1,50,10,5,5,1.5,2,0.6,0.8",
                          BASE[:1] + ["1,30,10,5,5,0.2,1,0,0"] + BASE[2:]),
                 id="embedding error before a head error"),
    pytest.param(with_row(3, "0,12,10,5,5,0.9,0,0.6,0.8",
                          BASE[:2] + ["1,50,10,5,5,0.9,2,nan,1"] + BASE[3:]),
                 id="embedding error before an order error"),
    pytest.param(with_row(4, "1,32,10,5,5,0.9,1,1,1e999"), id="order error after a bad embedding"),
    pytest.param(with_row(4, "3,32,10,5,5,0.9,1,1,2,x"), id="dimension error after a bad token"),
    pytest.param(with_row(3, "3,12,10,5"), id="short row after a good frame"),
    # a rule break that numpy reads, and a row only int() and float() convert
    pytest.param(with_row(3, "x,12,10,5,5,0.9,0,0.6,0.8",
                          BASE[:1] + ["1,30,10,5,5,1.5,1,3,4"] + BASE[2:]),
                 id="head error before an unparseable field"),
    pytest.param(with_row(3, "3,12,10,5,5,0.9,0,1_0,0.8",
                          BASE[:1] + ["1,30,10,5,5,1.5,1,3,4"] + BASE[2:]),
                 id="head error before a converted row"),
    pytest.param(with_row(3, "3,12,10,5,5,1.5,0,0.6,0.8",
                          BASE[:1] + ["1,30,10,5,5,0.2,1,1_0,4"] + BASE[2:]),
                 id="converted row before a head error"),
    pytest.param(with_row(1, "1,30,10,5,5,1.5,1,x,4"), id="head error on a bad embedding"),
    pytest.param(with_row(1, "1,30,10,5,5,1.5,1,3"), id="head error on a narrower row"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,0,0,0"), id="zero vector on a wider row"),
    pytest.param(with_row(1, "1,30,10,5,5,0.2,1,1_0"), id="narrower converted row"),
    pytest.param(with_row(1, f"1,30,10,5,5,0.2,{2**63},3,4"), id="class id past int64"),
    pytest.param(with_row(3, "3,12,10,5,5,0.9,0,0.6,0.8",
                          BASE[:2] + [f"{2**63},50,10,5,5,0.9,2,0.6,-0.8"] + BASE[3:]),
                 id="frame after one past int64"),
    pytest.param(with_row(1, "1,30,10,5,1e-301,0.2,1,3,4"), id="height below the bound"),
    pytest.param(with_row(1, "1,30,10,5,5e-324,0.2,1,3,4,5"), id="height error on a wider row"),
    pytest.param(with_row(4, "1,32,10,5,1e-320,0.9,1,1,0"),
                 id="height error before an order error"),
    pytest.param(with_row(1, "1,30,10,5,1e-320,0.2,1,nan,4"),
                 id="embedding error before a height error"),
]


@pytest.mark.parametrize("text", VALID)
@pytest.mark.parametrize("min_confidence", [0.0, 0.5])
def test_listed_valid_streams_match_the_row_parser(text, min_confidence):
    frames, error = assert_same(text, min_confidence)
    assert error is None and frames


@pytest.mark.parametrize("text", CORRUPT)
def test_listed_corrupt_streams_raise_the_row_parsers_error(text):
    frames, error = assert_same(text)
    assert frames is None and error.startswith("dets.txt:")


def test_blank_embeddings_fail_without_a_warning():
    # loadtxt warns that such input "contained no data"; outside pytest's
    # warning filters that must not reach the user beside the ParseError
    text = "1,10,10,5,5,0.9,0,\n1,30,10,5,5,0.2,1,\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="^dets.txt:1: unparseable embedding"):
            list(parse_detections(io.StringIO(text), path="dets.txt"))
    assert caught == []


def test_near_unit_rows_keep_the_row_parsers_bits():
    # a row within 1e-9 of unit norm is kept as written, any other is
    # divided by its norm; the batched norm must not move a row across
    for s in NEAR_ONE:
        frames, _ = assert_same(with_row(0, f"1,10,10,5,5,0.9,0,{scaled(s)}"))
        row = np.frombuffer(frames[0][4][2])[:2]
        kept = abs(np.linalg.norm([0.6 * s, 0.8 * s]) - 1.0) <= UNIT_NORM_TOL
        assert np.array_equal(row, [0.6 * s, 0.8 * s]) == kept


# -- random streams ---------------------------------------------------------------

FORMATS = [repr, "{:.17g}".format, "{:.6g}".format, "{:+.3e}".format]
TOKENS = ["1_0", "nan", "1e400", "0x10", "-inf", "", " 2.5 ", "0", "1#2"]
HEAD_TOKENS = ["1.5", "0", "-1", "nan", "x", "1_0", "+2", " 3 ", str(2**63)]


@st.composite
def descriptor(draw, dim):
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    norm = np.linalg.norm(direction)
    unit = direction / norm if norm > 0 else np.eye(dim)[0]
    scale = draw(st.one_of(
        st.just(1.0),
        st.sampled_from(NEAR_ONE),
        st.sampled_from([1e300, 1e-300, 1e-320, 1e-5, 1e5]),
        st.floats(0.1, 10.0),
    ))
    fmt = draw(st.sampled_from(FORMATS))
    return [fmt(float(v)) for v in unit * scale]


@st.composite
def stream(draw):
    dim = draw(st.sampled_from([0, 1, 3, 8]))
    rows = []
    frame = 0
    for _ in range(draw(st.integers(1, 5))):
        frame += draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 5))):
            head = [str(frame), repr(draw(st.floats(-1e3, 1e3))), "10",
                    repr(draw(st.floats(0.5, 50.0))), "20",
                    draw(st.sampled_from(["0", "0.25", "0.5", "1", "0.75"])),
                    str(draw(st.integers(0, 3)))]
            rows.append(head + (draw(descriptor(dim)) if dim else []))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["comma", "commas", "wider", "narrower", "token",
                                     "zero", "order", "head", "comment"]))
        row = rows[i]
        if kind == "comma":
            row.append("")
        elif kind == "commas":
            for r in rows:
                r.append("")
        elif kind == "wider":
            row.append("0.5")
        elif kind == "narrower" and len(row) > 7:
            row.pop()
        elif kind == "token" and len(row) > 7:
            row[draw(st.integers(7, len(row) - 1))] = draw(st.sampled_from(TOKENS))
        elif kind == "zero" and len(row) > 7:
            row[7:] = ["0"] * (len(row) - 7)
        # a comment row, inserted below, has no frame or head to edit
        elif kind == "order" and len(row) >= 7:
            row[0] = str(max(1, int(row[0]) - 1))
        elif kind == "head" and len(row) >= 7:
            # rule breaks, and tokens that int() and float() accept and numpy may
            # refuse, so that a converted row can fall before, on or after a break
            row[draw(st.integers(0, 6))] = draw(st.sampled_from(HEAD_TOKENS))
        elif kind == "comment":
            rows.insert(i, ["# note"])
    min_confidence = draw(st.sampled_from([0.0, 0.3, 0.6]))
    return "\n".join(",".join(r) for r in rows) + "\n", min_confidence


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stream())
def test_batched_parser_matches_the_row_parser(case):
    text, min_confidence = case
    assert_same(text, min_confidence)


# -- chunk boundaries -------------------------------------------------------------

CHUNK_SIZES = [1, 2, 7]


def chunked(size):
    """A context in which parse_detections reads size lines per chunk."""
    return mock.patch.object(detstream, "CHUNK_ROWS", size)


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("text", VALID + CORRUPT)
def test_listed_streams_match_the_row_parser_in_small_chunks(text, size):
    with chunked(size):
        assert_same(text)
        assert_same(text, 0.5)


def rows_of(frame, count, conf="0.9"):
    return [f"{frame},{10 + 20 * k},10,5,5,{conf},{k % 3},0.6,0.8" for k in range(count)]


# each stream puts its mark on line 3 or 5, the first line of a chunk of 2
BOUNDARY = [
    pytest.param(rows_of(1, 5) + rows_of(2, 1), id="frame spans chunks"),
    pytest.param(rows_of(1, 2) + ["1,50,10,5,5,0.9,2,0.6"] + rows_of(2, 2),
                 id="width change"),
    pytest.param(rows_of(2, 2) + rows_of(1, 1) + rows_of(3, 2), id="frame order break"),
    pytest.param(rows_of(1, 2) + ["1,50,10,5,5,0.9,2,0,0"] + rows_of(2, 2),
                 id="zero embedding"),
    pytest.param(rows_of(1, 2) + ["1,50,10,5,5,0.9,2,0.6,x"] + rows_of(2, 2),
                 id="bad embedding token"),
    pytest.param(rows_of(1, 2) + ["# note"] + rows_of(1, 1) + rows_of(2, 1),
                 id="comment"),
    pytest.param(rows_of(1, 2) + rows_of(2, 2, "0.2") + rows_of(3, 1),
                 id="frame below the floor"),
    pytest.param(rows_of(1, 4, "0.2") + rows_of(2, 2) + rows_of(3, 2, "0.2"),
                 id="every frame on a boundary"),
    pytest.param(rows_of(1, 2) + rows_of(2, 2), id="ends on a boundary"),
    pytest.param(rows_of(1, 2) + rows_of(2, 2) + ["", "# end"], id="ends on blank lines"),
]


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("lines", BOUNDARY)
@pytest.mark.parametrize("min_confidence", [0.0, 0.5])
def test_boundary_streams_match_the_row_parser(lines, size, min_confidence):
    text = "\n".join(lines) + "\n"
    with chunked(size):
        assert_same(text, min_confidence)


def test_a_comment_changes_no_batch():
    plain = "".join(row + "\n" for row in BASE)
    commented = "# frame,x,y,w,h,conf,class,e0,e1\n" + plain.replace("\n3,", "\n# next\n\n3,", 1)
    for size in CHUNK_SIZES + [detstream.CHUNK_ROWS]:
        with chunked(size):
            assert outcome(commented) == outcome(plain)
            assert outcome(commented)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stream(), st.sampled_from(CHUNK_SIZES))
def test_batched_parser_matches_the_row_parser_in_small_chunks(case, size):
    text, min_confidence = case
    with chunked(size):
        assert_same(text, min_confidence)
