import csv
import io
import re

import numpy as np
import pytest

from driftpp.core import Chunk
from driftpp.data import (
    DriftSpec,
    StreamSpec,
    generate_stream,
    read_chunk_csv,
    write_chunk_csv,
)
from driftpp.errors import ChunkFormatError, LabelError, RaggedRowError


def centroid_oracle(train_chunk):
    """Independent linear reference classifier: split along the difference
    of class centroids, thresholded at their midpoint."""
    matrix, labels = train_chunk.features, train_chunk.labels
    pos, neg = matrix[labels == 1].mean(axis=0), matrix[labels == 0].mean(axis=0)
    direction, midpoint = pos - neg, (pos + neg) / 2.0
    return lambda rows: ((rows - midpoint) @ direction > 0).astype(int)


def oracle_accuracy(oracle, chunk):
    return float((oracle(chunk.features) == chunk.labels).mean())


def oracle_f1(oracle, chunk):
    predicted = oracle(chunk.features)
    truth = chunk.labels
    tp = int(((predicted == 1) & (truth == 1)).sum())
    fp = int(((predicted == 1) & (truth == 0)).sum())
    fn = int(((predicted == 0) & (truth == 1)).sum())
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


class TestReadChunkCsv:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "sensor_a.csv"
        path.write_text(
            "f0,f1,f2,f3,label\n"
            "1.0,2.0,3.0,4.0,0\n"
            "5.0,6.0,7.0,8.0,1\n"
            "-1.5,0.25,1e3,0.0,0\n"
        )
        chunk = read_chunk_csv(path)
        assert chunk.id == "sensor_a"
        assert chunk.dimensionality == 4
        assert len(chunk) == 3
        np.testing.assert_array_equal(chunk.labels, [0, 1, 0])
        np.testing.assert_allclose(
            chunk.features[2], [-1.5, 0.25, 1000.0, 0.0]
        )

    def test_numeric_first_row_rejected(self, tmp_path):
        # a file without a header fails rather than losing its first row
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0,1\n3.0,4.0,0\n")
        with pytest.raises(ChunkFormatError, match=f"{path}: row 1: expected a header"):
            read_chunk_csv(path)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n1.0,0\n2.0,2\n")
        with pytest.raises(LabelError, match="row 3"):
            read_chunk_csv(path)

    def test_nonnumeric_label_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n1.0,yes\n")
        with pytest.raises(LabelError, match="row 2"):
            read_chunk_csv(path)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(RaggedRowError, match="row 3"):
            read_chunk_csv(path)

    def test_unparseable_feature_names_row_and_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,f1,label\n1.0,huh,0\n")
        with pytest.raises(ChunkFormatError, match="row 2.*column 1"):
            read_chunk_csv(path)

    def test_empty_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ChunkFormatError):
            read_chunk_csv(path)

    def test_header_only_file_is_empty_chunk(self, tmp_path):
        path = tmp_path / "hollow.csv"
        path.write_text("f0,f1,label\n")
        chunk = read_chunk_csv(path)
        assert len(chunk) == 0
        assert chunk.dimensionality == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n1.0,0\n\n2.0,1\n")
        assert len(read_chunk_csv(path)) == 2

    def test_parse_error_row_counts_blank_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n1.0,0\n\n\n2.0,1\nhuh,1\n")
        with pytest.raises(ChunkFormatError, match="row 6, column 0"):
            read_chunk_csv(path)

    def test_byte_order_mark_dropped(self, tmp_path):
        text = "f0,f1,label\n1.5,-2.0,1\n0.0,3.25,0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        want, got = read_chunk_csv(plain), read_chunk_csv(marked)
        np.testing.assert_array_equal(got.features, want.features)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("rows_before", [0, 2000])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, rows_before):
        # the file is decoded whole before either parser sees it, so a bad
        # byte in the header and one thousands of rows in fail alike
        path = tmp_path / "x.csv"
        path.write_bytes(b"f0,label\n" + b"1.0,0\n" * rows_before + b"\xff,1\n")
        with pytest.raises(ChunkFormatError, match=f"{path}: not UTF-8 text"):
            read_chunk_csv(path)


class TestReadPathParity:
    """read_chunk_csv parses a file in one np.loadtxt call, and walks the
    rows of a file that call refuses only to name its bad row: a file is
    read as the arrays it spells, or refused with an error naming it."""

    @pytest.mark.parametrize(
        "text, features, labels",
        [
            ('"f,0",f1,label\n"1.5",2.0,"1"\n-3," 4e-1 ",0\n', [[1.5, 2.0], [-3.0, 0.4]], [1, 0]),
            ("f0,label\n1.0,0\n\n\n2.0,1\n\n", [[1.0], [2.0]], [0, 1]),
            ("f0,label\r\n1.5,0\r\n-0.25,1\r\n", [[1.5], [-0.25]], [0, 1]),
            ("f0,f1,label\n", np.zeros((0, 2)), []),
        ],
        ids=["quoted", "blank-lines", "crlf", "header-only"],
    )
    def test_reads_the_arrays_the_file_spells(self, tmp_path, text, features, labels):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        chunk = read_chunk_csv(path)
        assert chunk.features.shape == np.shape(features)
        np.testing.assert_array_equal(chunk.features, features)
        np.testing.assert_array_equal(chunk.labels, labels)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662"], ids=["underscore", "non-ascii-digits"])
    def test_number_that_loadtxt_does_not_read_is_refused(self, tmp_path, cell):
        # float() reads these spellings; the one parser does not, and the
        # error names the file's own row: the fifth line, after a blank one
        path = tmp_path / "x.csv"
        path.write_bytes(f"f0,label\n2.5,0\n0.5,1\n\n{cell},1\n2.5,0\n".encode("utf-8"))
        message = f"{path}: row 5, column 0: cannot parse {cell!r} as a number"
        with pytest.raises(ChunkFormatError, match=f"^{re.escape(message)}$"):
            read_chunk_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"], ids=["underscore", "non-ascii-digit"])
    def test_label_that_loadtxt_does_not_read_names_its_row(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        path.write_bytes(f"f0,label\n2.5,0\n\n0.5,{cell}\n".encode("utf-8"))
        with pytest.raises(LabelError, match=f"^{re.escape(f'{path}: row 4: cannot parse label {cell!r}')}$"):
            read_chunk_csv(path)

    @pytest.mark.parametrize("blank", ["   ", "\t", " \t "])
    def test_whitespace_only_line_is_a_ragged_row(self, tmp_path, blank):
        path = tmp_path / "x.csv"
        path.write_text(f"f0,label\n1.0,0\n{blank}\n2.0,1\n")
        with pytest.raises(RaggedRowError, match="row 3 has 1 columns, expected 2"):
            read_chunk_csv(path)

    def test_header_wider_than_rows_is_a_ragged_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,f1,label\n1.0,0\n2.0,1\n")
        with pytest.raises(RaggedRowError, match="row 2 has 2 columns, expected 3"):
            read_chunk_csv(path)


class TestWriteChunkCsv:
    def test_layout(self, tmp_path):
        chunk = Chunk("out", [[1.5, -2.0], [0.0, 3.25]], [1, 0])
        path = tmp_path / "out.csv"
        write_chunk_csv(chunk, path)
        raw = path.read_bytes().decode()
        lines = raw.split("\n")
        assert lines[0] == "f0,f1,label"
        assert lines[1] == "1.5,-2.0,1"
        assert "\r" not in raw

    def test_empty_chunk_writes_header_only(self, tmp_path):
        chunk = Chunk("empty", np.zeros((0, 3)), [])
        path = tmp_path / "empty.csv"
        write_chunk_csv(chunk, path)
        assert path.read_text() == "f0,f1,f2,label\n"

    def test_round_trip_identity(self, tmp_path, rng):
        rows = np.concatenate(
            [
                rng.normal(size=(20, 5)),
                [[1e-17, -4.625e12, 0.1, -0.0, 3.0]],
            ]
        )
        labels = list(rng.integers(0, 2, 20)) + [1]
        chunk = Chunk("trip", rows, labels)
        path = tmp_path / "trip.csv"
        write_chunk_csv(chunk, path)
        back = read_chunk_csv(path)
        np.testing.assert_array_equal(back.features, chunk.features)
        np.testing.assert_array_equal(back.labels, chunk.labels)

    @pytest.mark.parametrize(
        "special",
        [[np.nan], [np.inf], [-np.inf], [-0.0], [np.nan, np.inf, -np.inf, -0.0]],
        ids=["nan", "inf", "-inf", "-0.0", "all"],
    )
    def test_nonfinite_values_round_trip(self, tmp_path, rng, special):
        # the reader checks format only; judging the values is the pipeline's
        rows = rng.normal(size=(6, 4))
        for i, value in enumerate(special):
            rows[i + 1, i % 4] = value
        chunk = Chunk("odd", rows, [0, 1, 1, 0, 1, 0])
        path = tmp_path / "odd.csv"
        write_chunk_csv(chunk, path)
        back = read_chunk_csv(path)
        np.testing.assert_array_equal(back.features, chunk.features)
        np.testing.assert_array_equal(np.signbit(back.features), np.signbit(chunk.features))
        np.testing.assert_array_equal(back.labels, chunk.labels)

    def test_generated_stream_round_trips(self, tmp_path):
        spec = StreamSpec(n_chunks=2, chunk_size=50, dimensionality=4, seed=8)
        for chunk in generate_stream(spec):
            path = tmp_path / f"{chunk.id}.csv"
            write_chunk_csv(chunk, path)
            back = read_chunk_csv(path)
            assert back.id == chunk.id
            np.testing.assert_array_equal(back.features, chunk.features)
            np.testing.assert_array_equal(back.labels, chunk.labels)


def csv_writer_bytes(chunk):
    """The chunk file as csv.writer writes it, cell by cell: the reference
    for the writer's preformatted lines."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"f{i}" for i in range(chunk.dimensionality)] + ["label"])
    for row, label in zip(chunk.features.tolist(), chunk.labels.tolist()):
        writer.writerow([repr(v) for v in row] + [label])
    return out.getvalue().encode("utf-8")


class TestWriterBytes:
    """write_chunk_csv writes the bytes of csv.writer over float reprs."""

    EDGE_VALUES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1, 1 / 3]

    @staticmethod
    def assert_csv_writer_bytes(chunk, tmp_path):
        path = tmp_path / f"{chunk.id}.csv"
        write_chunk_csv(chunk, path)
        assert path.read_bytes() == csv_writer_bytes(chunk)

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
    def test_edge_value(self, tmp_path, value):
        chunk = Chunk("edge", [[value, 1.0], [2.5, -value]], [1, 0])
        self.assert_csv_writer_bytes(chunk, tmp_path)

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0), (2, 0)])
    def test_empty_and_zero_width_chunks(self, tmp_path, shape):
        chunk = Chunk("empty", np.zeros(shape), [1] * shape[0])
        self.assert_csv_writer_bytes(chunk, tmp_path)

    def test_generated_stream(self, tmp_path):
        spec = StreamSpec(
            n_chunks=3, chunk_size=200, dimensionality=20, noise=0.05, seed=1,
            drift=DriftSpec(kind="sudden", at_chunk=2),
        )
        for chunk in generate_stream(spec):
            self.assert_csv_writer_bytes(chunk, tmp_path)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "jumpy"},
            {"at_chunk": 0},
            {"magnitude": 0.0},
            {"magnitude": 1.5},
            {"gradual_span": 0},
        ],
    )
    def test_drift_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DriftSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_chunks": 0, "chunk_size": 10, "dimensionality": 3},
            {"n_chunks": 1, "chunk_size": -1, "dimensionality": 3},
            {"n_chunks": 1, "chunk_size": 10, "dimensionality": 1},
            {"n_chunks": 1, "chunk_size": 10, "dimensionality": 3, "class_balance": 0.0},
            {"n_chunks": 1, "chunk_size": 10, "dimensionality": 3, "noise": 1.0},
            {"n_chunks": 1, "chunk_size": 10, "dimensionality": 3, "seed": -1},
        ],
    )
    def test_stream_spec_rejects(self, kwargs):
        with pytest.raises(ValueError):
            StreamSpec(**kwargs)


class TestGenerateStream:
    def test_shape_and_ids(self):
        spec = StreamSpec(n_chunks=3, chunk_size=40, dimensionality=5, seed=1)
        chunks = generate_stream(spec)
        assert [c.id for c in chunks] == ["chunk_000", "chunk_001", "chunk_002"]
        for chunk in chunks:
            assert len(chunk) == 40
            assert chunk.dimensionality == 5

    def test_deterministic(self):
        spec = StreamSpec(n_chunks=2, chunk_size=100, dimensionality=6, noise=0.1, seed=42)
        first, second = generate_stream(spec), generate_stream(spec)
        for a, b in zip(first, second):
            assert a.features.tobytes() == b.features.tobytes()
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        base = dict(n_chunks=1, chunk_size=100, dimensionality=4)
        a = generate_stream(StreamSpec(seed=0, **base))[0]
        b = generate_stream(StreamSpec(seed=1, **base))[0]
        assert a.features.tobytes() != b.features.tobytes()

    def test_both_classes_near_requested_balance(self):
        chunk = generate_stream(
            StreamSpec(n_chunks=1, chunk_size=2000, dimensionality=4, seed=5)
        )[0]
        assert 0.4 <= chunk.labels.mean() <= 0.6
        skewed = generate_stream(
            StreamSpec(
                n_chunks=1, chunk_size=2000, dimensionality=4, class_balance=0.8, seed=5
            )
        )[0]
        assert 0.75 <= skewed.labels.mean() <= 0.85

    def test_zero_size_chunks(self):
        chunks = generate_stream(StreamSpec(n_chunks=2, chunk_size=0, dimensionality=3, seed=0))
        assert all(len(c) == 0 for c in chunks)

    def test_clean_stationary_stream_is_linearly_separable(self):
        spec = StreamSpec(n_chunks=4, chunk_size=500, dimensionality=6, noise=0.0, seed=7)
        chunks = generate_stream(spec)
        oracle = centroid_oracle(chunks[0])
        for chunk in chunks:
            assert oracle_accuracy(oracle, chunk) == 1.0

    def test_noise_sets_the_error_floor(self):
        spec = StreamSpec(n_chunks=2, chunk_size=4000, dimensionality=5, noise=0.2, seed=11)
        chunks = generate_stream(spec)
        oracle = centroid_oracle(chunks[0])
        assert abs(oracle_accuracy(oracle, chunks[1]) - 0.8) < 0.03

    def test_sudden_drift_breaks_the_initial_concept(self):
        spec = StreamSpec(
            n_chunks=6,
            chunk_size=2000,
            dimensionality=20,
            noise=0.05,
            seed=24,
            drift=DriftSpec("sudden", at_chunk=5, magnitude=1.0),
        )
        chunks = generate_stream(spec)
        oracle = centroid_oracle(chunks[0])
        assert oracle_f1(oracle, chunks[4]) >= 0.9
        assert oracle_f1(oracle, chunks[5]) <= 0.6

    def test_gradual_drift_degrades_stepwise(self):
        spec = StreamSpec(
            n_chunks=8,
            chunk_size=1000,
            dimensionality=6,
            noise=0.0,
            seed=3,
            drift=DriftSpec("gradual", at_chunk=2, magnitude=1.0, gradual_span=4),
        )
        chunks = generate_stream(spec)
        oracle = centroid_oracle(chunks[0])
        accuracies = [oracle_accuracy(oracle, c) for c in chunks]
        assert accuracies[1] >= 0.99
        assert accuracies[4] < accuracies[3]
        assert 0.6 < accuracies[4] < 0.99
        assert accuracies[5] <= 0.6
        assert accuracies[7] <= 0.6

    def test_partial_magnitude_keeps_concepts_related(self):
        base = dict(n_chunks=3, chunk_size=1000, dimensionality=5, noise=0.0, seed=13)
        mild = generate_stream(
            StreamSpec(drift=DriftSpec("sudden", at_chunk=1, magnitude=0.3), **base)
        )
        hard = generate_stream(
            StreamSpec(drift=DriftSpec("sudden", at_chunk=1, magnitude=1.0), **base)
        )
        mild_oracle = centroid_oracle(mild[0])
        hard_oracle = centroid_oracle(hard[0])
        assert oracle_accuracy(mild_oracle, mild[2]) > oracle_accuracy(hard_oracle, hard[2])
