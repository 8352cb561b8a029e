"""Chunk I/O and a synthetic drifting-stream generator.

CSV layout: a header row naming the columns (f0..f{d-1},label as written
here), then one row per instance, feature columns first, the binary label
last. A file is read as UTF-8, with a leading byte-order mark dropped, and a
first row of numbers is rejected as a file without a header. One
``np.loadtxt`` call reads the rows from the open file as it streams, so no
copy of the text is held; a file it refuses, or whose widths or labels are
wrong, is read again whole and walked row by row only to name its bad row
or its encoding error. The reader checks format only: ``nan``, ``inf`` and
``-inf`` cells are read as data, and the pipeline judges them
(:func:`driftpp.core.validate_chunk`). Floats are written in shortest
round-trip form, so a write then a read is exact.

The generator draws two Gaussian clusters on opposite sides of a linear
decision boundary and labels each point by the side of the boundary it falls
on, then flips labels with a configured probability. Drift rotates the
boundary while leaving the clusters alone, so the input distribution stays
put and only the labeling rule moves: a sudden drift swaps in the rotated
boundary at one chunk, a gradual drift interpolates the rotation across a
span of chunks.
"""
from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import Chunk
from .errors import ChunkFormatError, DriftppError, LabelError, RaggedRowError

__all__ = ["DriftSpec", "StreamSpec", "read_chunk_csv", "write_chunk_csv", "generate_stream"]

DRIFT_KINDS = ("none", "sudden", "gradual")

# cluster geometry: centers sit at +-_CLUSTER_OFFSET along the boundary
# normal, with isotropic spread _CLUSTER_SPREAD around each center
_CLUSTER_OFFSET = 2.0
_CLUSTER_SPREAD = 0.5


@dataclass(frozen=True)
class DriftSpec:
    """What happens to the decision boundary over the stream.

    ``at_chunk`` is the first affected chunk (0-based stream position, so
    the initial chunk 0 is never drifted). ``magnitude`` scales the rotation
    up to a quarter turn at 1.0. ``gradual_span`` spreads the rotation over
    that many chunks for kind "gradual".
    """

    kind: str = "none"
    at_chunk: int = 1
    magnitude: float = 1.0
    gradual_span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"drift kind must be one of {DRIFT_KINDS}, got {self.kind!r}")
        if operator.index(self.at_chunk) < 1:
            raise ValueError(f"at_chunk must be >= 1, got {self.at_chunk}")
        if not 0.0 < self.magnitude <= 1.0:
            raise ValueError(f"magnitude must lie in (0, 1], got {self.magnitude}")
        if operator.index(self.gradual_span) < 1:
            raise ValueError(f"gradual_span must be >= 1, got {self.gradual_span}")


@dataclass(frozen=True)
class StreamSpec:
    n_chunks: int
    chunk_size: int
    dimensionality: int
    class_balance: float = 0.5
    noise: float = 0.0
    seed: int = 0
    drift: DriftSpec = field(default_factory=DriftSpec)

    def __post_init__(self) -> None:
        if operator.index(self.n_chunks) < 1:
            raise ValueError(f"n_chunks must be >= 1, got {self.n_chunks}")
        if operator.index(self.chunk_size) < 0:
            raise ValueError(f"chunk_size must be >= 0, got {self.chunk_size}")
        if operator.index(self.dimensionality) < 2:
            raise ValueError(f"dimensionality must be >= 2, got {self.dimensionality}")
        if not 0.0 < self.class_balance < 1.0:
            raise ValueError(f"class_balance must lie in (0, 1), got {self.class_balance}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise must lie in [0, 1), got {self.noise}")
        if operator.index(self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def read_text(path, error: type[DriftppError]) -> str:
    """The contents of an input text file: UTF-8, a leading byte-order mark
    dropped, newlines as ``\\n``. Raises ``error`` naming the file when it is
    not UTF-8 text, and OSError when it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_chunk_csv(path) -> Chunk:
    """Parse a chunk file as a stream, in one ``np.loadtxt`` call. The chunk
    id is the file's stem; a file with only its header is an empty chunk.

    The open file is read as it is parsed, so no copy of its text is held;
    only a file that is refused is read again whole, to name its bad row or
    its encoding error.

    Checks format only: raises RaggedRowError on inconsistent column counts,
    LabelError on a label outside {0, 1}, and ChunkFormatError on anything
    else, naming the offending 1-based row, or only the file when it is not
    UTF-8 text. A cell is a number as ``np.loadtxt`` spells one, so ``1_0``
    or non-ASCII digits name their row too. Non-finite features are read as
    data.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            # the header goes through the csv module, so a quoted comma or
            # newline in a column name counts as the row scan counts it
            width = _read_header(csv.reader(fh), path)
            with warnings.catch_warnings():
                # a file with no data rows is an empty chunk
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        if not len(table):
            table = np.empty((0, width))
        if table.shape[1] != width:
            raise ChunkFormatError(f"its rows are not {width} columns")
        return Chunk(path.stem, table[:, :-1], table[:, -1])
    except (ValueError, ChunkFormatError) as exc:
        # undecodable text or a label outside {0, 1} is a ValueError; _bad_row names it
        raise _bad_row(path, str(exc)) from None


def _read_header(reader, path: Path) -> int:
    """The width of the header row that starts every chunk file. A row of
    numbers there is a file without a header, and is rejected."""
    header = next(reader, [])
    if len(header) < 2:
        raise ChunkFormatError(f"{path}: header has {len(header)} columns, need at least 2")
    try:
        list(map(float, header))
    except ValueError:
        return len(header)
    raise ChunkFormatError(f"{path}: row 1: expected a header, got a row of numbers")


def _number(cell: str) -> float:
    """The cell as ``np.loadtxt`` reads it: ``float()``'s spelling without
    digit-group underscores or non-ASCII characters. ValueError otherwise."""
    if "_" in cell or not cell.isascii():
        raise ValueError(f"np.loadtxt does not read {cell!r}")
    return float(cell)


def _bad_row(path: Path, reason: str) -> DriftppError:
    """The error naming the first malformed row of a refused file (rows
    count from the header's 1, blank rows too), or, with no such row, a
    ChunkFormatError naming the file and giving ``reason``. Reads the file
    whole, so a file that is not UTF-8 text, or has no header, raises that
    error first, whatever the stream met first."""
    reader = csv.reader(io.StringIO(read_text(path, ChunkFormatError)))
    width = _read_header(reader, path)
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            return RaggedRowError(f"{path}: row {row_no} has {len(row)} columns, expected {width}")
        for col, cell in enumerate(row[:-1]):
            try:
                _number(cell)
            except ValueError:
                return ChunkFormatError(
                    f"{path}: row {row_no}, column {col}: cannot parse {cell!r} as a number"
                )
        try:
            label_value = _number(row[-1])
        except ValueError:
            return LabelError(f"{path}: row {row_no}: cannot parse label {row[-1]!r}")
        if label_value not in (0.0, 1.0):
            return LabelError(f"{path}: row {row_no}: label {row[-1]!r} not in {{0, 1}}")
    return ChunkFormatError(f"{path}: not read by np.loadtxt: {reason}")


def write_chunk_csv(chunk: Chunk, path) -> None:
    """Write a chunk in the layout read_chunk_csv expects: a header row, then
    one streamed line per instance, its float reprs and label joined by commas
    (csv.writer's bytes, as no cell needs quoting). Floats use their shortest
    round-trip representation; lines end with LF."""
    sep = "," if chunk.dimensionality else ""  # a zero-width row is its label
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(chunk.dimensionality)] + ["label"]) + "\n")
        fh.writelines(
            f"{','.join(map(repr, row))}{sep}{label}\n"
            for row, label in zip(chunk.features.tolist(), chunk.labels.tolist())
        )


def _boundary_angle(drift: DriftSpec, chunk_index: int) -> float:
    """Rotation fraction (of magnitude * 90 degrees) applied at this chunk."""
    if drift.kind == "none" or chunk_index < drift.at_chunk:
        return 0.0
    span = drift.gradual_span if drift.kind == "gradual" else 1
    return min((chunk_index - drift.at_chunk + 1) / span, 1.0)


def generate_stream(spec: StreamSpec) -> list[Chunk]:
    """Generate the full stream deterministically from the seed.

    The boundary normal and the rotation plane come from one child seed;
    every chunk draws from its own child seed, so chunks could be generated
    independently.
    """
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(spec.n_chunks + 1)
    geometry = np.random.default_rng(children[0])
    normal = geometry.standard_normal(spec.dimensionality)
    normal /= np.linalg.norm(normal)
    # boost the normal's largest coordinate so the dominant variance
    # direction of every chunk keeps a stable, sign-consistent anchor entry
    # under per-chunk component fits (real streams of this shape have one
    # heavily dominant direction; a near-tie between coordinates would make
    # the fitted orientation flip with sampling noise)
    anchor = int(np.argmax(np.abs(normal)))
    normal[anchor] = math.copysign(1.0, normal[anchor])
    normal /= np.linalg.norm(normal)
    other = geometry.standard_normal(spec.dimensionality)
    other -= (other @ normal) * normal
    other /= np.linalg.norm(other)

    chunks = []
    for i in range(spec.n_chunks):
        rng = np.random.default_rng(children[i + 1])
        sides = np.where(rng.random(spec.chunk_size) < spec.class_balance, 1.0, -1.0)
        points = sides[:, None] * (_CLUSTER_OFFSET * normal) + rng.normal(
            0.0, _CLUSTER_SPREAD, (spec.chunk_size, spec.dimensionality)
        )
        theta = _boundary_angle(spec.drift, i) * spec.drift.magnitude * math.pi / 2.0
        boundary = math.cos(theta) * normal + math.sin(theta) * other
        labels = (points @ boundary > 0.0).astype(np.int64)
        if spec.noise > 0.0:
            flips = rng.random(spec.chunk_size) < spec.noise
            labels = labels ^ flips
        chunks.append(Chunk(f"chunk_{i:03d}", points, labels))
    return chunks
