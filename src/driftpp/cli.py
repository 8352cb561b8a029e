"""Command-line front end: driftpp run | generate | report.

Configs are flat key=value text files, one pair per line, with # comments.
Their keys are the fields of the library's config dataclasses: for a run,
those of RunConfig and LearnPPConfig as named and KnnConfig's with the
prefix ``knn_``, plus ``initial_chunk`` and ``chunks``; for generate,
those of StreamSpec and DriftSpec's with the prefix ``drift_``.
``window_size = chunk`` and ``max_window_ensembles = unbounded`` spell
None. Paths inside a config resolve relative to the config file. Input
files are read as UTF-8, a leading byte-order mark dropped. The DRIFTPP_LOG
environment variable (error|warn|info|debug) sets the log level.

``driftpp run`` holds one chunk at a time: it reads the initial chunk file
before any output, a refused one ending the run, and each adaptive chunk
file when its turn comes. A refused adaptive file (missing, not UTF-8,
without a header, ragged, or with a bad cell) gets an error report, its
reason on stderr, and the run goes on. Each chunk's records reach
records.jsonl when the chunk ends. ``driftpp report`` reads the records as
a stream and reports each chunk when its lines end.

Exit codes: 0 success, 1 error, 2 success with at least one drift alarm.
A closed stdout (``driftpp report ... | head``) ends the command quietly
with 0.
"""
from __future__ import annotations

import argparse
import csv
import glob as globlib
import hashlib
import json
import logging
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from .adaptive import ChunkReport, RunConfig, UnreadChunk, chunk_report, run_experiment
from .core import Chunk, PredictionRecord, Records
from .data import StreamSpec, generate_stream, read_chunk_csv, read_text, write_chunk_csv
from .errors import ConfigError, DriftppError

__all__ = ["main", "cmd_generate", "cmd_run", "cmd_report"]

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# the key prefix of each nested config's fields
_NESTED_PREFIX = {"learnpp": "", "knn": "knn_", "drift": "drift_"}


def _schema(cls, prefix: str = "") -> tuple[dict[str, type], tuple[str, ...]]:
    """The config keys of dataclass ``cls`` with their value types, and the
    required ones: a key is ``prefix`` plus a field name, a nested config's
    fields take its prefix, ``int | None`` reads as int, and a field with no
    default is required."""
    kinds: dict[str, type] = {}
    required: list[str] = []
    hints = get_type_hints(cls)
    for field in fields(cls):
        kind, key = hints[field.name], prefix + field.name
        if is_dataclass(kind):
            nested_kinds, nested_required = _schema(kind, prefix + _NESTED_PREFIX[field.name])
            kinds.update(nested_kinds)
            required += nested_required
            continue
        kinds[key] = next((arg for arg in get_args(kind) if arg is not type(None)), kind)
        if field.default is MISSING and field.default_factory is MISSING:
            required.append(key)
    return kinds, tuple(required)


def _build(cls, values: dict, prefix: str = ""):
    """An instance of dataclass ``cls`` from the values under its keys, as
    :func:`_schema` names them; a field with no value keeps its default."""
    hints = get_type_hints(cls)
    kwargs = {}
    for field in fields(cls):
        if is_dataclass(hints[field.name]):
            kwargs[field.name] = _build(hints[field.name], values, prefix + _NESTED_PREFIX[field.name])
        elif prefix + field.name in values:
            kwargs[field.name] = values[prefix + field.name]
    return cls(**kwargs)


# a key left out keeps the default of the field or parameter it sets
_GENERATE_KEYS, _GENERATE_REQUIRED = _schema(StreamSpec)
_RUN_KEYS = {"initial_chunk": str, "chunks": str, **_schema(RunConfig)[0]}
_RUN_REQUIRED = ("initial_chunk", "chunks")

# the words that spell None for these keys
_NONE_SPELLINGS = {"window_size": "chunk", "max_window_ensembles": "unbounded"}

REPORT_COLUMNS = ["id", "f1", "auc", "fnr", "correct", "incorrect", "percent_correct", "drift_alarm"]


def _load_config(path: Path, kinds: dict[str, type], required: tuple[str, ...]) -> dict:
    """Read a key=value config file into values of each key's type."""
    values: dict = {}
    for line_no, line in enumerate(read_text(path, ConfigError).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in kinds:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        try:
            values[key] = _parse_typed(key, raw, kinds[key])
        except ValueError:
            kind = kinds[key].__name__
            raise ConfigError(f"{path}:{line_no}: key {key!r}: cannot parse {raw!r} as {kind}") from None
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return values


def _parse_typed(key: str, raw: str, kind):
    if _NONE_SPELLINGS.get(key) == raw:
        return None
    return kind(raw)


@contextmanager
def _checked_values(source):
    """Re-raise a config dataclass's ValueError as a ConfigError that
    names where the values came from."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _resolve_chunk_paths(raw: str, base: Path) -> list[Path]:
    paths: list[Path] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        candidate = base / part
        if any(ch in part for ch in "*?["):
            # only the part is a pattern; `base` may hold `[` or `*` itself
            matches = sorted(globlib.glob(part, root_dir=base))
            if not matches:
                raise ConfigError(f"chunk pattern matched nothing: {candidate}")
            paths.extend(base / m for m in matches)
        else:
            paths.append(candidate)
    if not paths:
        raise ConfigError("key 'chunks' resolved to an empty list")
    return paths


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _report_row(report: ChunkReport) -> list[str]:
    """One chunk's cells under REPORT_COLUMNS."""
    return [
        report.chunk_id,
        _format_value(report.f1),
        _format_value(report.auc),
        _format_value(report.fnr),
        str(report.correct_count),
        str(report.incorrect_count),
        _format_value(report.percent_correct),
        _format_value(report.drift_alarm),
    ]


def _write_reports_csv(reports: list[ChunkReport], path: Path) -> None:
    # an id that holds a comma or a quote is quoted
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(_report_row(report) for report in reports)


def _print_report_table(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def _reason(exc: Exception) -> str:
    """What an error line says of a failure: a missing file by its path."""
    return f"file not found: {exc.filename}" if isinstance(exc, FileNotFoundError) else str(exc)


def _read_adaptive(path: Path) -> Chunk | UnreadChunk:
    """The chunk of an adaptive chunk file, or an UnreadChunk that says why
    the file is refused."""
    try:
        return read_chunk_csv(path)
    except (DriftppError, OSError) as exc:
        return UnreadChunk(path.stem, _reason(exc))


def cmd_generate(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    values = _load_config(config_path, _GENERATE_KEYS, _GENERATE_REQUIRED)
    with _checked_values(config_path):
        spec = _build(StreamSpec, values)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks = generate_stream(spec)
    manifest = {"spec": asdict(spec), "chunks": []}
    for chunk in chunks:
        file_name = f"{chunk.id}.csv"
        file_path = out_dir / file_name
        write_chunk_csv(chunk, file_path)
        digest = hashlib.sha256(file_path.read_bytes()).hexdigest()
        manifest["chunks"].append({"file": file_name, "rows": len(chunk), "sha256": digest})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    logger.info("wrote %d chunks to %s", len(chunks), out_dir)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    values = _load_config(config_path, _RUN_KEYS, _RUN_REQUIRED)
    with _checked_values(config_path):
        config = _build(RunConfig, values)
    # config paths are relative to the config file; `/` keeps an absolute one
    base = config_path.parent
    initial_path = base / values["initial_chunk"]
    chunk_paths = _resolve_chunk_paths(values["chunks"], base)
    # a chunk's id is its file's stem, and run_experiment needs them unique
    stems = Counter(path.stem for path in [initial_path] + chunk_paths)
    repeated = sorted(stem for stem, count in stems.items() if count > 1)
    if repeated:
        raise ConfigError(f"{config_path}: chunk file names repeat: {repeated}")

    # read before any output; held in a list so that run_experiment, which
    # lets go of it after pretraining, gets the only reference
    initial = [read_chunk_csv(initial_path)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.jsonl"
    with records_path.open("w", encoding="utf-8", newline="\n") as records_file:

        def sink(records: Records) -> None:
            # per record, the line json.dumps would write for its fields: the
            # labels are plain ints and the score a float in [0, 1], whose
            # repr is its JSON form; a chunk's lines go in one write, flushed
            # so that a reader of the file sees each chunk when it ends
            head = f'{{"chunk_id": {json.dumps(records.chunk_id)}, "index": '
            rows = zip(records.truth.tolist(), records.predicted.tolist(), records.score.tolist())
            records_file.write("".join(
                f'{head}{i}, "truth": {truth}, "predicted": {predicted}, "score": {score!r}}}\n'
                for i, (truth, predicted, score) in enumerate(rows)
            ))
            records_file.flush()

        # each file is read when run_experiment pulls its chunk; map keeps
        # no chunk it has handed on
        reports = run_experiment(initial.pop(), map(_read_adaptive, chunk_paths), config, record_sink=sink)

    _write_reports_csv(reports, out_dir / "reports.csv")
    for report in reports:
        logger.info(
            "chunk %s: f1=%.4f auc=%.4f fnr=%.4f alarm=%s",
            report.chunk_id, report.f1, report.auc, report.fnr, report.drift_alarm,
        )
    return 2 if any(report.drift_alarm for report in reports) else 0


def cmd_report(args: argparse.Namespace) -> int:
    with _checked_values("report options"):
        config = _build(RunConfig, vars(args))
    records_path = Path(args.records)
    try:
        reports = _stream_reports(records_path, config)
    except (UnicodeDecodeError, ConfigError):
        # a file that is not UTF-8 text is refused as that, whatever line the
        # stream stopped at; the whole-file decode names the bad byte
        read_text(records_path, ConfigError)
        raise
    if not reports:
        print("no records")
        return 0
    _print_report_table([REPORT_COLUMNS] + [_report_row(report) for report in reports])
    return 0


def _stream_reports(records_path: Path, config: RunConfig) -> list[ChunkReport]:
    """One report per chunk of a records file, each built when the chunk's
    lines end; only the current chunk's records are held. The file holds
    one run's records: each chunk's lines together, indexed 0, 1, 2, ..."""
    reports: list[ChunkReport] = []
    seen: set[str] = set()
    records: list[PredictionRecord] = []
    with records_path.open(encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                record = PredictionRecord(
                    chunk_id=payload["chunk_id"],
                    index=payload["index"],
                    truth=payload["truth"],
                    predicted=payload["predicted"],
                    score=payload["score"],
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{records_path}: line {line_no}: {exc}") from None
            if records and record.chunk_id != records[0].chunk_id:
                reports.append(chunk_report(records[0].chunk_id, records, reports, config))
                records = []
            if not records and record.chunk_id in seen:
                raise ConfigError(
                    f"{records_path}: line {line_no}: chunk {record.chunk_id!r} resumes after chunk "
                    f"{reports[-1].chunk_id!r}"
                )
            if record.index != len(records):
                raise ConfigError(
                    f"{records_path}: line {line_no}: index {record.index} of chunk {record.chunk_id!r}, "
                    f"expected {len(records)}"
                )
            seen.add(record.chunk_id)
            records.append(record)
    if records:
        reports.append(chunk_report(records[0].chunk_id, records, reports, config))
    return reports


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftpp",
        description="Incremental ensemble classification over drifting chunked streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the adaptive pipeline over chunk files")
    run.add_argument("--config", required=True, help="key=value run config file")
    run.add_argument("--out", required=True, help="output directory for reports.csv and records.jsonl")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="generate a synthetic chunked stream")
    gen.add_argument("--config", required=True, help="key=value stream config file")
    gen.add_argument("--out", required=True, help="output directory for chunk CSVs and manifest.json")
    gen.set_defaults(func=cmd_generate)

    rep = sub.add_parser("report", help="recompute per-chunk metrics from a records file")
    rep.add_argument("records", help="records.jsonl produced by a run")
    # left unset, each keeps the RunConfig default
    rep.add_argument("--drift-f1-drop", type=float, default=argparse.SUPPRESS)
    rep.add_argument("--drift-baseline-window", type=int, default=argparse.SUPPRESS)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("DRIFTPP_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # output still buffered meets a closed pipe here
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped early; the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DriftppError, OSError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
