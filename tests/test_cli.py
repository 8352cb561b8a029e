import csv
import json
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from driftpp import adaptive, cli, learnpp
from driftpp.adaptive import RunConfig
from driftpp.cli import (
    _GENERATE_KEYS,
    _GENERATE_REQUIRED,
    _NONE_SPELLINGS,
    _RUN_KEYS,
    _RUN_REQUIRED,
    _build,
    _load_config,
    main,
)
from driftpp.core import Chunk, PredictionRecord, Records
from driftpp.data import DriftSpec, StreamSpec, generate_stream, read_chunk_csv, write_chunk_csv
from driftpp.knn import KnnConfig
from driftpp.learnpp import LearnPPConfig


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**extra):
    """The environment of a child interpreter that imports driftpp from src/,
    with stdout buffered unless ``extra`` says otherwise."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "DRIFTPP_LOG")}
    return {**env, "PYTHONPATH": str(SRC), **extra}


def write_config(path, **pairs):
    path.write_text(
        "# test config\n"
        + "\n".join(f"{key} = {value}" for key, value in pairs.items())
        + "\n"
    )
    return path


def generate_stationary(tmp_path, name="stream", **overrides):
    cfg = write_config(
        tmp_path / f"{name}_gen.cfg",
        n_chunks=overrides.pop("n_chunks", 4),
        chunk_size=overrides.pop("chunk_size", 120),
        dimensionality=overrides.pop("dimensionality", 4),
        seed=overrides.pop("seed", 9),
        **overrides,
    )
    out = tmp_path / name
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def run_config_for(tmp_path, stream_dir, name="run.cfg", **extra):
    return write_config(
        tmp_path / name,
        initial_chunk=f"{stream_dir.name}/chunk_000.csv",
        chunks=",".join(
            f"{stream_dir.name}/{p.name}"
            for p in sorted(stream_dir.glob("chunk_*.csv"))[1:]
        ),
        pc_count=extra.pop("pc_count", 2),
        seed=extra.pop("seed", 0),
        **extra,
    )


class TestGenerate:
    def test_writes_chunks_and_manifest(self, tmp_path):
        out = generate_stationary(tmp_path)
        files = sorted(p.name for p in out.glob("*.csv"))
        assert files == [f"chunk_{i:03d}.csv" for i in range(4)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["spec"]["n_chunks"] == 4
        assert manifest["spec"]["drift"]["kind"] == "none"
        assert len(manifest["chunks"]) == 4
        for entry in manifest["chunks"]:
            digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
            assert entry["rows"] == 120

    def test_rerun_is_byte_identical(self, tmp_path):
        first = generate_stationary(tmp_path, name="a")
        second = generate_stationary(tmp_path, name="b")
        for name in ("chunk_000.csv", "chunk_003.csv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", n_chunks=3, dimensionality=4)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "chunk_size" in capsys.readouterr().err

    def test_unknown_key_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_chunks = 2\nchunk_size = 10\ndimensionality = 3\nwat = 1\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:4" in err and "wat" in err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_chunks = 2\nn_chunks = 3\nchunk_size = 10\ndimensionality = 3\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_chunks\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"{cfg}:1" in capsys.readouterr().err


class TestParseConfig:
    def test_run_config_defaults_come_from_the_dataclasses(self, tmp_path):
        cfg = write_config(tmp_path / "run.cfg", initial_chunk="a.csv", chunks="b.csv")
        values = _load_config(cfg, _RUN_KEYS, _RUN_REQUIRED)
        assert _build(RunConfig, values) == RunConfig(learnpp=LearnPPConfig())

    def test_generate_config_defaults_come_from_the_dataclasses(self, tmp_path):
        cfg = write_config(tmp_path / "gen.cfg", n_chunks=3, chunk_size=10, dimensionality=4)
        values = _load_config(cfg, _GENERATE_KEYS, _GENERATE_REQUIRED)
        assert _build(StreamSpec, values) == StreamSpec(3, 10, 4)

    def test_set_keys_reach_their_fields(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.cfg", initial_chunk="a.csv", chunks="b.csv", pc_count=4,
            window_size="chunk", max_window_ensembles=2, knn_k=5, seed=7,
            drift_baseline_window=2,
        )
        values = _load_config(cfg, _RUN_KEYS, _RUN_REQUIRED)
        want = RunConfig(
            learnpp=LearnPPConfig(max_window_ensembles=2, knn=KnnConfig(k=5), seed=7),
            pc_count=4,
            drift_baseline_window=2,
        )
        assert _build(RunConfig, values) == want
        assert _build(RunConfig, {**values, "seed": 3}).learnpp.seed == 3

        cfg = write_config(
            tmp_path / "gen.cfg", n_chunks=3, chunk_size=10, dimensionality=4,
            drift_kind="gradual", drift_at_chunk=2, drift_gradual_span=3,
        )
        values = _load_config(cfg, _GENERATE_KEYS, _GENERATE_REQUIRED)
        drift = DriftSpec(kind="gradual", at_chunk=2, gradual_span=3)
        assert _build(StreamSpec, values) == StreamSpec(3, 10, 4, drift=drift)

    def test_schema_is_pinned(self):
        # the keys config files use; renaming a dataclass field renames its
        # key, which must show up here
        assert _GENERATE_KEYS == {
            "n_chunks": int,
            "chunk_size": int,
            "dimensionality": int,
            "class_balance": float,
            "noise": float,
            "seed": int,
            "drift_kind": str,
            "drift_at_chunk": int,
            "drift_magnitude": float,
            "drift_gradual_span": int,
        }
        assert _GENERATE_REQUIRED == ("n_chunks", "chunk_size", "dimensionality")
        assert _RUN_KEYS == {
            "initial_chunk": str,
            "chunks": str,
            "pc_count": int,
            "n_estimators": int,
            "window_size": int,
            "error_threshold": float,
            "max_retries": int,
            "max_window_ensembles": int,
            "knn_k": int,
            "seed": int,
            "drift_f1_drop": float,
            "drift_baseline_window": int,
        }
        assert _RUN_REQUIRED == ("initial_chunk", "chunks")
        nested = [(StreamSpec, ""), (DriftSpec, "drift_"), (RunConfig, ""),
                  (LearnPPConfig, ""), (KnnConfig, "knn_")]
        for config_class, prefix in nested:
            for name, hint in get_type_hints(config_class).items():
                if type(None) in get_args(hint):
                    assert prefix + name in _NONE_SPELLINGS

    def test_unparseable_value_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_chunks = 2\nchunk_size = many\ndimensionality = 3\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and "chunk_size" in err

    def test_readme_lists_the_run_keys(self):
        # the README's "Run keys:" paragraph names every run key once, and
        # nothing else, so that a field added to or removed from a config
        # dataclass shows up here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = next(block for block in readme.split("\n\n") if block.startswith("Run keys:"))
        assert sorted(re.findall(r"`([^`]+)`", paragraph)) == sorted(_RUN_KEYS)


class TestRun:
    def test_stationary_stream_exits_zero(self, tmp_path):
        stream = generate_stationary(tmp_path)
        cfg = run_config_for(tmp_path, stream)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        reports = (out / "reports.csv").read_text().splitlines()
        assert reports[0] == "id,f1,auc,fnr,correct,incorrect,percent_correct,drift_alarm"
        assert len(reports) == 5
        assert all(line.endswith(",false") for line in reports[1:])

        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert len(records) == 4 * 120
        assert {r["chunk_id"] for r in records} == {f"chunk_{i:03d}" for i in range(4)}
        assert set(records[0]) == {"chunk_id", "index", "truth", "predicted", "score"}

    def test_drift_stream_alarms_and_exits_two(self, tmp_path):
        stream = generate_stationary(
            tmp_path,
            name="drifty",
            drift_kind="sudden",
            drift_at_chunk=3,
            drift_magnitude=1.0,
        )
        cfg = run_config_for(tmp_path, stream, name="drift_run.cfg")
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        lines = (out / "reports.csv").read_text().splitlines()[1:]
        alarms = [line.split(",")[-1] for line in lines]
        assert alarms == ["false", "false", "false", "true"]

    def test_glob_chunk_pattern(self, tmp_path):
        stream = generate_stationary(tmp_path)
        cfg = write_config(
            tmp_path / "glob_run.cfg",
            initial_chunk=f"{stream.name}/chunk_000.csv",
            chunks=f"{stream.name}/chunk_00[1-9].csv",
            pc_count=2,
        )
        out = tmp_path / "globbed"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "reports.csv").read_text().splitlines()) == 5

    def test_record_lines_are_json_dumps(self, tmp_path, monkeypatch):
        ids = ['caf\u00e9 "\u0394" \\ chunk', "chunk_001"]
        blocks = [
            Records(ids[0], [0, 1], [1, 0], [0.0, 1.0]),
            Records(ids[1], [0, 1], [1, 0], [1 / 3, 5e-324]),
            Records(ids[0], [], [], []),
        ]
        records = [record for block in blocks for record in block]

        def replay(initial, chunks, config, record_sink):
            for block in blocks:
                record_sink(block)
            return []

        monkeypatch.setattr(cli, "run_experiment", replay)
        stream = generate_stationary(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(run_config_for(tmp_path, stream)), "--out", str(out)]) == 0
        want = "".join(
            json.dumps({"chunk_id": r.chunk_id, "index": r.index, "truth": r.truth,
                        "predicted": r.predicted, "score": r.score}) + "\n"
            for r in records
        )
        assert (out / "records.jsonl").read_text(encoding="utf-8") == want

    def test_byte_order_marks_are_dropped(self, tmp_path):
        # a config and chunk files saved with a UTF-8 byte-order mark run as
        # they do without it
        stream = generate_stationary(tmp_path)
        cfg = run_config_for(tmp_path, stream)
        plain = tmp_path / "plain"
        assert main(["run", "--config", str(cfg), "--out", str(plain)]) == 0
        for path in [cfg, *stream.glob("chunk_*.csv")]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        marked = tmp_path / "marked"
        assert main(["run", "--config", str(cfg), "--out", str(marked)]) == 0
        for name in ("records.jsonl", "reports.csv"):
            assert (marked / name).read_bytes() == (plain / name).read_bytes()

    def test_rerun_outputs_byte_identical(self, tmp_path):
        stream = generate_stationary(tmp_path)
        cfg = run_config_for(tmp_path, stream)
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "reports.csv").read_bytes() == (out_b / "reports.csv").read_bytes()
        assert (out_a / "records.jsonl").read_bytes() == (out_b / "records.jsonl").read_bytes()

    @pytest.mark.parametrize("window_size", [None, 20], ids=["chunk", "20"])
    def test_every_instance_recorded_when_rounds_fail(self, tmp_path, capsys, caplog, window_size):
        # the middle chunk has random labels, so its rounds fail; the
        # benchmark's output checks must hold all the same
        stream = generate_stationary(tmp_path, n_chunks=5)
        noisy = read_chunk_csv(stream / "chunk_002.csv")
        labels = np.random.default_rng(0).integers(0, 2, len(noisy))
        write_chunk_csv(Chunk(noisy.id, noisy.features, labels), stream / "chunk_002.csv")
        window = {} if window_size is None else {"window_size": window_size}
        cfg = run_config_for(tmp_path, stream, error_threshold=0.3, max_retries=2, **window)
        out = tmp_path / "results"
        # the noisy chunk's F1 falls well below the clean ones and alarms
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        # only the noisy chunk's rounds fail; the clean chunks after it train
        failed = {m.split(":")[0] for m in caplog.messages if "round failed" in m}
        assert failed == {"chunk chunk_002"}

        records = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        arrived = [(r["chunk_id"], r["index"], r["truth"]) for r in records]
        expected = []
        for path in sorted(stream.glob("chunk_*.csv")):
            chunk = read_chunk_csv(path)
            expected += [(chunk.id, i, label) for i, label in enumerate(chunk.labels.tolist())]
        assert arrived == expected

        capsys.readouterr()
        assert main(["report", str(out / "records.jsonl")]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines() if line]
        assert table == [line.split(",") for line in (out / "reports.csv").read_text().splitlines()]

    @pytest.mark.parametrize("kind", ["short", "constant", "nan", "single_class"])
    def test_odd_chunk_file_runs_as_in_the_library(self, tmp_path, caplog, kind):
        # one odd adaptive chunk does not end the run: read from files, the
        # stream gives the reports and records run_experiment gives in memory
        initial, *chunks = generate_stream(StreamSpec(n_chunks=4, chunk_size=200, dimensionality=6, seed=3))
        rows, labels = chunks[1].features.copy(), chunks[1].labels
        if kind == "short":
            rows, labels = rows[:2], labels[:2]  # fewer rows than pc_count
        elif kind == "constant":
            rows = np.ones_like(rows)
        elif kind == "nan":
            rows[4, 1] = np.nan
        else:
            labels = np.ones_like(labels)
        chunks[1] = Chunk(chunks[1].id, rows, labels)
        stream = tmp_path / "stream"
        stream.mkdir()
        for chunk in [initial, *chunks]:
            write_chunk_csv(chunk, stream / f"{chunk.id}.csv")
        out = tmp_path / "results"
        status = main(["run", "--config", str(run_config_for(tmp_path, stream, pc_count=3)), "--out", str(out)])

        blocks = []
        config = RunConfig(learnpp=LearnPPConfig(seed=0), pc_count=3)
        reports = adaptive.run_experiment(initial, chunks, config, record_sink=blocks.append)
        records = [record for block in blocks for record in block]
        assert status == (2 if any(r.drift_alarm for r in reports) else 0)
        with (out / "reports.csv").open(encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1:] == [cli._report_row(r) for r in reports]
        lines = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        assert [PredictionRecord(**line) for line in lines] == records
        # each report's error is logged, the invalid chunk's reason included
        assert (reports[2].error is not None) == (kind != "single_class")
        assert all(r.error in caplog.text for r in reports if r.error)

    @pytest.mark.parametrize("case", ["missing", "not_utf8", "headerless", "ragged", "bad_cell"])
    def test_refused_adaptive_file_reports_error_and_run_goes_on(self, tmp_path, caplog, case):
        # a chunk file refused mid-run gets an error report with its reason
        # logged; the model is left untouched, so every other record is the
        # one a run without that file writes
        stream = generate_stationary(tmp_path, n_chunks=5)
        cfg = run_config_for(tmp_path, stream)
        without = tmp_path / "without"
        shutil.copytree(stream, without)
        (without / "chunk_002.csv").unlink()
        chunk = stream / "chunk_002.csv"
        text = chunk.read_text()
        if case == "missing":
            chunk.unlink()
            reason = f"file not found: {chunk}"
        elif case == "not_utf8":
            chunk.write_bytes(chunk.read_bytes() + b"\xff,1\n")
            reason = f"{chunk}: not UTF-8"
        elif case == "headerless":
            chunk.write_text(text.split("\n", 1)[1])
            reason = f"{chunk}: row 1: expected a header"
        elif case == "ragged":
            chunk.write_text(text + "1.0,0\n")
            reason = f"{chunk}: row 122 has 2 columns, expected 5"
        else:
            lines = text.split("\n")
            lines[2] = "huh" + lines[2][lines[2].index(","):]
            chunk.write_text("\n".join(lines))
            reason = f"{chunk}: row 3, column 0: cannot parse 'huh' as a number"
        out, out_without = tmp_path / "results", tmp_path / "results_without"
        status = main(["run", "--config", str(cfg), "--out", str(out)])
        assert f"chunk chunk_002 cannot be read: {reason}" in caplog.text

        cfg_without = run_config_for(tmp_path, without, name="without.cfg")
        assert main(["run", "--config", str(cfg_without), "--out", str(out_without)]) == status == 0
        assert (out / "records.jsonl").read_bytes() == (out_without / "records.jsonl").read_bytes()
        rows = (out / "reports.csv").read_text().splitlines()
        assert rows.pop(3) == "chunk_002,0.0,nan,0.0,0,0,0.0,false"
        assert rows == (out_without / "reports.csv").read_text().splitlines()

    def test_each_adaptive_file_is_read_after_the_chunk_before_is_written(self, tmp_path, monkeypatch):
        # a run holds one chunk at a time: file i + 1 is opened only once
        # chunk i's records are in records.jsonl; chunks smaller than a
        # write buffer show that each chunk's lines are flushed
        stream = generate_stationary(tmp_path, n_chunks=5, chunk_size=40)
        out = tmp_path / "results"
        records = out / "records.jsonl"
        read, opened = cli.read_chunk_csv, []

        def spy(path):
            lines = records.read_text().splitlines() if records.exists() else []
            opened.append((Path(path).stem, Counter(json.loads(line)["chunk_id"] for line in lines)))
            return read(path)

        monkeypatch.setattr(cli, "read_chunk_csv", spy)
        assert main(["run", "--config", str(run_config_for(tmp_path, stream)), "--out", str(out)]) == 0
        assert opened == [
            (f"chunk_{i:03d}", Counter({f"chunk_{j:03d}": 40 for j in range(i)})) for i in range(5)
        ]

    def test_missing_initial_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "broken.cfg",
            initial_chunk="nowhere/chunk_000.csv",
            chunks="nowhere/chunk_001.csv",
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"error: file not found: {tmp_path / 'nowhere/chunk_000.csv'}" in capsys.readouterr().err

    def test_reports_csv_quotes_ids(self, tmp_path):
        # a chunk's id is its file's stem, and initial_chunk is not split on commas
        stream = generate_stationary(tmp_path)
        (stream / "chunk_000.csv").rename(stream / "init,0.csv")
        cfg = write_config(
            tmp_path / "run.cfg",
            initial_chunk=f"{stream.name}/init,0.csv",
            chunks=f"{stream.name}/chunk_00[1-9].csv",
            pc_count=2,
        )
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "reports.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [8] * 5
        assert [row[0] for row in rows[1:]] == ["init,0", "chunk_001", "chunk_002", "chunk_003"]


class TestReport:
    def run_once(self, tmp_path):
        stream = generate_stationary(tmp_path)
        cfg = run_config_for(tmp_path, stream)
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_table_matches_reports_csv(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        capsys.readouterr()
        assert main(["report", str(out / "records.jsonl")]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines() if line]
        csv_rows = [
            line.split(",") for line in (out / "reports.csv").read_text().splitlines()
        ]
        assert table[0] == csv_rows[0]
        assert len(table) == len(csv_rows)
        for printed, written in zip(table[1:], csv_rows[1:]):
            assert printed == written

    def test_empty_records(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 0
        assert "no records" in capsys.readouterr().out

    def test_malformed_line_named(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        good = json.dumps(
            {"chunk_id": "c", "index": 0, "truth": 1, "predicted": 1, "score": 0.9}
        )
        path.write_text(good + "\n{oops\n")
        assert main(["report", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_label_outside_binary_named(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        good = json.dumps(
            {"chunk_id": "c", "index": 0, "truth": 1, "predicted": 1, "score": 0.9}
        )
        bad = json.dumps(
            {"chunk_id": "c", "index": 1, "truth": 2, "predicted": 1, "score": 0.9}
        )
        path.write_text(good + "\n" + bad + "\n")
        assert main(["report", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_field_named(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({"chunk_id": "c", "index": 0, "truth": 1}) + "\n")
        assert main(["report", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "void.jsonl")]) == 1
        assert f"error: file not found: {tmp_path / 'void.jsonl'}" in capsys.readouterr().err

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        out = self.run_once(tmp_path)
        records = out / "records.jsonl"
        capsys.readouterr()
        assert main(["report", str(records)]) == 0
        plain = capsys.readouterr().out
        records.write_bytes(b"\xef\xbb\xbf" + records.read_bytes())
        assert main(["report", str(records)]) == 0
        assert capsys.readouterr().out == plain

    def test_custom_alarm_threshold(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        rows = []
        # first chunk perfect; second chunk misses one positive of four,
        # an f1 of 6/7: inside the default drop, outside a tight one
        for i in range(8):
            rows.append({"chunk_id": "a", "index": i, "truth": i % 2, "predicted": i % 2, "score": float(i % 2)})
        for i in range(8):
            predicted = (i % 2) if i < 7 else 0
            rows.append({"chunk_id": "b", "index": i, "truth": i % 2, "predicted": predicted, "score": float(predicted)})
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

        assert main(["report", str(path)]) == 0
        default_table = capsys.readouterr().out
        assert main(["report", str(path), "--drift-f1-drop", "0.05"]) == 0
        tight_table = capsys.readouterr().out
        assert default_table.splitlines()[2].split()[-1] == "false"
        assert tight_table.splitlines()[2].split()[-1] == "true"

    def test_memory_stays_flat_in_the_number_of_chunks(self, tmp_path, capsys):
        # each chunk is reported when its lines end and only its records are
        # held, so thirty more chunks cost less than one chunk's lines; the
        # tracemalloc peak is deterministic where RSS is not
        def records_file(n_chunks):
            path = tmp_path / f"records_{n_chunks}.jsonl"
            with path.open("w", encoding="utf-8") as fh:
                for c in range(n_chunks):
                    fh.writelines(
                        json.dumps({"chunk_id": f"chunk_{c:03d}", "index": i, "truth": i % 2,
                                    "predicted": (i // 3) % 2, "score": (i % 7) / 7}) + "\n"
                        for i in range(300)
                    )
            return path

        def peak(path):
            tracemalloc.start()
            try:
                assert main(["report", str(path)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = records_file(10), records_file(40)
        assert main(["report", str(short)]) == 0  # imports and caches
        one_chunk = short.stat().st_size / 10
        assert peak(long) - peak(short) < one_chunk
        # each table is a header and a row per chunk
        assert len(capsys.readouterr().out.splitlines()) == 11 + 41 + 11

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        # `driftpp report records.jsonl | head` with a reader that is gone
        # before the table is written
        records = self.run_once(tmp_path) / "records.jsonl"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "driftpp.cli", "report", str(records)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env=child_env(PYTHONUNBUFFERED=unbuffered),
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, b"")


class TestInputErrors:
    @staticmethod
    def one_record(tmp_path, **fields):
        """A records file of one valid record, with ``fields`` overriding."""
        record = {"chunk_id": "a", "index": 0, "truth": 1, "predicted": 1, "score": 0.9}
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({**record, **fields}) + "\n")
        return records

    @staticmethod
    def argv_and_name(case, tmp_path):
        """The command line of a bad-input case and a word its error names."""
        out = ["--out", str(tmp_path / "out")]
        if case == "pc_count":
            cfg = write_config(tmp_path / "run.cfg", initial_chunk="a.csv", chunks="b.csv", pc_count=0)
            return ["run", "--config", str(cfg)] + out, str(cfg)
        if case == "n_chunks":
            cfg = write_config(tmp_path / "gen.cfg", n_chunks=0, chunk_size=10, dimensionality=3)
            return ["generate", "--config", str(cfg)] + out, str(cfg)
        if case == "generate_seed":
            cfg = write_config(tmp_path / "gen.cfg", n_chunks=1, chunk_size=10, dimensionality=3, seed=-1)
            return ["generate", "--config", str(cfg)] + out, f"{cfg}: seed must be >= 0, got -1"
        if case == "run_seed":
            cfg = write_config(tmp_path / "run.cfg", initial_chunk="a.csv", chunks="b.csv", seed=-1)
            return ["run", "--config", str(cfg)] + out, f"{cfg}: seed must be >= 0, got -1"
        if case in ("knn_k", "error_threshold"):
            bad = {"knn_k": 0, "error_threshold": 0.9}[case]
            cfg = write_config(tmp_path / "run.cfg", initial_chunk="a.csv", chunks="b.csv", **{case: bad})
            return ["run", "--config", str(cfg)] + out, str(cfg)
        if case.startswith("record_"):
            key = case.removeprefix("record_")
            bad = {"chunk_id": ["a"], "index": "zz", "score": "0.5"}[key]
            records = TestInputErrors.one_record(tmp_path, **{key: bad})
            return ["report", str(records)], f"line 1: {key}"
        if case == "config_not_utf8":
            cfg = tmp_path / "run.cfg"
            cfg.write_bytes(b"initial_chunk = a.csv\nchunks = b\xe9.csv\n")
            return ["run", "--config", str(cfg)] + out, f"{cfg}: not UTF-8"
        if case == "records_not_utf8":
            records = TestInputErrors.one_record(tmp_path)
            records.write_bytes(records.read_bytes() + b"\xff\n")
            return ["report", str(records)], f"{records}: not UTF-8"
        if case in ("records_resumed", "records_index"):
            # two runs' records concatenated, or a chunk's line left out
            records = tmp_path / "records.jsonl"
            lines = [json.dumps({"chunk_id": chunk_id, "index": 0, "truth": 1, "predicted": 1, "score": 0.9})
                     for chunk_id in ("a", "b")]
            if case == "records_resumed":
                records.write_text("\n".join(lines + lines) + "\n")
                return ["report", str(records)], f"{records}: line 3: chunk 'a' resumes after chunk 'b'"
            records.write_text(lines[0] + "\n" + lines[0].replace('"index": 0', '"index": 2') + "\n")
            return ["report", str(records)], f"{records}: line 2: index 2 of chunk 'a', expected 1"
        if case.startswith("drift_f1_drop"):
            records = TestInputErrors.one_record(tmp_path)
            drop = "nan" if case.endswith("nan") else "-1"
            return ["report", str(records), "--drift-f1-drop", drop], "drift_f1_drop"
        stream = generate_stationary(tmp_path)
        if case == "repeated_chunk":
            cfg = write_config(
                tmp_path / "run.cfg",
                initial_chunk=f"{stream.name}/chunk_000.csv",
                chunks=f"{stream.name}/chunk_001.csv,{stream.name}/chunk_000.csv",
                pc_count=2,
            )
            return ["run", "--config", str(cfg)] + out, "chunk_000"
        cfg = run_config_for(tmp_path, stream)
        # a refused initial chunk file ends the run before any output
        initial = stream / "chunk_000.csv"
        if case == "initial_not_utf8":
            initial.write_bytes(initial.read_bytes() + b"\xff,1\n")
            return ["run", "--config", str(cfg)] + out, f"{initial}: not UTF-8"
        if case == "initial_headerless":
            initial.write_text(initial.read_text().split("\n", 1)[1])
            return ["run", "--config", str(cfg)] + out, f"{initial}: row 1: expected a header"
        if case == "initial_ragged":
            initial.write_text(initial.read_text() + "1.0,0\n")
            return ["run", "--config", str(cfg)] + out, f"{initial}: row 122 has 2 columns, expected 5"
        # the output directory's path is taken by a file
        (tmp_path / "out").write_text("a file\n")
        return ["run", "--config", str(cfg)] + out, str(tmp_path / "out")

    @pytest.mark.parametrize(
        "case",
        [
            "pc_count", "n_chunks", "knn_k", "error_threshold", "drift_f1_drop", "drift_f1_drop_nan",
            "record_chunk_id", "record_index", "repeated_chunk", "record_score", "config_not_utf8",
            "records_not_utf8", "initial_not_utf8", "out_is_a_file", "initial_headerless", "initial_ragged",
            "records_resumed", "records_index", "generate_seed", "run_seed",
        ],
    )
    def test_exits_one_with_error_line(self, case, tmp_path, capsys):
        argv, name = self.argv_and_name(case, tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "out" / "records.jsonl").exists()
        assert not (tmp_path / "out").is_dir()


class TestTracedSeams:
    def test_traced_names_are_looked_up_where_patched(self, tmp_path, monkeypatch):
        # perfbench/child.py traces a run by replacing these names in the
        # module that looks each one up; a refactor that inlines one or
        # looks it up elsewhere would leave that layer untraced
        seams = [(cli, "read_chunk_csv"), (learnpp.LearnPPModel, "predict")]
        seams += [(adaptive, name) for name in (
            "process_chunk", "reduce_chunk", "pca_fit", "pca_transform",
            "standardize_chunk", "confusion", "f1", "fnr", "auc",
        )]
        seams += [(learnpp, name) for name in ("run_round", "knn_fit", "knn_predict_batch")]
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[owner, name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in seams:
            count(owner, name)
        experiment = cli.run_experiment

        def experiment_with_sink(*args, record_sink=None, **kwargs):
            if record_sink is not None:
                calls[cli, "run_experiment"] += 1
            return experiment(*args, record_sink=record_sink, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", experiment_with_sink)
        # wider than pc_count, so that the PCA seams run
        stream = generate_stationary(tmp_path, dimensionality=4)
        cfg = run_config_for(tmp_path, stream, pc_count=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        seams.append((cli, "run_experiment"))
        assert [f"{owner.__name__}.{name}" for owner, name in seams if not calls[owner, name]] == []


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("driftpp")
        assert exe, "console script should be on PATH after an editable install"
        result = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0
        assert "generate" in result.stdout and "report" in result.stdout

    def test_module_help_in_a_fresh_interpreter(self):
        # `python -m driftpp.cli` imports the package afresh, star imports included
        result = subprocess.run(
            [sys.executable, "-m", "driftpp.cli", "--help"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 0
        assert "{run,generate,report}" in result.stdout

    def test_run_in_a_fresh_interpreter_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma, about 15 ms and 1.2 MiB of every run
        stream = generate_stationary(tmp_path)
        cfg = run_config_for(tmp_path, stream, window_size=40)
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        code = f"import sys; from driftpp.cli import main; print(main({argv!r}), 'numpy.ma' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.stdout.split() == ["0", "False"], result.stderr
        assert (tmp_path / "out" / "records.jsonl").stat().st_size > 0
