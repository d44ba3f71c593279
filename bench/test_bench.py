"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
    SPEC = json.load(f)


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for name, size in (("SCAN_SOURCE_LINES", 300), ("SCAN_LOG_LINES", 500),
                       ("REPORT_SNAPSHOTS", 12), ("RECORD_PREFILL", 30)):
        monkeypatch.setattr(workloads, name, size)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(capsys, workload, trace, section):
    res = result(capsys, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    def inputs(directory: Path, seed: int) -> dict[str, bytes]:
        directory.mkdir()
        workloads.WORKLOADS[workload](directory, seed)
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    first = inputs(tmp_path / "a", 7)
    assert first == inputs(tmp_path / "b", 7)
    assert first != inputs(tmp_path / "c", 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_reference_counts_as_failure(capsys, monkeypatch, workload):
    monkeypatch.setattr(workloads, "fmt_2dp", lambda value: "-1.00")
    res = result(capsys, workload, 0)
    assert not res["correct"] and res["failed"] == res["attempted"]
    assert res["metrics"]["success_rate"]["value"] == 0


def test_traced_run_spans_every_layer(tmp_path):
    names = set()
    for workload in sorted(workloads.WORKLOADS):
        workdir = tmp_path / workload
        workdir.mkdir()
        run.trace(workloads.WORKLOADS[workload](workdir, 5), workdir, 0.01)
        with gzip.open(workdir / "spans.jsonl.gz", "rt", encoding="utf-8") as f:
            names |= {json.loads(line)[0] for line in f}
    assert names == {"cli.main"} | {name for _, _, name, _ in tracing.TARGETS}
    assert {name.split(".")[0] for name in names} == set(tracing.LAYERS)
