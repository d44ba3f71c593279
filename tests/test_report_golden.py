"""Golden bytes of ``report`` on one small fixed store, ``golden/store.jsonl``.

The cases are text with no fit and with fit degrees 1, 2 and 3, csv and svg, for
``demo``, whose seven snapshots hold a negative X (-3.125), an X on a tie of its
third decimal (90.625, shown as 90.63), a whole X and a time that ``:g`` writes
with an exponent; for ``solo``, a project of one snapshot whose file name holds
``&``, ``<`` and ``>``; and for ``other``, a project of exactly two snapshots,
whose first and last are the two ends of one pair. Each case runs on a copy of the store twice: once
unsealed, a full check that leaves a seal, and once under that seal. Every case leaves
the same seal, ``golden/store.seal``.

After a deliberate change of the report's output, regenerate the expected files
from the root of a checkout with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import shutil
from pathlib import Path

import pytest

from excellence.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "demo.txt": ["--project", "demo"],
    "demo_fit1.txt": ["--project", "demo", "--fit-degree", "1"],
    "demo_fit2.txt": ["--project", "demo", "--fit-degree", "2", "--alpha", "2.5",
                      "--tolerance", "0.01"],
    "demo_fit3.txt": ["--project", "demo", "--fit-degree", "3"],
    "demo.csv": ["--project", "demo", "--format", "csv"],
    "demo.svg": ["--project", "demo", "--format", "svg"],
    "solo.txt": ["--project", "solo", "--fit-degree", "1"],
    "solo.csv": ["--project", "solo", "--format", "csv"],
    "solo.svg": ["--project", "solo", "--format", "svg"],
    "other.txt": ["--project", "other", "--fit-degree", "1"],
    "other.csv": ["--project", "other", "--format", "csv"],
    "other.svg": ["--project", "other", "--format", "svg"],
}


def _report(store: Path, args: list, capsys) -> str:
    assert main(["report", "--store", str(store), *args]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_golden_bytes(tmp_path, capsys, name):
    store = tmp_path / "store.jsonl"
    shutil.copyfile(GOLDEN / "store.jsonl", store)
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert _report(store, CASES[name], capsys) == expected
    assert (tmp_path / "store.jsonl.seal").read_bytes() == (GOLDEN / "store.seal").read_bytes()
    assert _report(store, CASES[name], capsys) == expected


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        for name, args in CASES.items():
            store = Path(work) / name
            shutil.copyfile(GOLDEN / "store.jsonl", store)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["report", "--store", str(store), *args])
            if code != 0:
                raise SystemExit(f"report {' '.join(args)} exited {code}")
            (GOLDEN / name).write_bytes(out.getvalue().encode("utf-8"))
            print(f"wrote {GOLDEN / name}")
        (GOLDEN / "store.seal").write_bytes((Path(work) / f"{name}.seal").read_bytes())
        print(f"wrote {GOLDEN / 'store.seal'}")
