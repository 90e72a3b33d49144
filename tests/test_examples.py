"""The runnable examples under ``examples/`` run to completion and report
what the paper's operations promise.

This is the examples' smoke run: each script runs in-process as ``__main__``,
in every tier-1 run, so a broken example fails the suite locally as in CI."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_example_runs_to_completion(name, capsys):
    assert run_example(name, capsys).strip()


def test_quickstart_stops_events_when_disabled_and_an_aborted_move_keeps_the_source(capsys):
    lines = run_example("quickstart.py", capsys).splitlines()
    reported = [line for line in lines if line.startswith("after 20 new flows")]
    assert len(reported) == 2
    counts = [int(line.split("reported ")[1].split()[0]) for line in reported]
    # The second burst arrives after disable_events, so the count does not grow.
    assert counts[0] > 0 and counts[1] == counts[0]
    aborted = next(line for line in lines if line.startswith("second move aborted"))
    kept, held = aborted.split("kept ")[1].split(" flow records")[0].split(" of ")
    assert int(kept) == int(held) > 0
