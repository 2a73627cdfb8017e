"""Every CLI invocation of the stored baseline (tests/_baseline.py) re-run
in-process: the same exit code, JSON keys, units, assumption lines and
warning categories, and every number within 1e-12 relative."""

import json
import os

import pytest

from _baseline import BASELINE, CASES, diff_outputs, run_case


def test_baseline_holds_exactly_the_cases():
    assert sorted(os.listdir(BASELINE)) == sorted(f"{n}.json" for n in CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_baseline(name):
    with open(os.path.join(BASELINE, f"{name}.json")) as fh:
        want = json.load(fh)
    config, argv = CASES[name]
    assert (want["argv"], want["config"]) == (argv, config)
    assert diff_outputs(run_case(config, argv), want) == []


def test_comparison_sees_a_number_move_past_the_tolerance():
    with open(os.path.join(BASELINE, "default--phase.json")) as fh:
        want = json.load(fh)
    env = json.loads(want["stdout"])
    for factor, diffs in ((1.0 + 1e-14, 0), (1.0 + 1e-10, 1)):
        moved = json.loads(want["stdout"])
        moved["results"]["phase_cw"]["value"] = \
            env["results"]["phase_cw"]["value"] * factor
        got = {**want, "stdout": json.dumps(moved)}
        assert len(diff_outputs(got, want)) == diffs
