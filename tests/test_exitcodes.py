"""Pin the CLI exit-code contract.

CI jobs, the chaos suites, and service supervisors branch on these
numbers; changing one silently breaks callers the repo never sees.
This test makes any reshuffle an explicit, reviewed diff.
"""

from repro import exitcodes
from repro.exitcodes import EXIT_CODES


def test_exit_code_values_are_pinned():
    assert exitcodes.EX_OK == 0
    assert exitcodes.EX_GATE_FAILED == 1
    assert exitcodes.EX_ERROR == 2
    assert exitcodes.EX_APP_FAILED == 3
    assert exitcodes.EX_PARTIAL == 4
    assert exitcodes.EX_JOB_FAILED == 5
    assert exitcodes.EX_UNAVAILABLE == 6
    assert exitcodes.EX_DIVERGED == 7
    assert exitcodes.EX_SIGTERM == 143


def test_contract_table_is_complete_and_read_only():
    assert set(EXIT_CODES) == {0, 1, 2, 3, 4, 5, 6, 7, 143}
    assert all(isinstance(v, str) and v for v in EXIT_CODES.values())
    try:
        EXIT_CODES[8] = "surprise"  # type: ignore[index]
    except TypeError:
        pass
    else:
        raise AssertionError("EXIT_CODES must be immutable")


def test_cli_uses_the_contract():
    """The CLI must import its codes from the contract module, not
    hand-roll integers — spot-check the wiring end to end."""
    from repro.cli import main

    assert main(["list"]) == exitcodes.EX_OK
    assert main(["run", "definitely-not-an-experiment"]) == exitcodes.EX_ERROR


def test_json_lines_trace_is_an_error(tmp_path, capsys):
    """Only repro-trace-v2 files are read: a JSON-lines trace (the
    retired v1 format) is refused by analyze and explain alike."""
    from repro.cli import main

    path = tmp_path / "old.trace"
    path.write_text('{"format": "repro-trace-v1", "nranks": 2}\n')
    assert main(["analyze", str(path)]) == exitcodes.EX_ERROR
    assert "repro-trace-v2" in capsys.readouterr().err
    assert main(["explain", str(path)]) == exitcodes.EX_ERROR
    assert "repro-trace-v2" in capsys.readouterr().err
