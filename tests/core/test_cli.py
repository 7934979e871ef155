"""Tests for the ``python -m repro`` command-line entry point."""

import pytest

from repro.__main__ import build_parser, main
from repro.core.config import ENGINES


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.replicas == 4
    assert args.engine == "ce"
    assert args.cross == 0.0


def test_parser_rejects_bad_engine():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--engine", "magic"])


def test_parser_offers_only_the_three_engines():
    assert ENGINES == ("ce", "occ", "serial")
    (action,) = [action for action in build_parser()._actions
                 if action.dest == "engine"]
    assert tuple(action.choices) == ENGINES


def test_crash_validation():
    assert main(["--crash", "9", "--replicas", "4"]) == 2


def test_main_runs_small_cluster(capsys):
    code = main(["--replicas", "4", "--duration", "0.2", "--batch", "10",
                 "--accounts", "200", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Thunderbolt: 4 replicas" in out
    assert "throughput:" in out
    assert "logs consistent:  True" in out


def test_main_serial_engine(capsys):
    code = main(["--engine", "serial", "--duration", "0.2", "--batch", "10",
                 "--accounts", "200"])
    assert code == 0
    assert "Tusk:" in capsys.readouterr().out
