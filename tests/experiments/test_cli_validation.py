"""CLI argument validation: bad counts die at the parser, with a reason."""

import pytest

from repro.__main__ import main
from repro.experiments.runner import non_negative_int, positive_int


class TestArgparseTypes:
    def test_positive_int_accepts(self):
        assert positive_int("3") == 3

    @pytest.mark.parametrize("text", ["0", "-1", "-200", "abc", "1.5"])
    def test_positive_int_rejects(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            positive_int(text)

    def test_non_negative_int_accepts_zero(self):
        assert non_negative_int("0") == 0

    @pytest.mark.parametrize("text", ["-1", "abc"])
    def test_non_negative_int_rejects(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            non_negative_int(text)


class TestMainRejectsBadCounts:
    """argparse exits with code 2 and a usage line instead of letting a
    nonsensical count crash a worker or produce an empty report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--loops", "0"],
            ["run", "--loops", "-5"],
            ["run", "--spill-loops", "0"],
            ["run", "--workers", "-1"],
            ["sweep", "--loops", "-3"],
            ["sweep", "--workers", "-2"],
            ["serve", "--port", "-1"],
            ["serve", "--engine-workers", "-1"],
            ["--loops", "0"],  # backward-compat implicit "run"
        ],
    )
    def test_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "integer" in err

    def test_unknown_sweep_policy_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--policy", "nope"])
        assert excinfo.value.code == 2
        assert "--policy" in capsys.readouterr().err

    def test_pressure_sweep_policy_error_names_the_flags(self, capsys):
        """The facade's error names wire fields; the CLI must translate
        back to the flags the user actually typed."""
        assert main(["sweep", "--name", "pressure", "--policy", "longest"]) == 2
        err = capsys.readouterr().err
        assert "--policy/--escalation" in err
        assert "victim_policies" not in err


class TestServeCommand:
    """``repro serve`` hands its flags to one single-process server."""

    @pytest.fixture()
    def configs(self, monkeypatch):
        from repro.api import serve as serve_module

        seen = []
        monkeypatch.setattr(
            serve_module, "serve", lambda config: seen.append(config) or 0
        )
        return seen

    def test_flags_reach_the_serve_config(self, configs, tmp_path):
        argv = [
            "serve", "--port", "0", "--engine-workers", "2",
            "--max-inflight", "5", "--rate-limit", "7.5", "--burst", "3",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        (config,) = configs
        assert (config.port, config.engine_workers, config.max_inflight) == (
            0, 2, 5
        )
        assert (config.rate_limit, config.burst) == (7.5, 3.0)
        assert config.cache_dir == str(tmp_path)

    def test_no_cache_keeps_results_in_memory(self, configs):
        assert main(["serve", "--port", "0", "--no-cache"]) == 0
        assert configs[0].cache_dir is None

    def test_workers_flag_is_gone(self, configs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert configs == []
