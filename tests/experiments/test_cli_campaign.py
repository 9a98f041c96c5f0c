"""The campaign options every sweep CLI shares (``run_all``,
``smt_matrix``, ``dse``): ``--jobs`` validation and the fallback to a
local engine when ``--server`` names no daemon."""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import dse, run_all, smt_matrix


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    monkeypatch.delenv("REPRO_SERVER", raising=False)
    monkeypatch.setattr(runner_mod, "_default_cache", None)


def cli_argv(name, tmp_path):
    """A one-pair (or one-evaluation) run of each CLI."""
    if name == "run_all":
        return run_all.main, ["--pairs", r"^spec_000::conv32$"]
    if name == "smt_matrix":
        return smt_matrix.main, ["--workloads", "spec_000",
                                 "--configs", "conv32"]
    return dse.main, ["--strategy", "random", "--budget-evals", "1",
                      "--workloads", "spec_000",
                      "--out", str(tmp_path / "dse")]


CLIS = ("run_all", "smt_matrix", "dse")


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("name", CLIS)
def test_jobs_below_one_rejected(name, jobs, tmp_path, capsys):
    main, argv = cli_argv(name, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "at least 1" in err


@pytest.mark.parametrize("name", CLIS)
def test_absent_server_falls_back_to_local(name, tmp_path, capsys):
    main, argv = cli_argv(name, tmp_path)
    address = f"unix:{tmp_path}/absent.sock"
    obs_dir = tmp_path / "obs"
    assert main(argv + ["--server", address,
                        "--obs-dir", str(obs_dir)]) == 0
    out = capsys.readouterr().out
    assert f"service at {address} not answering; running locally" in out
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    assert metrics["status"] == "OK"
    assert "server" not in metrics["metrics"]
    assert metrics["metrics"]["pairs_simulated"] > 0
    assert metrics["metrics"]["result_cache.stores"] == \
        metrics["metrics"]["pairs_simulated"]
