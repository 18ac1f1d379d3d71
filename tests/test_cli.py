import json
import os

import numpy as np
import pytest

from ldgrad import chains, cli, markov, structure
from ldgrad.errors import LdgradError


def test_no_cross_check_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    assert issubclass(structure.NoCrossCheck, LdgradError)
    err = structure.NoCrossCheck(1.0, 2.0)
    assert (err.direct, err.dual) == (1.0, 2.0)

    def disagree(*args, **kwargs):
        raise structure.NoCrossCheck(1.0, 2.0)

    monkeypatch.setattr(structure, "diagnostics", disagree)
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.two_state_symmetric(), gen)
    code = cli.main(["analyze", "--generator", str(gen), "--samples", "1",
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME
    assert "psi routes disagree" in capsys.readouterr().err


def test_simulate_ignores_a_legacy_workers_key(tmp_path):
    gen = tmp_path / "gen.json"
    markov.save_generator(chains.two_state_symmetric(), gen)
    outputs = []
    for workers in (None, 4):
        cfg = {"generator": str(gen), "T": 0.2, "grid_dt": 0.02,
               "target": {"type": "constant", "rho": [0.6, 0.4]},
               "tube_radius": 0.1, "n_list": [20], "replicas": 4, "seed": 3}
        if workers is not None:
            cfg["workers"] = workers
        path = tmp_path / ("cfg%s.json" % workers)
        path.write_text(json.dumps(cfg))
        out = tmp_path / ("out%s" % workers)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(out)]) == cli.EXIT_OK
        outputs.append([(out / name).read_bytes()
                        for name in ("ldp_report.json", "replicas.csv")])
    report = [json.loads(o[0]) for o in outputs]
    for r in report:
        r.pop("config_file")
    assert report[0] == report[1]
    assert outputs[0][1] == outputs[1][1]
    assert np.isfinite(report[0]["rate_functional"])


def _simulate_config(tmp_path, Q, target):
    gen = tmp_path / "gen.json"
    markov.save_generator(markov.validate_generator(Q), gen)
    cfg = {"generator": str(gen), "T": 1.0, "grid_dt": 0.1, "target": target,
           "tube_radius": 0.1, "n_list": [100], "replicas": 2, "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]


def test_simulate_over_budget_tilt_is_a_runtime_failure(tmp_path, capsys):
    argv = _simulate_config(
        tmp_path, [[-100.0, 100.0], [100.0, -100.0]],
        {"type": "constant", "rho": [1.0 - 1e-9, 1e-9]})
    assert cli.main(argv) == cli.EXIT_RUNTIME
    assert "thinning proposal budget exceeded" in capsys.readouterr().err


def test_simulate_unknown_target_is_an_input_error(tmp_path, capsys):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "bogus"})
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "unknown target type" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("replicas", 1), ("replicas", 0),
                                       ("n_list", []), ("n_list", [10, 0])])
def test_simulate_rejects_too_few_replicas_or_particles(tmp_path, capsys,
                                                        key, value):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.6, 0.4]})
    cfg_path = argv[2]
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ldp_report.json").exists()


def test_simulate_report_counts_thinning(tmp_path):
    argv = _simulate_config(tmp_path, [[-1.0, 1.0], [1.0, -1.0]],
                            {"type": "constant", "rho": [0.7, 0.3]})
    reports = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_OK
        reports.append((tmp_path / "out" / "ldp_report.json").read_bytes())
    assert reports[0] == reports[1]
    thinning = json.loads(reports[0])["thinning"]
    assert 0 < thinning["accepted"] <= thinning["proposals"]


def test_failed_atomic_write_keeps_the_earlier_file(tmp_path):
    path = str(tmp_path / "report.json")
    cli.write_json(path, {"a": 1})
    before = (tmp_path / "report.json").read_bytes()
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(path, "unpaired surrogate \ud800")
    assert (tmp_path / "report.json").read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]
