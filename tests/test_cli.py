import json

import numpy as np

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
