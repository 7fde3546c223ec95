"""Command-line interface: config handling, exit codes, deterministic
emission, and round-tripping."""
import json

import pytest

from specsing import density
from specsing.cli import RunConfig, _floats, _ints, emit, load_report, main, run


def _cfg(tmp_path, **kw):
    base = dict(command="kernel-eval", beta=2, p=1.5, q=0.7,
                n_list=[20], grid_x=[2.0], grid_y=[0.9],
                out=str(tmp_path / "out.json"), format="json")
    base.update(kw)
    return RunConfig(**base)


class TestValidation:
    def test_empty_grid_exit_1(self, tmp_path):
        assert run(_cfg(tmp_path, grid_x=[])) == 1

    def test_unknown_command(self, tmp_path):
        with pytest.raises(ValueError):
            _cfg(tmp_path, command="nope").validate()

    def test_density_odd_beta(self, tmp_path):
        assert run(_cfg(tmp_path, command="density-eval", beta=1)) == 1

    @pytest.mark.parametrize("pq", [(-0.5, 0.0), (0.0, 0.5)])
    def test_p_rule_matches_ensemble_params(self, tmp_path, pq):
        # p = 0 is accepted only with q = 0 (see test_converge_circular)
        assert run(_cfg(tmp_path, p=pq[0], q=pq[1])) == 1

    @pytest.mark.parametrize("kw", [{"beta": 3}, {"beta": 0}, {"n_list": [20, 0]}])
    def test_ensemble_inputs_checked_by_ensemble_params(self, tmp_path, kw):
        # validate builds EnsembleParams for every N, so beta = 0 and N = 0
        # are rejected before any command runs
        cfg = _cfg(tmp_path, **kw)
        with pytest.raises(ValueError):
            cfg.validate()
        assert run(cfg) == 1

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_kernel_limit_point_exit_1(self, tmp_path, beta):
        # X = 0 wrote a NaN row with exit 0 (beta = 2) or reported a
        # ZeroDivisionError as a numerical failure, exit 2 (beta = 1, 4)
        out = tmp_path / "out.json"
        assert main(["--command", "kernel-limit", "--beta", str(beta),
                     "--grid-x", "0,1", "--out", str(out)]) == 1
        assert not out.exists()

    def test_bad_theta_is_validation_error(self, tmp_path):
        cfg = _cfg(tmp_path, command="density-eval", grid_x=[7.0])
        assert run(cfg) == 1  # theta outside (0, 2 pi)


class TestCommands:
    def test_kernel_eval(self, tmp_path):
        cfg = _cfg(tmp_path)
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert rep["columns"] == ["beta", "N", "X", "Y", "S_scaled"]
        assert len(rep["rows"]) == 1

    def test_kernel_limit(self, tmp_path):
        cfg = _cfg(tmp_path, command="kernel-limit")
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert rep["columns"][:4] == ["X", "Y", "K_re", "K_im"]

    def test_density_commands(self, tmp_path):
        cfg = _cfg(tmp_path, command="density-eval", n_list=[4],
                   grid_x=[0.8, 2.0])
        assert run(cfg) == 0
        cfg = _cfg(tmp_path, command="density-limit", grid_x=[1.0])
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert rep["rows"][0][1] > 0

    def test_density_eval_grid_deterministic_bytes(self, tmp_path):
        # theta values share each N's cached Jack series
        out = [str(tmp_path / f"r{k}.csv") for k in (1, 2)]
        for path in out:
            assert run(_cfg(tmp_path, command="density-eval", beta=4, n_list=[6, 12],
                            grid_x=[0.3, 1.1, 2.0, 3.5, 5.9], out=path, format="csv")) == 0
        first = open(out[0], "rb").read()
        assert first == open(out[1], "rb").read() and first.count(b"\n") == 11

    def test_verify_identity(self, tmp_path):
        cfg = _cfg(tmp_path, command="verify-identity", n_list=[20],
                   grid_x=[2.0], grid_y=[0.9])
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert rep["max_residual"] <= 1e-6

    def test_verify_identity_reports_diagonal(self, tmp_path):
        cfg = _cfg(tmp_path, command="verify-identity", beta=4, n_list=[20],
                   grid_x=[1.3, 2.0], grid_y=[1.3])
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert [row[1:3] for row in rep["rows"]] == [[1.3, 1.3], [2.0, 1.3]]
        assert rep["max_residual"] <= 1e-6

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_verify_identity_circular(self, tmp_path, beta):
        # p = q = 0 on the default grids: L1 vanishes, and its rounding noise
        # no longer fails the gate (exit 3 before)
        out = tmp_path / "out.json"
        assert main(["--command", "verify-identity", "--beta", str(beta), "--p", "0",
                     "--q", "0", "--out", str(out)]) == 0
        assert load_report(str(out))["max_residual"] <= 1e-6

    def test_converge_circular(self, tmp_path):
        # p = q = 0: order-0 slope is already near -2
        cfg = _cfg(tmp_path, command="converge", p=0.0, q=0.0,
                   n_list=[50, 100, 200])
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        slopes = {row[0]: row[3] for row in rep["rows"]}
        assert -2.4 < slopes["order0"] < -1.6

    def test_ortho_check(self, tmp_path):
        cfg = _cfg(tmp_path, command="ortho-check", n_list=[8])
        assert run(cfg) == 0

    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_ortho_check_defaults(self, tmp_path, beta):
        # the default N = 800 system, n <= m <= 6
        cfg = RunConfig(command="ortho-check", beta=beta, out=str(tmp_path / "o.json"))
        assert run(cfg) == 0
        assert load_report(cfg.out)["max_residual"] <= 1e-10

    def test_verify_intermediate(self, tmp_path):
        cfg = _cfg(tmp_path, command="verify-intermediate",
                   n_list=[100, 200], grid_x=[1.3])
        assert run(cfg) == 0

    def test_morris_check_defaults(self, tmp_path):
        # the real quadrature at the RunConfig defaults: 27 cases, N <= 3
        # (measured max_rel_err 3.3e-15)
        cfg = RunConfig(command="morris-check", out=str(tmp_path / "m.json"))
        assert run(cfg) == 0
        assert load_report(cfg.out)["max_rel_err"] <= 1e-6

    def test_morris_check(self, tmp_path, monkeypatch):
        # a quadrature 1e-9 off the closed form: exit 0 under the default
        # 1e-6 tolerance, 3 under a 1e-10 one
        monkeypatch.setattr(density, "morris_quadrature",
                            lambda m: density.morris_closed(m) * (1 + 1e-9))
        cfg = _cfg(tmp_path, command="morris-check")
        assert run(cfg) == 0
        rep = load_report(cfg.out)
        assert rep["columns"] == ["N", "lambda", "a", "b", "closed_re", "closed_im",
                                  "quad_re", "quad_im", "rel_err"]
        assert len(rep["rows"]) == 27  # N in 1..3, 3 lambdas, 3 (a, b) pairs
        assert rep["max_rel_err"] == pytest.approx(1e-9, rel=1e-6)
        assert run(_cfg(tmp_path, command="morris-check",
                        tolerances={"morris": 1e-10})) == 3


class TestEmission:
    REPORT = {"command": "demo", "columns": ["a", "b_re", "b_im"],
              "rows": [[1, 0.1234567890123456789, -2.0],
                       [2, 3.5e-11, 7.0]]}

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        emit(self.REPORT, "csv", p1)
        emit(self.REPORT, "csv", p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        j1, j2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        emit(self.REPORT, "json", j1)
        emit(self.REPORT, "json", j2)
        assert open(j1, "rb").read() == open(j2, "rb").read()

    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "r.json")
        emit(self.REPORT, "json", path)
        back = load_report(path)
        assert back["columns"] == self.REPORT["columns"]
        assert back["rows"][0][1] == self.REPORT["rows"][0][1]

    def test_csv_17_digits(self, tmp_path):
        path = str(tmp_path / "r.csv")
        emit(self.REPORT, "csv", path)
        text = open(path).read()
        assert "0.12345678901234568" in text
        assert text.splitlines()[0] == "a,b_re,b_im"


class TestMain:
    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "command": "kernel-eval", "beta": 2, "p": 1.5, "q": 0.7,
            "n_list": [10], "grid_x": [2.0], "grid_y": [0.9],
            "out": str(tmp_path / "a.json")}))
        code = main(["--config", str(cfgfile), "--out",
                     str(tmp_path / "b.json")])
        assert code == 0
        assert (tmp_path / "b.json").exists()
        assert not (tmp_path / "a.json").exists()

    def test_missing_command(self):
        assert main([]) == 1

    def test_list_parsers_skip_blank_tokens(self):
        assert _floats("1.5, ,2,  ") == [1.5, 2.0]
        assert _ints(" 3 ,, 40,") == [3, 40]
        assert _floats("") == [] and _ints(" , ") == []

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"command": "kernel-eval",
                                       "bogus_key": 1}))
        assert main(["--config", str(cfgfile)]) == 1
