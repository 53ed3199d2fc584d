import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ridgelab import cli
from ridgelab.cli import ConfigError, ExperimentConfig, parse_config, run
from ridgelab.targets import GaussianSpec, TargetFunction, make_gaussian


@pytest.fixture(autouse=True)
def _quiet_support_warning():
    import warnings
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="profile support")
        yield


MINIMAL = """
# smallest useful slice check
kind = radon-check
d = 2
trials = 3
"""


class TestParseConfig:
    def test_minimal_radon_check(self):
        config = parse_config(MINIMAL)
        assert config.kind == "radon-check"
        assert config.d == 2
        assert config.trials == 3

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("kind = inversion-check  # trailing\n\nd = 2\n")
        assert config.kind == "inversion-check"

    def test_duplicate_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 3.*'d'"):
            parse_config("kind = radon-check\nd = 2\nd = 3\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("kind = radon-check\nd = 2\nfrobnicate = 1\n")

    def test_d_zero_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config("kind = radon-check\nd = 0\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("kind radon-check\n")

    def test_empty_widths_rejected(self):
        with pytest.raises(ConfigError, match="widths"):
            parse_config("kind = rate-sweep\nd = 2\nwidths =\n")

    def test_non_increasing_widths_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config("kind = rate-sweep\nd = 2\nwidths = 16, 16, 32\n")

    def test_widths_parse(self):
        config = parse_config("kind = rate-sweep\nd = 2\nwidths = 4, 8, 16\n")
        assert config.widths == (4, 8, 16)


class TestRun:
    def test_radon_check_report(self, tmp_path):
        config = parse_config(MINIMAL)
        report = run(config, out_dir=str(tmp_path))
        assert report.slopes["max_rel_err"] <= 1e-6
        text = (tmp_path / "radon-check.csv").read_text()
        assert text.splitlines()[3] == "trial,b,rel_err"
        assert text.splitlines()[-1].startswith("# wallclock")

    def test_variation_bound_report(self, tmp_path):
        config = ExperimentConfig(kind="variation-bound", d=1, k=0,
                                  sphere_level=4, line_n=1024)
        report = run(config, out_dir=str(tmp_path))
        assert np.isfinite(report.slopes["ratio"])
        assert report.slopes["ratio_drift"] < 0.05

    def test_tolerance_failure_still_writes_report(self, tmp_path):
        config = ExperimentConfig(kind="radon-check", d=2, trials=2,
                                  tolerance=1e-18)
        with pytest.raises(cli.NumericalCheckError):
            run(config, out_dir=str(tmp_path))
        assert (tmp_path / "radon-check.csv").exists()

    def test_rate_sweep_deterministic_body(self, tmp_path):
        text = ("kind = rate-sweep\nd = 2\nk = 1\nwidths = 8, 16, 32\n"
                "eval_count = 1024\nsphere_level = 6\nline_n = 512\n")
        bodies = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run(parse_config(text), out_dir=str(out))
            lines = (out / "rate-sweep.csv").read_text().splitlines()
            bodies.append("\n".join(l for l in lines
                                    if not l.startswith("# wallclock")))
        assert bodies[0] == bodies[1]

    def test_mollify_sweep_slope(self, tmp_path):
        config = ExperimentConfig(kind="mollify-sweep", d=1, s=1,
                                  epsilons=(0.25, 0.125, 0.0625),
                                  eval_count=128)
        report = run(config, out_dir=str(tmp_path))
        assert report.slopes["slope"] >= 0.8


class TestMain:
    def test_version_command(self, capsys):
        assert cli.main(["version"]) == 0
        assert "ridgelab" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("kind = radon-check\nd = 0\n")
        assert cli.main(["run", str(path)]) == 2

    @pytest.mark.parametrize("text", [
        "kind = variation-bound\nd = 1\nwidth = 0\n",
        "kind = variation-bound\nd = 1\ntarget = cusp\ngamma = 0\n",
        "kind = inversion-check\nd = 1\nline_n = 100\n",
        "kind = inversion-check\nd = 1\nline_l = 0.5\n",
        "kind = inversion-check\nd = 1\nsphere_level = 0\n",
        "kind = inversion-check\nd = 1\npoints = 0\n",
        "kind = radon-check\nd = 2\ntrials = -1\n",
        "kind = rate-sweep\nd = 1\nwidths = 0, 1, 2\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 8, 16\namplitude = 0\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 8, 16\np = 1\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 8, 16\neval_count = 0\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 8, 16\nn_seeds = 0\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
        "constructor = quadrature\nschedule = epsilon\ns = -1\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
        "constructor = quadrature\nschedule = epsilon\ns = 0\n",
        "kind = mollify-sweep\nd = 1\ns = 1\nepsilons = 2, 3, 4\n",
        "kind = mollify-sweep\nd = 1\ns = 1\nepsilons = 0.5, 0.25\np = 1\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 8\n",
        "kind = rate-sweep\nd = 2\nwidths = 4, 8\n",
        "kind = rate-sweep\nd = 3\nwidths = 4, 8\n",
        "kind = mollify-sweep\nd = 1\ns = 1\nepsilons = 0.5\n",
        "kind = mollify-sweep\nd = 1\ns = 1\nepsilons = 0.5, 0.25, 0.5\n",
        "kind = radon-check\nd = 2\ntrials = 3\namplitude = 0\n",
        "kind = inversion-check\nd = 1\namplitude = 0\n",
        "kind = variation-bound\nd = 1\namplitude = 0\n",
        "kind = peano-reconstruct\nd = 2\nk = 1\nsphere_level = 4\n"
        "line_n = 512\namplitude = 0\n",
        "kind = mollify-sweep\nd = 1\ns = 1\nepsilons = 0.5, 0.25, 0.125\n"
        "amplitude = 0\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
        "constructor = quadrature\namplitude = 0\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
        "constructor = quadrature\nschedule = epsilon\namplitude = 0\n",
    ])
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,args,message", [
        ("kind = peano-reconstruct\nd = 2\ncenter = nan, 0\n", [],
         "center must be finite, got (nan, 0.0)"),
        ("kind = inversion-check\nd = 1\nwidth = inf\n", [],
         "width must be finite, got inf"),
        ("kind = inversion-check\nd = 1\namplitude = nan\n", [],
         "amplitude must be finite, got nan"),
        ("kind = radon-check\nd = 2\namplitude = inf\n", [],
         "amplitude must be finite, got inf"),
        ("kind = inversion-check\nd = 1\ntarget = cusp\ngamma = inf\n", [],
         "gamma must be finite, got inf"),
        ("kind = inversion-check\nd = 1\ntolerance = nan\n", [],
         "tolerance must be finite, got nan"),
        ("kind = inversion-check\nd = 1\nline_l = inf\n", [],
         "line_l must be finite, got inf"),
        ("kind = peano-reconstruct\nd = 1\nline_l = inf\n", [],
         "line_l must be finite, got inf"),
        ("kind = inversion-check\nd = 1\nseed = -1\n", [],
         "seed must lie in [0, 2^64), got -1"),
        ("kind = inversion-check\nd = 1\n", ["--seed", str(2 ** 64)],
         "seed must lie in [0, 2^64), got %d" % 2 ** 64),
    ])
    def test_non_finite_values_exit_2(self, tmp_path, capsys, text, args,
                                      message):
        # each of these ran to exit 0 with NaN figures, passed every check
        # (tolerance = nan), or ended in a raw IndexError or OverflowError
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]
                        + args) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not list(tmp_path.glob("*.csv"))

    def test_largest_seed_runs(self):
        config = parse_config("kind = inversion-check\nd = 1\nseed = %d\n"
                              % (2 ** 64 - 1))
        assert config.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("text,message", [
        ("kind = inversion-check\nd = 1\nsphere_level = 1\nline_n = 512\n"
         "points = 20\n", "inversion-check: error nan exceeds 1.0e-03"),
        ("kind = peano-reconstruct\nd = 2\nsphere_level = 4\nline_n = 512\n"
         "points = 20\n", "peano-reconstruct: sup error nan exceeds 1.0e-03"),
        ("kind = rate-sweep\nd = 2\nwidths = 16, 64, 256\n"
         "constructor = quadrature\neval_count = 64\n",
         "rate-sweep: the error at n = 16 is nan, so no rate can be fitted"),
    ])
    def test_nan_figures_exit_3_with_report(self, tmp_path, capsys, text,
                                            message):
        # amplitude = 1e308 is finite, but the profiles overflow: the
        # figures are NaN, and a NaN figure fails its check
        path = tmp_path / "huge.cfg"
        path.write_text(text + "amplitude = 1e308\n")
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "check failed: %s" % message in capsys.readouterr().err
        [report] = tmp_path.glob("*.csv")
        assert "nan" in report.read_text()

    def test_sampled_rate_sweep_without_finite_variation_exit_3(
            self, tmp_path, capsys):
        # the sampled sweep draws from the tables' mass, which is NaN here
        path = tmp_path / "huge.cfg"
        path.write_text("kind = rate-sweep\nd = 2\nwidths = 4, 8, 16\n"
                        "sphere_level = 4\nline_n = 512\neval_count = 64\n"
                        "amplitude = 1e308\n")
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert ("check failed: rate-sweep: the variation bound is nan, so no "
                "width can be sampled") in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["radon-check", "variation-bound"])
    def test_nan_check_figure_exit_3(self, tmp_path, capsys, monkeypatch,
                                     kind):
        # a NaN relative error (radon-check) or ratio drift
        # (variation-bound) is not within any tolerance
        monkeypatch.setattr(cli, "radon_direct",
                            lambda f, omega, b: float("nan"))
        monkeypatch.setattr(cli, "sobolev_seminorm", lambda f, s: 1.0)
        variation = iter([1.0, float("nan")])
        monkeypatch.setattr(
            cli, "peano_tables",
            lambda *args: SimpleNamespace(variation=next(variation)))
        path = tmp_path / "nan.cfg"
        path.write_text("kind = %s\nd = 2\ntrials = 3\nsphere_level = 2\n"
                        "line_n = 64\ntolerance = 10\n" % kind)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("check failed: %s: " % kind)
        assert "nan" in err
        assert "nan" in (tmp_path / ("%s.csv" % kind)).read_text()

    # the kinds whose knots are the line grid's nodes in [-1, 1]
    KNOT_KINDS = {
        "peano-reconstruct": "kind = peano-reconstruct\nd = 1\nk = 1\n"
                             "sphere_level = 1\nline_n = 512\npoints = 20\n",
        "variation-bound": "kind = variation-bound\nd = 1\nk = 1\n"
                           "sphere_level = 1\nline_n = 512\n",
        "rate-sweep": "kind = rate-sweep\nd = 1\nk = 1\nsphere_level = 1\n"
                      "line_n = 512\nwidths = 4, 8, 16\neval_count = 64\n",
    }

    @pytest.mark.parametrize("kind", sorted(KNOT_KINDS))
    @pytest.mark.parametrize("line_l", [3, 5])
    def test_knots_missing_the_ends_exit_2(self, tmp_path, capsys, kind,
                                           line_l):
        # -1 is no node of LineGrid(3 or 5, 512): the knots would start
        # above -1 and the quadrature network would carry an O(h) bias
        path = tmp_path / "ends.cfg"
        path.write_text(self.KNOT_KINDS[kind] + "line_l = %d\n" % line_l)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: line_l = %d puts no node of the line grid" % line_l)
        assert err.endswith("take line_l a power of two >= 2 with line_n >= "
                            "2 * line_l\n")

    @pytest.mark.parametrize("kind", sorted(KNOT_KINDS))
    @pytest.mark.parametrize("line_l", [4, 8])
    def test_knots_at_the_ends_run(self, tmp_path, kind, line_l):
        path = tmp_path / "ends.cfg"
        path.write_text(self.KNOT_KINDS[kind] + "line_l = %d\n" % line_l)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("text", [
        "kind = inversion-check\nd = 1\nline_l = 3\n",
        "kind = radon-check\nd = 2\nline_l = 5\n",
        "kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
        "constructor = quadrature\nline_l = 3\n",
    ])
    def test_other_kinds_take_any_line_l(self, text):
        # these kinds read no knots, or (quadrature) lay out their own grid
        parse_config(text)

    @pytest.mark.parametrize("d,widths,shared", [(2, "1, 2, 3", "1, 2, 3"),
                                                 (1, "4, 8, 16", "4, 8")])
    def test_quadrature_widths_sharing_a_layout_exit_2(self, tmp_path, capsys,
                                                       d, widths, shared):
        # such widths would build one network and write equal rows
        path = tmp_path / "shared.cfg"
        path.write_text("kind = rate-sweep\nd = %d\nwidths = %s\n"
                        "constructor = quadrature\n" % (d, widths))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: widths %s share one quadrature layout" % shared)
        assert not (tmp_path / "rate-sweep.csv").exists()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pinned_quadrature_widths_have_distinct_layouts(self, d):
        parse_config("kind = rate-sweep\nd = %d\nconstructor = quadrature\n"
                     "widths = 16, 32, 64, 128, 256, 512, 1024\n" % d)

    def test_sampled_widths_may_share_a_layout(self):
        # each sampled width draws its own network from one table
        parse_config("kind = rate-sweep\nd = 2\nwidths = 1, 2, 3\n")

    def test_cusp_with_center_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cusp.cfg"
        path.write_text("kind = inversion-check\nd = 2\ntarget = cusp\n"
                        "center = 0.3, 0\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: the cusp target is centred at the origin")
        assert not (tmp_path / "inversion-check.csv").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 4

    def test_seminorm_without_decay_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        # the Fourier data of exp(-|x|) / 2 decays like 1/xi^2, so the
        # s = 1 seminorm integrand never falls below 1e-14 of its peak
        slow = TargetFunction(
            d=1, evaluate=lambda x: np.exp(-np.abs(x[..., 0])) / 2.0,
            fourier=lambda xi: 1.0 / (1.0 + np.sum(xi ** 2, axis=-1)),
            support_radius=40.0)
        monkeypatch.setattr(cli, "_make_target", lambda config: slow)
        path = tmp_path / "slow.cfg"
        path.write_text("kind = variation-bound\nd = 1\nk = 0\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "check failed: variation-bound: seminorm integrand has not " \
            "decayed" in capsys.readouterr().err

    def test_seminorm_underflow_exit_3(self, tmp_path, capsys):
        # |f_hat|^2 underflows at amplitude 1e-170, so the seminorm is 0
        # and there is no ratio; the check comes before any table is built
        path = tmp_path / "tiny.cfg"
        path.write_text("kind = variation-bound\nd = 2\nk = 1\n"
                        "sphere_level = 4\nline_n = 1024\n"
                        "amplitude = 1e-170\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            "check failed: variation-bound: the order-2.5 seminorm is 0, "
            "so there is no ratio\n")
        assert not (tmp_path / "variation-bound.csv").exists()

    @pytest.mark.parametrize("variation", [0.0, float("inf"), float("nan")])
    def test_stage_0_ratio_without_drift_exit_3(self, tmp_path, capsys,
                                                monkeypatch, variation):
        # a stage-0 ratio of 0, inf or NaN has no relative drift
        monkeypatch.setattr(
            cli, "peano_tables",
            lambda *args: SimpleNamespace(variation=variation))
        path = tmp_path / "ratio.cfg"
        path.write_text("kind = variation-bound\nd = 1\nk = 1\n"
                        "sphere_level = 1\nline_n = 512\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "check failed: variation-bound: the stage-0 ratio is %g"
            % variation)
        body = (tmp_path / "variation-bound.csv").read_text()
        assert "# ratio = " in body and "ratio_drift" not in body

    def test_zero_errors_exit_3_with_report(self, tmp_path, capsys):
        # exp(-|x - c|^2 / 2) underflows to 0 on the unit ball, so f and
        # every f_eps are 0 there and the errors have no logarithm
        path = tmp_path / "far.cfg"
        path.write_text("kind = mollify-sweep\nd = 2\ns = 1\ncenter = 40, 40"
                        "\nepsilons = 0.5, 0.25, 0.125\neval_count = 64\n")
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "check failed: mollify-sweep: the error at epsilon = " \
            "1.250000000000e-01 is 0" in capsys.readouterr().err
        lines = (tmp_path / "mollify-sweep.csv").read_text().splitlines()
        assert lines[4:7] == ["%.12e,0.000000000000e+00" % eps
                              for eps in (0.125, 0.25, 0.5)]

    @pytest.mark.parametrize("schedule", ["none", "epsilon"])
    def test_zero_target_rate_sweep_exit_3(self, tmp_path, capsys,
                                           monkeypatch, schedule):
        # a zero target that passes validation (amplitude 0 is rejected)
        zero = make_gaussian(GaussianSpec(d=1, amplitude=0.0))
        monkeypatch.setattr(cli, "_make_target", lambda config: zero)
        path = tmp_path / "zero.cfg"
        path.write_text("kind = rate-sweep\nd = 1\nwidths = 4, 16, 32\n"
                        "constructor = quadrature\nschedule = %s\n"
                        "eval_count = 64\n" % schedule)
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert "check failed: rate-sweep: the error at n = 4 is 0" \
            in capsys.readouterr().err
        assert (tmp_path / "rate-sweep.csv").exists()

    def test_eval_is_not_a_command(self):
        # no subcommand reads a network: argparse rejects the choice
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "x", "--points", "y"])
        assert exc.value.code == 2
