import os
import subprocess
import sys
from dataclasses import replace

import pytest

import cellfree
from cellfree import harness, linklevel
from cellfree.cli import build_parser, main
from cellfree.harness import ScenarioConfig, config_to_text

TINY = config_to_text(
    ScenarioConfig(deployment="ppp", density=10.0, half_width_km=1.0, shadow="none",
                   csi="ls", code="alamouti", power="uniform", epsilon=0.1,
                   outer=30, inner=20, seed=4)
)


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig3", "fig4", "fig5", "fig6", "fig7_positions", "fig8", "fig9"):
        assert name in out


def test_run_twice_is_byte_identical(tmp_path, tiny_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--scenario", tiny_config, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", "--scenario", tiny_config, "--out", str(out2), "--threads", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_thread_count_does_not_change_output(tmp_path, tiny_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--scenario", tiny_config, "--out", str(out1), "--threads", "1"])
    main(["run", "--scenario", tiny_config, "--out", str(out2), "--threads", "3"])
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_flag_changes_samples(tmp_path, tiny_config):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", "--scenario", tiny_config, "--out", str(out1), "--seed", "11"])
    main(["run", "--scenario", tiny_config, "--out", str(out2), "--seed", "12"])
    assert out1.read_bytes() != out2.read_bytes()


def test_seed_environment_variable_is_ignored(tmp_path, tiny_config, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("CELLFREE_SEED", "7")
    main(["run", "--scenario", tiny_config, "--out", str(out1), "--seed", "99"])
    monkeypatch.delenv("CELLFREE_SEED")
    main(["run", "--scenario", tiny_config, "--out", str(out2), "--seed", "99"])
    assert out1.read_bytes() == out2.read_bytes()


def test_run_writes_summary_and_cdf(tmp_path, tiny_config):
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.csv"
    cdf = tmp_path / "c.dat"
    assert main(["run", "--scenario", tiny_config, "--out", str(out),
                 "--summary", str(summary), "--cdf", str(cdf)]) == 0
    assert summary.read_text().startswith("scenario,epsilon,gamma_eps,rate_bpcu")
    blocks = cdf.read_text().strip().splitlines()
    assert blocks[0].startswith("#")
    v, p = blocks[1].split()
    assert float(p) > 0


def test_run_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "fig4.csv"
    code = main(["run", "--scenario", "fig4", "--outer", "15", "--inner", "5",
                 "--out", str(out), "--summary", str(tmp_path / "fig4sum.csv")])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "scenario,seed,trial,snr_linear"
    assert len(body) == 1 + 3 * 15 * 5
    names = {l.split(",")[0] for l in body[1:]}
    assert names == {"fig4/none", "fig4/uncorrelated", "fig4/correlated"}


def test_run_preset_twice_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--scenario", "fig3", "--seed", "1", "--outer", "8", "--inner", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_scenario_exits_2(tmp_path, capsys):
    assert main(["run", "--scenario", "fig99", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "fig3, fig4, fig5, fig6, fig7_positions, fig8, fig9" in err


def test_preset_name_takes_precedence_over_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3").write_text("bogus_key=1\n")
    assert main(["run", "--scenario", "fig3", "--outer", "2", "--inner", "2",
                 "--out", "x.csv"]) == 0


def test_config_file_run_draws_no_preset_geometry(tmp_path, tiny_config, monkeypatch):
    calls = {"place_ppp": 0, "worst_position": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    assert main(["run", "--scenario", tiny_config, "--out", str(tmp_path / "r.csv"),
                 "--threads", "1"]) == 0
    # one layout per trial (outer=30, uniform power) and nothing else
    assert calls == {"place_ppp": 30, "worst_position": 0}


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # correlated shadowing factors its covariance with LAPACK in every trial
    cfg = ScenarioConfig(deployment="ppp", density=20.0, half_width_km=1.5,
                         shadow="correlated", csi="ls", code="alamouti",
                         power="optimized", opt_grid_km=0.1, epsilon=0.1,
                         outer=40, inner=30, seed=12)
    path = tmp_path / "scenario.cfg"
    path.write_text(config_to_text(cfg))
    src = os.path.dirname(os.path.dirname(cellfree.__file__))
    base = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        out, summary = tmp_path / f"r{threads}.csv", tmp_path / f"s{threads}.csv"
        subprocess.run([sys.executable, "-m", "cellfree.cli", "run", "--scenario", str(path),
                        "--out", str(out), "--summary", str(summary)],
                       env=dict(base, OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        outputs.append((out.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


def test_blas_thread_pin_does_not_leak_into_the_environment():
    # the pin holds while BLAS loads; subprocesses of the program inherit the
    # environment it was started with
    src = os.path.dirname(os.path.dirname(cellfree.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env["OMP_NUM_THREADS"] = "3"
    probe = ("import os, cellfree.cli; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["None", "3"]


def test_grouping_run_thread_count_does_not_change_output(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out, summary = tmp_path / f"r{threads}.csv", tmp_path / f"s{threads}.csv"
        assert main(["run", "--scenario", "fig7_positions", "--outer", "60",
                     "--threads", threads, "--out", str(out), "--summary", str(summary)]) == 0
        outputs.append((out.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key=1\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert "malformed" in capsys.readouterr().err


def test_removed_system_setting_is_an_unknown_key(tmp_path, capsys):
    # the coherence block, the power normalization and the shadowing
    # parameters are fixed constants, not config keys
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY + "tau_c=300\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", str(bad)]) == 2
    assert "unknown key 'tau_c'" in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "unknown key 'tau_c'" in capsys.readouterr().err
    assert not out.exists()


BAD_CONFIG_NAMES = ["a,b.cfg", 'a"b.cfg', "a\nb.cfg", "a\rb.cfg", "a#b.cfg", "#a.cfg"]


@pytest.mark.parametrize("command,name",
                         [("run", n) for n in BAD_CONFIG_NAMES]
                         + [("validate", n) for n in BAD_CONFIG_NAMES],
                         ids=BAD_CONFIG_NAMES + [f"validate-{n}" for n in BAD_CONFIG_NAMES])
def test_config_name_that_would_break_csv_rows_exits_2(tmp_path, capsys, command, name):
    # the file name labels every CSV row, so a comma would shift its fields
    # and a leading '#' would turn the row into a comment that readers skip
    path = tmp_path / name
    path.write_text(TINY)
    out = tmp_path / "x.csv"
    args = {"run": ["run", "--scenario", str(path), "--out", str(out)],
            "validate": ["validate", "--config", str(path)]}[command]
    assert main(args) == 2
    assert repr(str(path)) in capsys.readouterr().err
    assert not out.exists()


def test_run_with_no_ap_in_any_trial_reports_zero_plans(tmp_path):
    # at density 0 every PPP layout is empty: no trial has a power plan, and
    # every trial is scored as zero SNR
    path = tmp_path / "empty.cfg"
    path.write_text(config_to_text(
        ScenarioConfig(deployment="ppp", density=0.0, half_width_km=1.0, shadow="none",
                       csi="ls", code="alamouti", power="optimized", epsilon=0.1,
                       outer=3, inner=20, seed=4)))
    out = tmp_path / "r.csv"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert "# power_plan[empty/empty]: per-trial plans over 0 of 3 trials" in lines
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 1 + 3 * 20
    assert all(float(l.split(",")[-1]) == 0.0 for l in body[1:])


def test_unwritable_output_exits_2(tmp_path, tiny_config, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["run", "--scenario", tiny_config, "--out", str(target)]) == 2
    assert "cannot write output" in capsys.readouterr().err


def test_invalid_scenario_semantics_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("csi=perfect\npower=optimized\n")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["terminals=nan,0.0", "density=nan", "density=inf",
                                  "half_width_km=-inf", "epsilon=nan", "opt_grid_km=nan"])
def test_non_finite_config_rejected_before_any_trial(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    key = line.split("=", 1)[0]
    kept = [l for l in TINY.splitlines() if not l.startswith(key + "=")]
    bad.write_text("\n".join(kept + [line]) + "\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", str(bad)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["opt_grid_km=0", "opt_grid_km=-0.05"])
def test_non_positive_grid_step_rejected_before_any_trial(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    kept = [l for l in TINY.splitlines()
            if not l.startswith(("opt_grid_km=", "power="))]
    bad.write_text("\n".join(kept + ["power=optimized", line]) + "\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", str(bad)]) == 1
    assert "opt_grid_km must be > 0" in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "opt_grid_km must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_validate_ok(tiny_config, capsys):
    assert main(["validate", "--config", tiny_config]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_semantic_failure_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("csi=ls\ncode=rate34\ntau_p=2\n")
    assert main(["validate", "--config", bad.as_posix()]) == 1
    assert "invalid" in capsys.readouterr().err


def test_validate_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tau_p = what\n")
    assert main(["validate", "--config", bad.as_posix()]) == 2


def test_validate_missing_file_exits_2(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_oracle_corollary1(capsys):
    assert main(["oracle", "--check", "corollary1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "KS statistic" in out and "p=" in out and "PASS" in out


def test_oracle_hyperexp(capsys):
    assert main(["oracle", "--check", "hyperexp", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("ok, n_pass, code", [(True, 20, 0), (False, 17, 1)])
def test_oracle_theorem1_reports_each_code_and_the_verdict(monkeypatch, capsys, ok, n_pass, code):
    seeds = []

    def canned(seed):
        seeds.append(seed)
        return {"ok": ok, "codes": {"alamouti": {"n_pass": 20, "n_configs": 20},
                                    "rate34": {"n_pass": n_pass, "n_configs": 20}}}

    monkeypatch.setattr(linklevel, "check_theorem1", canned)
    assert main(["oracle", "--check", "theorem1", "--seed", "5"]) == code
    assert seeds == [5]
    assert capsys.readouterr().out.splitlines() == [
        "theorem1[alamouti]: 20/20 configurations within 3 SE",
        f"theorem1[rate34]: {n_pass}/20 configurations within 3 SE",
        "PASS" if ok else "FAIL",
    ]


def test_oracle_negative_seed_is_usage_error(capsys):
    assert main(["oracle", "--check", "hyperexp", "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["run", "--out", "x.csv"])  # missing --scenario
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["oracle", "--check", "bogus"])
    assert e.value.code == 2


def _run_args(*extra):
    return build_parser().parse_args(["run", "--scenario", "fig3", "--out", "x.csv", *extra])


def test_threads_flag_is_accepted_with_a_fixed_default():
    assert _run_args().threads == 1
    assert _run_args("--threads", "8").threads == 8


@pytest.mark.parametrize("override", [("--outer", "0"), ("--inner", "0"), ("--seed", "-1")],
                         ids=["outer=0", "inner=0", "seed=-1"])
def test_bad_override_rejected_before_any_trial(tmp_path, capsys, override):
    args = ["run", "--scenario", "fig4", "--out", str(tmp_path / "x.csv"), *override]
    assert main(args) == 2
    assert "invalid scenario configuration" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("lines", [
    "vary=grouping\nlayout_seed=3\ndensity=0.5\nhalf_width_km=0.5\ncode=alamouti\n"
    "csi=perfect\nshadow=none\ninner=1\n",
    "deployment=hexagonal\ndensity=0.01\nhalf_width_km=0.5\ninner=2\n",
    "csi=ls\npower=optimized\nlayout_seed=3\ndensity=0.5\nhalf_width_km=0.5\ninner=2\n",
], ids=["grouping-no-antennas", "empty-hex-lattice", "optimized-power-no-aps"])
def test_unrunnable_fixed_layout_rejected_before_any_trial(tmp_path, capsys, lines):
    bad = tmp_path / "bad.cfg"
    bad.write_text(lines + "outer=3\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", str(bad)]) == 1
    assert "invalid:" in capsys.readouterr().err
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "invalid scenario configuration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rx", [2, 4])
def test_grouping_run_with_receive_antennas_rejected(tmp_path, capsys, rx):
    # a grouping run scores one receive antenna; more must not be ignored
    bad = tmp_path / "bad.cfg"
    bad.write_text("vary=grouping\nlayout_seed=3\ndensity=20.0\nhalf_width_km=0.5\n"
                   f"code=alamouti\ncsi=perfect\nshadow=none\nrx_antennas={rx}\n"
                   "outer=3\ninner=1\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "rx_antennas=1" in capsys.readouterr().err
    assert not out.exists()


def test_grouping_run_with_inner_samples_rejected(tmp_path, capsys):
    # a grouping run scores one rate per trial and terminal; --inner must not be ignored
    out = tmp_path / "x.csv"
    args = ["run", "--scenario", "fig7_positions", "--outer", "3", "--out", str(out)]
    assert main(args + ["--inner", "5"]) == 2
    assert "inner=1" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--inner", "1"]) == 0


def test_grouping_run_needs_a_fixed_layout_not_a_layout_seed(tmp_path, capsys):
    # a hexagonal lattice is fixed already; only a PPP layout needs layout_seed
    lines = ("vary=grouping\ndensity=20.0\nhalf_width_km=0.5\ncode=alamouti\n"
             "csi=perfect\nshadow=none\nouter=3\ninner=1\n")
    hexagonal, ppp = tmp_path / "hex.cfg", tmp_path / "ppp.cfg"
    hexagonal.write_text(lines + "deployment=hexagonal\n")
    ppp.write_text(lines + "deployment=ppp\n")
    assert main(["validate", "--config", str(hexagonal)]) == 0
    assert main(["run", "--scenario", str(hexagonal), "--out", str(tmp_path / "hex.csv")]) == 0
    cfg = harness.config_from_text(hexagonal.read_text())
    assert (harness.run_scenario(cfg).values.tobytes()
            == harness.run_scenario(replace(cfg, layout_seed=2)).values.tobytes())
    capsys.readouterr()
    assert main(["run", "--scenario", str(ppp), "--out", str(tmp_path / "ppp.csv")]) == 2
    assert "needs a fixed layout" in capsys.readouterr().err
    assert not (tmp_path / "ppp.csv").exists()


# half_width_km=1e9 puts density * area above numpy's Poisson limit; at 1e200 it is inf
@pytest.mark.parametrize("line", ["seed=-1", "layout_seed=-1", "half_width_km=0", "terminals=",
                                  "half_width_km=1e9", "half_width_km=1e200"])
def test_out_of_range_config_rejected_before_any_trial(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    key = line.split("=", 1)[0]
    kept = [l for l in TINY.splitlines() if not l.startswith(key + "=")]
    bad.write_text("\n".join(kept + [line]) + "\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", str(bad)]) == 1
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "invalid scenario configuration" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_optimize_spatial_or_sparse():
    # scipy.linalg (the correlated Cholesky) is the only scipy module on this path
    code = "import sys, cellfree.cli; print(*(m for m in sys.modules if m.startswith('scipy.')))"
    src = os.path.dirname(os.path.dirname(cellfree.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = {m.split(".")[1] for m in out.split()}
    assert "linalg" in loaded
    assert not loaded & {"optimize", "spatial", "sparse"}
