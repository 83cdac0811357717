"""Command-line behaviour: payloads, exit codes, determinism."""

import contextlib
import io
import json
import os
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    embedded_dataset,
    fit_path_loss,
    load_survey_csv,
    model_from_json,
    model_to_json,
    published_fit,
    save_stats_csv,
    simulate_survey,
)
from rssifit import calibration, cli
from rssifit.cli import main
from rssifit.errors import DataError
from rssifit.models import ConstantSigma, ShadowedPathLossModel, SigmaPolynomial
from rssifit.simulate import SimulationSpec


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def test_fit_embedded_gateroad_reports_exponent(capsys):
    payload = run_json(capsys, "fit", "gateroad-conveyor")
    assert payload["format_version"] == 1
    assert payload["source"] == {"kind": "embedded", "name": "gateroad-conveyor"}
    assert payload["eta"] == pytest.approx(
        published_fit("gateroad-conveyor").eta, abs=0.05
    )
    assert payload["intercept_mode"] == "free"
    assert len(payload["residuals"]) == 20


def test_fit_compare_flag_adds_published_row(capsys):
    rc, out, _ = run(capsys, "fit", "gateroad-conveyor", "--compare-paper")
    assert rc == 0
    assert "published eta = 1.568" in out


def test_fit_longwall_always_notes_discrepancy(capsys):
    rc, out, _ = run(capsys, "fit", "longwall-face")
    assert rc == 0
    assert "NOTE:" in out
    assert "2.14" in out
    payload = run_json(capsys, "fit", "longwall-face")
    assert payload["published"]["eta"] == 2.14
    assert payload["published"]["note"]
    assert payload["eta"] == pytest.approx(2.3111, abs=1e-3)


@pytest.mark.parametrize(
    "opener, no_color, styled",
    [(os.openpty, None, True), (os.openpty, "1", False), (os.pipe, None, False)],
    ids=["tty", "NO_COLOR", "pipe"],
)
def test_warnings_are_yellow_only_on_a_terminal_without_no_color(
    monkeypatch, opener, no_color, styled
):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    read_end, write_end = opener()
    try:
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            text = cli._styled("warning: w")
    finally:
        os.close(read_end)
    assert text == ("\x1b[33mwarning: w\x1b[0m" if styled else "warning: w")


def test_fit_anchored_mode_flag(capsys):
    payload = run_json(
        capsys, "fit", "longwall-face", "--intercept-mode", "anchored"
    )
    assert payload["intercept_mode"] == "anchored"
    assert payload["rss_d0_dbm"] == -51.65
    assert payload["eta"] == pytest.approx(2.6502, abs=1e-3)


def test_fit_from_stats_file_matches_embedded(capsys, tmp_path):
    exported = tmp_path / "gateroad.csv"
    rc, _, _ = run(
        capsys, "datasets", "export", "gateroad-conveyor", "--out", str(exported)
    )
    assert rc == 0
    from_file = run_json(capsys, "fit", str(exported))
    from_name = run_json(capsys, "fit", "gateroad-conveyor")
    assert from_file["eta"] == from_name["eta"]
    assert from_file["rss_d0_dbm"] == from_name["rss_d0_dbm"]
    assert from_file["source"]["kind"] == "file"


def test_fit_missing_file_exits_1_naming_path(capsys):
    rc, out, err = run(capsys, "fit", "missing.csv")
    assert rc == 1
    assert out == ""  # no partial payload
    assert "missing.csv" in err


def test_fit_compare_flag_rejected_for_file_sources(capsys, tmp_path):
    path = tmp_path / "stats.csv"
    path.write_bytes(save_stats_csv(embedded_dataset("longwall-face").stats))
    rc, out, err = run(capsys, "fit", str(path), "--compare-paper")
    assert rc == 1
    assert "--compare-paper" in err


def test_fit_emit_curve_and_save_model(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    model_path = tmp_path / "model.json"
    rc, _, _ = run(
        capsys,
        "fit",
        "longwall-face",
        "--emit-curve",
        str(curve),
        "--save-model",
        str(model_path),
    )
    assert rc == 0
    lines = curve.read_text().splitlines()
    assert lines[0] == "distance_m,fitted,observed"
    assert len(lines) == 21
    model = model_from_json(model_path.read_bytes())
    report = fit_path_loss(embedded_dataset("longwall-face").stats)
    assert model.eta == report.eta
    assert model.sigma is None


def test_sigma_fit_reports_published_quality(capsys):
    payload = run_json(capsys, "sigma-fit", "longwall-face")
    pub = published_fit("longwall-face")
    assert payload["r2"] == pytest.approx(pub.r2, abs=0.05)
    assert payload["rmse_db"] == pytest.approx(pub.rmse, abs=0.05)
    assert payload["stationarity_max"] <= 1e-6
    assert payload["d_min_m"] == 1.0
    assert payload["d_max_m"] == 20.0


def test_sigma_fit_saved_model_carries_trend_and_sigma(capsys, tmp_path):
    model_path = tmp_path / "lw.json"
    rc, _, _ = run(
        capsys, "sigma-fit", "longwall-face", "--save-model", str(model_path)
    )
    assert rc == 0
    model = model_from_json(model_path.read_bytes())
    assert isinstance(model.sigma, SigmaPolynomial)
    assert model.eta == pytest.approx(2.3111, abs=1e-3)


def test_sigma_fit_insufficient_rows_exits_1(capsys, tmp_path):
    path = tmp_path / "short.csv"
    rows = ["distance_m,mean_dbm,sd_db,prr_pct,n"]
    rows += [f"{d},-60,2,,20" for d in (1, 2, 3, 4)]
    path.write_text("\n".join(rows) + "\n")
    rc, out, err = run(capsys, "sigma-fit", str(path))
    assert rc == 1
    assert "6" in err  # names the minimum row count


def test_predict_decade_case(capsys, tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_bytes(
        model_to_json(ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0))
    )
    payload = run_json(capsys, "predict", "--model", str(model_path), "--d", "10")
    assert payload["mean_dbm"] == pytest.approx(-60.0)
    assert payload["sigma_db"] is None


def test_localize_inverse_case_with_interval(capsys, tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_bytes(
        model_to_json(
            ShadowedPathLossModel(
                d0=1.0,
                rss_d0=-40.0,
                eta=2.0,
                sigma=SigmaPolynomial(
                    a=0, b=0, c=0, e=0, f=2.0, d_min=1.0, d_max=100.0
                ),
            )
        )
    )
    payload = run_json(
        capsys, "localize", "--model", str(model_path), "--rss", "-60",
        "--level", "0.95",
    )
    assert payload["d_hat_m"] == pytest.approx(10.0, rel=1e-9)
    assert payload["d_lo_m"] == pytest.approx(6.368, abs=2e-3)
    assert payload["d_hi_m"] == pytest.approx(15.703, abs=2e-3)
    assert payload["warning"] is None


def test_localize_negative_sigma_exits_2(capsys, tmp_path):
    model_path = tmp_path / "bad.json"
    model_path.write_bytes(
        model_to_json(
            ShadowedPathLossModel(
                d0=1.0,
                rss_d0=-40.0,
                eta=2.0,
                sigma=SigmaPolynomial(
                    a=0, b=0, c=0, e=0, f=-1.0, d_min=1.0, d_max=100.0
                ),
            )
        )
    )
    rc, out, err = run(capsys, "localize", "--model", str(model_path), "--rss", "-60")
    assert rc == 2
    assert out == ""
    assert "sigma" in err


@pytest.mark.parametrize(
    "sigma, word, value",
    [
        # 0.1 d^2 - 2 d + 5 is negative for 2.93 < d < 17.07
        (SigmaPolynomial(a=0, b=0, c=0.1, e=-2.0, f=5.0, d_min=1.0, d_max=20.0),
         "negative", "-5"),
        # 1e305 d^4 overflows from ~6.5 m on, inside the [1, 20] m domain
        (SigmaPolynomial(a=1e305, b=0, c=0, e=0, f=1.0, d_min=1.0, d_max=20.0),
         "not finite", "inf"),
    ],
)
def test_a_bad_sigma_is_refused_alike_wherever_an_sd_is_used(
    capsys, tmp_path, sigma, word, value
):
    model = tmp_path / "bad.json"
    model.write_bytes(model_to_json(ShadowedPathLossModel(1.0, -50.0, 2.0, sigma)))
    at_10 = (
        f"error: fitted sigma is {word} ({value} dB) at d = 10 m; "
        "the sigma model is invalid there\n"
    )
    for argv in (
        ("predict", "--d", "10"),
        ("localize", "--rss", "-70"),  # d_hat = 10 m
        ("simulate", "--distances", "10", "--samples", "3"),
        ("plan", "--z", "1.96", "--sensitivity", "-100"),
    ):
        rc, out, err = run(capsys, argv[0], "--model", str(model), *argv[1:])
        assert rc == 2, err
        _one_error_line(out, err, f"error: fitted sigma is {word} (")
        if argv[0] == "plan":  # which names the first bad point it scans
            assert err.endswith(" m; the sigma model is invalid there\n")
        else:
            assert err == at_10
    rc, out, err = run(capsys, "plan", "--model", str(model), "--sensitivity", "-100")
    assert rc == 0 and err == ""  # z = 0 uses no sigma


def test_localize_and_plan_refuse_a_rising_trend_alike(capsys, tmp_path):
    path = tmp_path / "rising.json"
    path.write_bytes(model_to_json(ShadowedPathLossModel(1.0, -40.0, -1.0)))
    lines = set()
    for argv in (("localize", "--rss", "-60"), ("plan", "--sensitivity", "-92")):
        rc, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
        assert rc == 1 and out == ""
        lines.add(err)
    assert lines == {"error: eta must be finite and > 0, got -1.0\n"}


def test_localize_reading_outside_invertible_range_exits_1(capsys, tmp_path):
    for sigma in (None, ConstantSigma(2.0)):
        model_path = tmp_path / "m.json"
        model_path.write_bytes(
            model_to_json(
                ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma)
            )
        )
        for rss in ("-1e6", "1e6"):
            rc, out, err = run(
                capsys, "localize", "--model", str(model_path), f"--rss={rss}"
            )
            assert rc == 1
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


def test_plan_longwall_oracle_with_extrapolation_warning(capsys, tmp_path):
    model_path = tmp_path / "lw.json"
    rc, _, _ = run(
        capsys, "sigma-fit", "longwall-face", "--save-model", str(model_path)
    )
    # published-exponent variant of the model for the range oracle
    model = model_from_json(model_path.read_bytes())
    oracle_model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-51.65, eta=2.14, sigma=model.sigma
    )
    model_path.write_bytes(model_to_json(oracle_model))
    payload = run_json(
        capsys, "plan", "--model", str(model_path),
        "--sensitivity", "-92", "--z", "0",
    )
    closed = 10 ** ((-51.65 + 92.0) / 21.4)
    assert payload["max_range_m"] == pytest.approx(closed, abs=0.01)
    tighter = run_json(
        capsys, "plan", "--model", str(model_path),
        "--sensitivity", "-92", "--z", "1.96",
    )
    assert tighter["max_range_m"] < payload["max_range_m"]
    assert tighter["margin_db"] > 0
    assert tighter["warning"] is not None
    assert "beyond the surveyed span" in tighter["warning"]


def test_plan_warns_of_extrapolation_only_when_sigma_enters_the_margin(
    capsys, tmp_path
):
    model = str(tmp_path / "lw.json")
    run(capsys, "sigma-fit", "longwall-face", "--save-model", model)
    bare = run_json(capsys, "plan", "--model", model, "--sensitivity", "-100")
    assert bare["max_range_m"] > 20.0  # beyond the surveyed span
    assert bare["sigma_clamped"] is False and bare["warning"] is None
    rc, out, _ = run(capsys, "plan", "--model", model, "--sensitivity", "-100")
    assert rc == 0 and "warning" not in out
    margin = run_json(
        capsys, "plan", "--model", model, "--sensitivity", "-100", "--z", "1.96"
    )
    assert margin["max_range_m"] > 20.0 and margin["sigma_clamped"] is True
    assert margin["warning"].startswith("range extrapolates beyond the surveyed span")


def test_simulate_writes_survey_and_matches_library(capsys, tmp_path):
    model_path = tmp_path / "m.json"
    model = ShadowedPathLossModel(
        d0=1.0,
        rss_d0=-40.0,
        eta=2.0,
        sigma=SigmaPolynomial(a=0, b=0, c=0, e=0, f=2.0, d_min=1.0, d_max=100.0),
    )
    model_path.write_bytes(model_to_json(model))
    out_path = tmp_path / "survey.csv"
    rc, _, _ = run(
        capsys, "simulate", "--model", str(model_path),
        "--distances", "1:5", "--samples", "4", "--seed", "9",
        "--site", "bench", "--out", str(out_path),
    )
    assert rc == 0
    loaded = load_survey_csv(out_path.read_bytes())
    direct = simulate_survey(
        SimulationSpec(
            model=model_from_json(model_path.read_bytes()),
            distances=(1.0, 2.0, 3.0, 4.0, 5.0),
            samples_per_distance=4,
            seed=9,
            site="bench",
        )
    )
    assert loaded.site == "bench"
    assert loaded.rows == direct.rows


def test_simulate_json_rows_hold_the_library_survey(capsys, tmp_path):
    model = ShadowedPathLossModel(
        d0=1.0, rss_d0=-40.0, eta=2.0,
        sigma=SigmaPolynomial(a=0, b=0, c=0, e=0.1, f=2.0, d_min=1.0, d_max=9.0),
    )
    model_path = tmp_path / "m.json"
    model_path.write_bytes(model_to_json(model))
    payload = run_json(
        capsys, "simulate", "--model", str(model_path),
        "--distances", "1,2.5,9", "--samples", "6", "--seed", "4",
    )
    direct = simulate_survey(
        SimulationSpec(model=model, distances=(1.0, 2.5, 9.0),
                       samples_per_distance=6, seed=4)
    )
    rows = [(r["distance_m"], tuple(r["samples_dbm"])) for r in payload["rows"]]
    assert tuple(rows) == direct.rows


def test_simulate_builds_its_json_rows_only_for_json(tmp_path):
    # The rows box every sample; text and csv never read them.
    model = _model_file(tmp_path, ConstantSigma(2.0))
    for fmt in cli.FORMATS:
        args = cli.build_parser().parse_args([
            "simulate", "--model", model, "--distances", "1:3", "--samples", "2",
            "--format", fmt,
        ])
        payload, _, _ = args.func(args)
        assert (payload is None) == (fmt != "json"), fmt


def test_simulate_distance_specs(capsys, tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_bytes(
        model_to_json(ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0))
    )
    payload = run_json(
        capsys, "simulate", "--model", str(model_path),
        "--distances", "2:4:0.5", "--samples", "1",
    )
    assert [r["distance_m"] for r in payload["rows"]] == [2.0, 2.5, 3.0, 3.5, 4.0]
    listed = run_json(
        capsys, "simulate", "--model", str(model_path),
        "--distances", "1,2.5,7", "--samples", "1",
    )
    assert [r["distance_m"] for r in listed["rows"]] == [1.0, 2.5, 7.0]
    rc, _, err = run(
        capsys, "simulate", "--model", str(model_path),
        "--distances", "5:1", "--samples", "1",
    )
    assert rc == 1 and "--distances" in err


def test_datasets_list_names_all_records(capsys):
    payload = run_json(capsys, "datasets", "list")
    names = [d["name"] for d in payload["datasets"]]
    assert names == ["longwall-face", "gateroad-conveyor", "mine-car-pathway"]
    by_name = {d["name"]: d for d in payload["datasets"]}
    assert by_name["mine-car-pathway"]["n_rows"] == 0
    assert by_name["mine-car-pathway"]["range_test_m"] == [75.0, 85.0]
    assert by_name["longwall-face"]["range_test_m"] == [40.0, 45.0]


def test_datasets_export_reproduces_canonical_bytes(capsys, tmp_path):
    rc, out, _ = run(capsys, "datasets", "export", "longwall-face")
    assert rc == 0
    canonical = save_stats_csv(embedded_dataset("longwall-face").stats)
    assert out.encode() == canonical
    path = tmp_path / "export.csv"
    rc, _, _ = run(capsys, "datasets", "export", "longwall-face", "--out", str(path))
    assert rc == 0 and path.read_bytes() == canonical


def test_datasets_export_unknown_name_lists_choices(capsys):
    rc, out, err = run(capsys, "datasets", "export", "no-such-site")
    assert rc == 1
    assert "longwall-face" in err


def test_json_output_is_byte_deterministic(capsys):
    rc1, out1, _ = run(capsys, "sigma-fit", "gateroad-conveyor", "--format", "json")
    rc2, out2, _ = run(capsys, "sigma-fit", "gateroad-conveyor", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_usage_errors_exit_1(capsys):
    rc, _, err = run(capsys, "fit", "longwall-face", "--no-such-flag")
    assert rc == 1
    assert "no-such-flag" in err
    rc, _, _ = run(capsys, "fit", "longwall-face", "--format", "yaml")
    assert rc == 1


def test_help_exits_0(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "fit" in out and "localize" in out


def test_csv_format_emits_residual_table(capsys):
    rc, out, _ = run(capsys, "fit", "gateroad-conveyor", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "distance_m,observed_dbm,fitted_dbm,residual_db,y_db"
    assert len(lines) == 21


def test_negative_scientific_notation_values_parse_like_attached_ones(
    capsys, tmp_path
):
    model_path = tmp_path / "m.json"
    model_path.write_bytes(
        model_to_json(ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0))
    )
    # a separate -1e6 used to be taken for an option: "expected one argument"
    rc, out, err = run(capsys, "localize", "--model", str(model_path), "--rss", "-1e6")
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "rss -1000000.0 dBm" in lines[0]
    plan = ("plan", "--model", str(model_path), "--format", "json")
    rc, out, err = run(capsys, *plan, "--sensitivity", "-9.5e1")
    assert rc == 0 and err == ""
    assert json.loads(out)["sensitivity_dbm"] == -95.0
    assert run(capsys, *plan, "--sensitivity=-9.5e1") == (rc, out, err)


def test_fit_rejects_undecodable_or_malformed_stats_files(capsys, tmp_path):
    header = b"distance_m,mean_dbm,sd_db,prr_pct,n\n"
    for body, where in (
        (b"1,-50,1\xff,,20\n", "byte 43"),
        (b"1,-50,1\r,,20\n", "line 2"),
        # An n past int64 was refused without its line.
        (b"1,-50,1,,20\n2,-55,1.5,,20\n3,-60,1,,99999999999999999999\n",
         "line 4, column 'n'"),
    ):
        path = tmp_path / "bad.csv"
        path.write_bytes(header + body)
        rc, out, err = run(capsys, "fit", str(path))
        assert rc == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}: ")


def test_localize_text_interval_keeps_the_magnitude_of_extreme_endpoints(
    capsys, tmp_path
):
    model_path = tmp_path / "m.json"
    for sigma, rss, expected in (
        (
            SigmaPolynomial(a=0, b=0, c=0, e=0, f=2.0, d_min=1.0, d_max=100.0),
            "-60",
            "95% interval: [6.368, 15.703] m   sigma = 2.000 dB",
        ),
        (
            ConstantSigma(300.0),
            "-73",
            "95% interval: [1.78e-28, 1.121e+31] m   sigma = 300.000 dB",
        ),
    ):
        model_path.write_bytes(
            model_to_json(
                ShadowedPathLossModel(
                    d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma
                )
            )
        )
        rc, out, err = run(
            capsys, "localize", "--model", str(model_path), "--rss", rss
        )
        assert rc == 0, err
        assert out.splitlines()[1] == expected


def _model_file(tmp_path, sigma=None):
    path = tmp_path / "m.json"
    path.write_bytes(
        model_to_json(ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma))
    )
    return str(path)


def _one_error_line(out, err, start="error: "):
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), err


@pytest.mark.parametrize(
    "exc, line",
    [(MemoryError(), "error: out of memory"), (MemoryError("big"), "error: big")],
)
def test_memory_errors_cross_as_one_worded_error_line(capsys, monkeypatch, exc, line):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_datasets", exhausted)
    rc, out, err = run(capsys, "datasets", "list")
    assert rc == 1
    assert out == "" and err == line + "\n"


# What each command may load besides the modules every command loads (the
# parser's and the renderer's): python -m rssifit.cli pays for no other.
EVERY_COMMAND = {
    "rssifit", "rssifit.cli", "rssifit.dataio", "rssifit.errors",
    "rssifit.models", "rssifit.surveys",
}
FITS = {"rssifit.calibration", "rssifit.datasets", "rssifit.numerics"}
COMMAND_MODULES = {
    "predict --model M --d 10": set(),
    # statistics (with fractions and decimal) only for a level's
    # quantile: plan takes z itself.
    "localize --model M --rss -73": {"rssifit.localization", "statistics"},
    "plan --model M --z 1.96": {"rssifit.localization"},
    "simulate --model M --distances 1:3 --samples 2": {"rssifit.simulate"},
    "datasets export longwall-face": {"rssifit.datasets"},
    "datasets list": {"rssifit.datasets"},
    "fit longwall-face": FITS,
    "sigma-fit longwall-face": FITS,
}

LOADED_AFTER_MAIN = """
import contextlib, io, json, sys
from rssifit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
loaded = [m for m in sys.modules if m.startswith("rssifit") or m == "statistics"]
print(json.dumps([rc, sorted(loaded)]))
"""


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(fresh_python, tmp_path, command):
    model = _model_file(tmp_path, ConstantSigma(2.0))
    argv = [model if a == "M" else a for a in command.split()]
    done = fresh_python(["-c", LOADED_AFTER_MAIN, *argv])
    assert done.returncode == 0, done.stderr
    expected = EVERY_COMMAND | COMMAND_MODULES[command]
    assert json.loads(done.stdout) == [0, sorted(expected)]


@pytest.mark.parametrize(
    "distances, reason",
    [
        ("nan:5", "start must be finite, got nan"),
        ("1:inf", "stop must be finite, got inf"),
        ("1:5:nan", "step must be finite, got nan"),
        # (1e300 - 1) / 1e-300 overflows: infinitely many points, refused in
        # check_survey_size's words before anything is built.
        ("1:1e300:1e-300", "5 samples at each of inf points are more than an "
         "array holds"),
        ("1:2:3:4", "expected start:stop or start:stop:step"),
        ("1:5:0", "step must be > 0"),
    ],
)
def test_simulate_refuses_a_bad_range_by_name(
    capsys, tmp_path, distances, reason
):
    model = _model_file(tmp_path)
    rc, out, err = run(
        capsys, "simulate", "--model", model, "--distances", distances,
        "--samples", "5",
    )
    assert rc == 1
    assert out == ""
    assert err == f"error: bad --distances '{distances}': {reason}\n"


def test_simulate_too_large_for_memory_is_one_error_line(capsys, tmp_path):
    model = _model_file(tmp_path, ConstantSigma(2.0))
    # 10**15 samples need petabytes, which no 64-bit address space holds, so
    # the allocation fails at once; 10**4 rows of them overflow numpy's size.
    for distances in ("1:3", "1:1e4"):
        rc, out, err = run(
            capsys, "simulate", "--model", model, "--distances", distances,
            "--samples", str(10**15),
        )
        assert rc == 1
        _one_error_line(out, err)


def test_simulate_rejects_a_range_of_more_points_than_an_array_holds(
    capsys, tmp_path
):
    model = _model_file(tmp_path)
    start = time.perf_counter()
    rc, out, err = run(  # 10**21 points: refused before anything is built
        capsys, "simulate", "--model", model, "--distances", "1:1e12:1e-9",
        "--samples", "1",
    )
    assert time.perf_counter() - start < 5.0
    assert rc == 1
    _one_error_line(out, err, "error: bad --distances '1:1e12:1e-9': ")
    assert err.endswith(" points are more than an array holds\n")


def test_simulate_bounds_a_range_by_points_times_samples_before_building_it(
    capsys, tmp_path
):
    model = _model_file(tmp_path)
    start = time.perf_counter()
    rc, out, err = run(  # 10**12 points: fewer than an array holds, but not x 2e6
        capsys, "simulate", "--model", model, "--distances", "1:1e12",
        "--samples", "2000000",
    )
    assert time.perf_counter() - start < 5.0
    assert rc == 1
    _one_error_line(
        out, err,
        "error: bad --distances '1:1e12': 2000000 samples at each of "
        "1000000000000 points are more than an array holds",
    )


def test_number_arguments_refuse_what_only_python_reads(capsys, tmp_path):
    model = _model_file(tmp_path)
    for argv, start in (
        (("predict", "--d", "1_0"), "error: rssifit predict: argument --d: "),
        (
            ("simulate", "--distances", "1:20", "--samples", "1_0"),
            "error: rssifit simulate: argument --samples: ",
        ),
        (("simulate", "--distances", "1_0:20", "--samples", "1"),
         "error: bad --distances '1_0:20': "),
    ):
        rc, out, err = run(capsys, argv[0], "--model", model, *argv[1:])
        assert rc == 1
        _one_error_line(out, err, start)
    rc, out, err = run(capsys, "predict", "--model", model, "--d", "\u0661")
    assert rc == 1
    _one_error_line(out, err, "error: rssifit predict: argument --d: invalid float")


def test_fit_rejects_a_d0_whose_distance_ratio_overflows(capsys, longwall):
    for d0 in (1e-308, 4.9e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="d0"):
                fit_path_loss(longwall, d0=d0)
        rc, out, err = run(capsys, "fit", "longwall-face", "--d0", repr(d0))
        assert rc == 1
        _one_error_line(out, err)
        assert "d0" in err


def test_localize_rejects_a_bad_level_for_every_model(capsys, tmp_path):
    for sigma in (None, ConstantSigma(2.0)):
        model = _model_file(tmp_path, sigma)
        rc, out, err = run(
            capsys, "localize", "--model", model, "--rss", "-70", "--level", "7"
        )
        assert rc == 1
        _one_error_line(out, err, "error: level must be in (0, 1), got 7.0")


def test_localize_refuses_a_level_whose_quantile_rounds_to_one(capsys, tmp_path):
    model = _model_file(tmp_path, ConstantSigma(2.0))
    level = "0.9999999999999999"  # (1 + level) / 2 rounds to 1
    argv = ["localize", "--model", model, "--rss", "-70", "--level", level]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    _one_error_line(out, err, f"error: level {level} is too close to 1")


def test_a_distance_whose_ratio_to_d0_underflows_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "far.json"
    far = ShadowedPathLossModel(1e10, -40.0, 2.0, sigma=ConstantSigma(2.0))
    path.write_bytes(model_to_json(far))
    for argv in (["predict", "--d"], ["simulate", "--samples", "2", "--distances"]):
        rc, out, err = run(capsys, *argv, "1e-320", "--model", str(path))
        assert rc == 1
        _one_error_line(out, err, "error: d 1e-320 m is too small beside d0 1")


def test_a_mean_that_overflows_is_one_error_line(capsys, tmp_path):
    # eta = 1e308 once printed "mean_dbm": -Infinity beyond d0. At d0 itself
    # eta * x is eta * 0, so the mean is rss_d0 and predict succeeds.
    path = tmp_path / "huge.json"
    path.write_bytes(model_to_json(ShadowedPathLossModel(1.0, -40.0, 1e308)))
    for d in ("0.1", "10"):
        argv = ["predict", "--model", str(path), "--d", d, "--format", "json"]
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and "NaN" not in out and "Infinity" not in out
        _one_error_line(out, err, f"error: mean RSS at d {float(d)!r} m overflows")
    rc, out, err = run(capsys, "predict", "--model", str(path), "--d", "1",
                       "--format", "json")
    assert rc == 0 and err == "" and json.loads(out)["mean_dbm"] == -40.0


_DISTANCE_SPECS = (
    "1:5", "2:4:0.5", "1:1e4", "1:1e12:1e-9", "1:inf", "5:1", "nan:5", "0:3", "1:5:0",
    "1,2.5,7", "1,-1", "1,1e308", "1,4.9e-324", "1,nan", "x", "",
)
_REALS = (
    "0", "-0", "1", "0.95", "-73", "1e-308", "-1e-308", "1e308", "-1e308",
    "-1e6", "4.9e-324", "nan", "inf", "-inf", "x", "",
)
_INTS = ("0", "-1", "2", str(10**15), str(2**64), "1e3", "x")
_SOURCES = (
    "longwall-face", "gateroad-conveyor", "mine-car-pathway", "{tmp}/stats.csv",
    "{tmp}/nowhere.csv",
)


@st.composite
def _cli_argv(draw):
    real = st.sampled_from(_REALS)
    command = draw(
        st.sampled_from(
            ("fit", "sigma-fit", "predict", "localize", "plan", "simulate", "datasets")
        )
    )
    model = "{tmp}/" + draw(st.sampled_from(("sigma", "trend", "cut", "missing")))
    if command in ("fit", "sigma-fit"):
        argv = [command, draw(st.sampled_from(_SOURCES)), "--d0", draw(real)]
        argv += ["--intercept-mode", draw(st.sampled_from(("free", "anchored")))]
        if draw(st.booleans()):
            argv.append("--compare-paper")
        if command == "sigma-fit":
            argv += ["--target", draw(st.sampled_from(("sample_sd", "residual_y")))]
    elif command == "predict":
        argv = [command, "--model", model + ".json", "--d", draw(real)]
    elif command == "localize":
        argv = [command, "--model", model + ".json", "--rss", draw(real)]
        argv += ["--level", draw(real)]
    elif command == "plan":
        argv = [command, "--model", model + ".json", "--sensitivity", draw(real)]
        argv += ["--z", draw(real)]
    elif command == "simulate":
        argv = [command, "--model", model + ".json"]
        argv += ["--distances", draw(st.sampled_from(_DISTANCE_SPECS))]
        argv += ["--samples", draw(st.sampled_from(_INTS))]
        argv += ["--seed", draw(st.sampled_from(_INTS))]
    elif draw(st.booleans()):
        names = ("longwall-face", "mine-car-pathway", "nowhere")
        return ["datasets", "export", draw(st.sampled_from(names))]
    else:
        argv = ["datasets", "list"]
    return argv + ["--format", draw(st.sampled_from(("text", "json", "csv")))]


@pytest.fixture(scope="module")
def boundary_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    stats = embedded_dataset("longwall-face").stats
    trend = fit_path_loss(stats).model
    sigma = ShadowedPathLossModel(
        d0=trend.d0, rss_d0=trend.rss_d0, eta=trend.eta,
        sigma=SigmaPolynomial(
            *published_fit("longwall-face").sigma_coefficients, d_min=1.0, d_max=20.0
        ),
    )
    (root / "trend.json").write_bytes(model_to_json(trend))
    (root / "sigma.json").write_bytes(model_to_json(sigma))
    (root / "cut.json").write_bytes(model_to_json(sigma)[:40])
    (root / "stats.csv").write_bytes(save_stats_csv(stats))
    return root


@settings(max_examples=300, deadline=None)
@given(argv=_cli_argv())
@example(argv=["simulate", "--model", "{tmp}/sigma.json", "--distances", "1:inf",
               "--samples", "2", "--format", "text"])
@example(argv=["simulate", "--model", "{tmp}/trend.json", "--distances", "1:5",
               "--samples", str(10**15), "--format", "json"])
@example(argv=["fit", "longwall-face", "--d0", "4.9e-324", "--format", "csv"])
def test_every_cli_run_exits_0_1_or_2_with_one_error_line(boundary_files, argv):
    argv = [a.replace("{tmp}", str(boundary_files)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        _one_error_line(out.getvalue(), err.getvalue())
        assert err.getvalue().removeprefix("error: ").strip(), err.getvalue()


def test_sigma_fit_evaluates_its_target_once(capsys, monkeypatch):
    calls = []
    target = calibration.sigma_target

    def counted(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    monkeypatch.setattr(calibration, "sigma_target", counted)
    payload = run_json(capsys, "sigma-fit", "longwall-face", "--target", "residual_y")
    assert len(calls) == 1
    assert payload["stationarity_max"] <= 1e-6


def test_both_distance_spellings_word_the_size_limit_alike(capsys, tmp_path):
    model = _model_file(tmp_path)
    lines = []
    for distances in ("1,2,3", "1:3"):
        rc, out, err = run(
            capsys, "simulate", "--model", model, "--distances", distances,
            "--samples", str(10**18),
        )
        assert rc == 1
        _one_error_line(out, err, f"error: bad --distances '{distances}': ")
        lines.append(err.split("': ", 1)[1])
    assert lines == [
        "1000000000000000000 samples at each of 3 points are more than an array "
        "holds\n"
    ] * 2


def _stats_file(path, distances, means, sds=None):
    sds = [1.0 + i / 10 for i in range(len(means))] if sds is None else sds
    rows = "".join(
        f"{d!r},{m!r},{s!r},,10\n" for d, m, s in zip(distances, means, sds)
    )
    path.write_text("distance_m,mean_dbm,sd_db,prr_pct,n\n" + rows)
    return str(path)


@pytest.mark.parametrize(
    "case", ["means", "sxy", "anchored", "residual", "sds", "far", "near", "loud"]
)
def test_overflow_crosses_as_one_error_line_without_warnings(capsys, tmp_path, case):
    ramp = [-50.0 - i for i in range(8)]
    # x * y overflows in the trend's normal equations, and so does y - rss_d0
    huge = _stats_file(
        tmp_path / "huge.csv", range(1, 9), [(-1) ** i * 1.7e308 for i in range(8)]
    )
    argv, line = {
        # x = 10 log10(d) is tame; the squared residuals of the means are not
        "means": (
            ("fit", _stats_file(
                tmp_path / "means.csv", range(1, 9),
                [(-1) ** i * 1e200 for i in range(8)],
            )),
            "observed and fitted are too large: a sum of squares overflows",
        ),
        "sxy": (
            ("fit", huge),
            "x and y are too large: a normal-equation sum overflows",
        ),
        "anchored": (
            ("fit", huge, "--intercept-mode", "anchored"),
            "x and y are too large: a normal-equation sum overflows",
        ),
        # the residual_y target fits the trend first
        "residual": (
            ("sigma-fit", huge, "--target", "residual_y"),
            "x and y are too large: a normal-equation sum overflows",
        ),
        # the trend is tame; sd * d^4 overflows in the moment right-hand side
        "sds": (
            ("sigma-fit", _stats_file(
                tmp_path / "sds.csv", range(1, 9), ramp, [1.7e308] * 8
            )),
            "d and y are too large: a normal-equation sum overflows",
        ),
        # d^8 reaches 1e312, so the raw moment sums overflow
        "far": (
            ("sigma-fit", _stats_file(
                tmp_path / "far.csv", np.geomspace(1e37, 1e39, 8).tolist(), ramp
            )),
            "distances 1e+37 to 1e+39 are out of range for a polynomial fit in "
            "float64: the moment sums of d^8 overflow",
        ),
        # the refit in d/d_max is fine, but d_max^k underflows to 0 for k >= 2
        "near": (
            ("sigma-fit", _stats_file(
                tmp_path / "near.csv", np.linspace(1e-300, 6e-300, 8).tolist(), ramp
            )),
            "distances 1e-300 to 6e-300 are out of range for a polynomial fit in "
            "float64: undoing the d/d_max scaling overflows",
        ),
        # sigma * z overflows; RssiSurvey refuses the infinite sample
        "loud": (
            (
                "simulate", "--model", _model_file(tmp_path, ConstantSigma(1e308)),
                "--distances", "1:3", "--samples", "4",
            ),
            "non-finite RSSI sample at distance 1.0 m",
        ),
    }[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert err == f"error: {line}\n" and out == ""
    assert [str(w.message) for w in caught] == []
