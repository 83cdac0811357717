"""Command-line behaviour: payloads, exit codes, determinism."""

import json

import pytest

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
from rssifit.cli import main
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
    assert payload["warning"] is not None
    assert "beyond the surveyed span" in payload["warning"]
    tighter = run_json(
        capsys, "plan", "--model", str(model_path),
        "--sensitivity", "-92", "--z", "1.96",
    )
    assert tighter["max_range_m"] < payload["max_range_m"]
    assert tighter["margin_db"] > 0


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


def test_datasets_export_reproduces_canonical_bytes(capsys):
    rc, out, _ = run(capsys, "datasets", "export", "longwall-face")
    assert rc == 0
    canonical = save_stats_csv(embedded_dataset("longwall-face").stats)
    assert out.encode() == canonical


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
