"""Command-line front end for calibration, localization, and planning.

Subcommands mirror the library pipeline: ``fit`` and ``sigma-fit`` calibrate
from an embedded dataset or a stats CSV, ``predict``/``localize``/``plan``
consume a saved model document, ``simulate`` generates synthetic surveys, and
``datasets`` lists or exports the embedded tables.

Exit codes: 0 success, 1 input or validation problem, 2 numerical failure.
Structured output (``--format json`` or ``csv``) is written only after a
command has fully succeeded, so a failing run never emits a partial document,
and identical invocations produce byte-identical structured output.

Text output may style warnings when standard output is a terminal; set
NO_COLOR (or redirect) to suppress. json/csv output is never styled.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path

from .calibration import (
    FitReport,
    SigmaFitReport,
    fit_path_loss,
    fit_sigma_polynomial,
    residual_y,
    stationarity_sums,
)
from .datasets import PUBLISHED_FITS, dataset_names, embedded_dataset, published_fit
from .dataio import (
    load_stats_csv,
    model_from_json,
    model_to_json,
    save_stats_csv,
    save_survey_csv,
)
from .errors import DataError, NumericalError, RssifitError
from .localization import confidence_interval, estimate_distance, max_range
from .models import (
    LinkConstants,
    ShadowedPathLossModel,
    SigmaPolynomial,
    predict_mean_rss,
    sigma_at,
)
from .numerics import polyval
from .simulate import SimulationSpec, simulate_survey
from .surveys import SurveyStats

OUTPUT_FORMAT_VERSION = 1

FORMATS = ("text", "json", "csv")


# Negative numbers in plain or scientific notation, and -inf/-nan. argparse's
# own pattern knows only -73 and -9.5, so it took -1e6 for an option and left
# the flag before it without its value.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the exit-1 error path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        raise DataError(f"{self.prog}: {message}")


def _styled(text: str) -> str:
    """Wrap a warning line in yellow when stdout is an unstyled terminal."""
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[33m{text}\x1b[0m"


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_csv(header: tuple[str, ...], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _resolve_stats(source: str) -> tuple[SurveyStats, dict]:
    """A stats source is an embedded dataset name or a stats CSV path."""
    if source in dataset_names():
        record = embedded_dataset(source)
        if record.stats is None:
            raise DataError(
                f"dataset {source!r} is a range-test record with no "
                "per-distance statistics"
            )
        return record.stats, {"kind": "embedded", "name": source}
    path = Path(source)
    if not path.exists():
        raise DataError(
            f"source {source!r} is neither an embedded dataset name nor an "
            f"existing file (embedded: {', '.join(dataset_names())})"
        )
    stats = load_stats_csv(path.read_bytes(), site=path.stem)
    return stats, {"kind": "file", "path": str(path)}


def _published_for(source_info: dict, compare: bool):
    """Published reference values for embedded sources, if requested/known."""
    if source_info["kind"] != "embedded":
        if compare:
            raise DataError(
                "--compare-paper only applies to embedded datasets; "
                f"source was {source_info['path']!r}"
            )
        return None
    name = source_info["name"]
    if name not in PUBLISHED_FITS:
        return None
    return published_fit(name)


def _write_curve(path: str, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("distance_m", "fitted", "observed"))
    writer.writerows(rows)
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def _load_model(path: str) -> ShadowedPathLossModel:
    p = Path(path)
    if not p.exists():
        raise DataError(f"model file {path!r} does not exist")
    return model_from_json(p.read_bytes())


def _fit_payload(
    report: FitReport, stats: SurveyStats, source_info: dict, published
) -> dict:
    rows = []
    for row, resid, y in zip(stats.rows, report.residuals, report.y_values):
        rows.append(
            {
                "distance_m": row.distance,
                "observed_dbm": row.mean_rss,
                "fitted_dbm": row.mean_rss - resid,
                "residual_db": resid,
                "y_db": y,
            }
        )
    pub = None
    if published is not None:
        pub = {"eta": published.eta, "note": published.note}
    return {
        "format_version": OUTPUT_FORMAT_VERSION,
        "command": "fit",
        "source": source_info,
        "d0_m": report.model.d0,
        "intercept_mode": report.intercept_mode,
        "eta": report.eta,
        "rss_d0_dbm": report.rss_d0,
        "r2": report.fit.r2,
        "rmse_db": report.fit.rmse,
        "rmse_unadjusted_db": report.fit.rmse_unadjusted,
        "n_rows": report.fit.n_obs,
        "residuals": rows,
        "published": pub,
    }


def _print_fit_text(payload: dict, compare: bool) -> None:
    src = payload["source"]
    where = src.get("name") or src.get("path")
    print(f"path-loss fit: {where}")
    print(
        f"  eta = {payload['eta']:.4f}   rss(d0={payload['d0_m']:g} m) = "
        f"{payload['rss_d0_dbm']:.2f} dBm   ({payload['intercept_mode']} intercept)"
    )
    print(
        f"  r2 = {payload['r2']:.4f}   rmse = {payload['rmse_db']:.4f} dB   "
        f"rows = {payload['n_rows']}"
    )
    pub = payload["published"]
    if compare and pub is not None:
        print(f"  published eta = {pub['eta']:.4g}   computed = {payload['eta']:.4f}")
    if pub is not None and pub.get("note"):
        print(_styled(f"  NOTE: {pub['note']}"))
    print("  distance_m  observed_dbm  fitted_dbm  residual_db")
    for row in payload["residuals"]:
        print(
            f"  {row['distance_m']:>10g}  {row['observed_dbm']:>12.4f}  "
            f"{row['fitted_dbm']:>10.4f}  {row['residual_db']:>11.4f}"
        )


def _cmd_fit(args) -> int:
    stats, source_info = _resolve_stats(args.source)
    published = _published_for(source_info, args.compare_paper)
    report = fit_path_loss(stats, d0=args.d0, intercept_mode=args.intercept_mode)
    payload = _fit_payload(report, stats, source_info, published)
    if args.save_model:
        Path(args.save_model).write_bytes(model_to_json(report.model))
    if args.emit_curve:
        _write_curve(
            args.emit_curve,
            (
                (r["distance_m"], r["fitted_dbm"], r["observed_dbm"])
                for r in payload["residuals"]
            ),
        )
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ("distance_m", "observed_dbm", "fitted_dbm", "residual_db", "y_db"),
            (
                (
                    r["distance_m"],
                    r["observed_dbm"],
                    r["fitted_dbm"],
                    r["residual_db"],
                    r["y_db"],
                )
                for r in payload["residuals"]
            ),
        )
    else:
        _print_fit_text(payload, args.compare_paper)
    return 0


def _sigma_payload(
    report: SigmaFitReport,
    trend: FitReport,
    stats: SurveyStats,
    source_info: dict,
    published,
) -> dict:
    sigma = report.sigma
    d = stats.distances
    if report.target == "sample_sd":
        observed = stats.sds
    else:
        observed = residual_y(stats, trend.model)
    fitted = polyval(sigma.coefficients, d)
    rows = [
        {"distance_m": di, "observed_db": oi, "fitted_db": float(fi)}
        for di, oi, fi in zip(d, observed, fitted)
    ]
    stat_sums = stationarity_sums(
        stats, sigma, target=report.target, trend=trend.model
    )
    pub = None
    if published is not None:
        pub = {
            "coefficients": dict(
                zip(("a", "b", "c", "e", "f"), published.sigma_coefficients)
            ),
            "r2": published.r2,
            "rmse_db": published.rmse,
        }
    return {
        "format_version": OUTPUT_FORMAT_VERSION,
        "command": "sigma-fit",
        "source": source_info,
        "target": report.target,
        "coefficients": {
            "a": sigma.a,
            "b": sigma.b,
            "c": sigma.c,
            "e": sigma.e,
            "f": sigma.f,
        },
        "d_min_m": sigma.d_min,
        "d_max_m": sigma.d_max,
        "r2": report.fit.r2,
        "rmse_db": report.fit.rmse,
        "stationarity_max": max(abs(s) for s in stat_sums),
        "trend": {
            "eta": trend.eta,
            "rss_d0_dbm": trend.rss_d0,
            "intercept_mode": trend.intercept_mode,
        },
        "rows": rows,
        "published": pub,
    }


def _print_sigma_text(payload: dict, compare: bool) -> None:
    src = payload["source"]
    where = src.get("name") or src.get("path")
    coeffs = payload["coefficients"]
    print(f"sigma fit: {where} (target {payload['target']})")
    print(
        "  coefficients (d^4..d^0): "
        + "  ".join(f"{coeffs[k]:.6g}" for k in ("a", "b", "c", "e", "f"))
    )
    print(
        f"  valid on [{payload['d_min_m']:g}, {payload['d_max_m']:g}] m   "
        f"r2 = {payload['r2']:.4f}   rmse = {payload['rmse_db']:.4f} dB"
    )
    print(f"  stationarity residual max = {payload['stationarity_max']:.3e}")
    pub = payload["published"]
    if compare and pub is not None:
        pc = pub["coefficients"]
        print(
            "  published:               "
            + "  ".join(f"{pc[k]:.6g}" for k in ("a", "b", "c", "e", "f"))
        )
        print(
            f"  published r2 = {pub['r2']:.4g}   "
            f"published rmse = {pub['rmse_db']:.4g} dB"
        )
    print("  distance_m  observed_db  fitted_db")
    for row in payload["rows"]:
        print(
            f"  {row['distance_m']:>10g}  {row['observed_db']:>11.4f}  "
            f"{row['fitted_db']:>9.4f}"
        )


def _cmd_sigma_fit(args) -> int:
    stats, source_info = _resolve_stats(args.source)
    published = _published_for(source_info, args.compare_paper)
    trend = fit_path_loss(stats, d0=args.d0, intercept_mode=args.intercept_mode)
    report = fit_sigma_polynomial(stats, target=args.target, trend=trend.model)
    payload = _sigma_payload(report, trend, stats, source_info, published)
    if args.save_model:
        model = ShadowedPathLossModel(
            d0=trend.model.d0,
            rss_d0=trend.model.rss_d0,
            eta=trend.model.eta,
            sigma=report.sigma,
        )
        Path(args.save_model).write_bytes(model_to_json(model))
    if args.emit_curve:
        _write_curve(
            args.emit_curve,
            (
                (r["distance_m"], r["fitted_db"], r["observed_db"])
                for r in payload["rows"]
            ),
        )
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ("distance_m", "observed_db", "fitted_db"),
            (
                (r["distance_m"], r["observed_db"], r["fitted_db"])
                for r in payload["rows"]
            ),
        )
    else:
        _print_sigma_text(payload, args.compare_paper)
    return 0


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    mean = predict_mean_rss(model, args.d)
    sigma_db = None
    clamped = None
    if model.sigma is not None:
        value = sigma_at(model.sigma, args.d)
        sigma_db, clamped = value.value, value.clamped
    payload = {
        "format_version": OUTPUT_FORMAT_VERSION,
        "command": "predict",
        "distance_m": args.d,
        "mean_dbm": mean,
        "sigma_db": sigma_db,
        "sigma_clamped": clamped,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ("distance_m", "mean_dbm", "sigma_db", "sigma_clamped"),
            [
                (
                    args.d,
                    mean,
                    "" if sigma_db is None else sigma_db,
                    "" if clamped is None else clamped,
                )
            ],
        )
    else:
        line = f"mean RSS at {args.d:g} m: {mean:.2f} dBm"
        if sigma_db is not None:
            line += f"   sigma = {sigma_db:.3f} dB"
            if clamped:
                line += " (clamped to fitted domain)"
        print(line)
    return 0


def _metres(value: float) -> str:
    """Fixed point to the millimetre where that keeps the magnitude."""
    return f"{value:.3f}" if 1e-3 <= value < 1e9 else f"{value:.4g}"


def _cmd_localize(args) -> int:
    model = _load_model(args.model)
    if model.sigma is None:
        d_hat = estimate_distance(model, args.rss)
        payload = {
            "format_version": OUTPUT_FORMAT_VERSION,
            "command": "localize",
            "rss_dbm": args.rss,
            "level": args.level,
            "d_hat_m": d_hat,
            "d_lo_m": None,
            "d_hi_m": None,
            "sigma_db": None,
            "sigma_clamped": None,
            "warning": "model has no fading model; interval omitted",
        }
    else:
        est = confidence_interval(model, args.rss, level=args.level)
        warning = None
        if est.clamped:
            warning = (
                "sigma clamped to its fitted domain; interval is extrapolated"
            )
        payload = {
            "format_version": OUTPUT_FORMAT_VERSION,
            "command": "localize",
            "rss_dbm": args.rss,
            "level": est.level,
            "d_hat_m": est.d_hat,
            "d_lo_m": est.d_lo,
            "d_hi_m": est.d_hi,
            "sigma_db": est.sigma_used,
            "sigma_clamped": est.clamped,
            "warning": warning,
        }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ("rss_dbm", "level", "d_hat_m", "d_lo_m", "d_hi_m", "sigma_db"),
            [
                (
                    payload["rss_dbm"],
                    payload["level"],
                    payload["d_hat_m"],
                    "" if payload["d_lo_m"] is None else payload["d_lo_m"],
                    "" if payload["d_hi_m"] is None else payload["d_hi_m"],
                    "" if payload["sigma_db"] is None else payload["sigma_db"],
                )
            ],
        )
    else:
        d_hat = _metres(payload["d_hat_m"])
        print(f"d_hat = {d_hat} m  (rss {args.rss:g} dBm)")
        if payload["d_lo_m"] is not None:
            d_lo, d_hi = _metres(payload["d_lo_m"]), _metres(payload["d_hi_m"])
            print(
                f"{payload['level']:.0%} interval: [{d_lo}, {d_hi}] m   "
                f"sigma = {payload['sigma_db']:.3f} dB"
            )
        if payload["warning"]:
            print(_styled(f"warning: {payload['warning']}"))
    return 0


def _cmd_plan(args) -> int:
    model = _load_model(args.model)
    constants = LinkConstants(receiver_sensitivity=args.sensitivity)
    plan = max_range(model, constants, outage_z=args.z)
    warning = None
    if model.sigma is None:
        warning = "model has no fading model; no fade margin applied"
    elif isinstance(model.sigma, SigmaPolynomial) and (
        plan.max_range > model.sigma.d_max or plan.max_range < model.sigma.d_min
    ):
        warning = (
            f"range extrapolates beyond the surveyed span "
            f"[{model.sigma.d_min:g}, {model.sigma.d_max:g}] m; "
            "sigma is held at its boundary value there"
        )
    payload = {
        "format_version": OUTPUT_FORMAT_VERSION,
        "command": "plan",
        "sensitivity_dbm": plan.sensitivity,
        "outage_z": plan.outage_z,
        "max_range_m": plan.max_range,
        "margin_db": plan.margin_db,
        "sigma_clamped": plan.clamped,
        "warning": warning,
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ("sensitivity_dbm", "outage_z", "max_range_m", "margin_db"),
            [(plan.sensitivity, plan.outage_z, plan.max_range, plan.margin_db)],
        )
    else:
        print(
            f"max range = {plan.max_range:.2f} m   "
            f"(sensitivity {plan.sensitivity:g} dBm, z = {plan.outage_z:g}, "
            f"margin {plan.margin_db:.2f} dB)"
        )
        if warning:
            print(_styled(f"warning: {warning}"))
    return 0


def _parse_distances(text: str) -> tuple[float, ...]:
    """Parse '1:20', '0.5:20:0.5', or '1,2,5.5' into distances."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1.0
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("expected start:stop or start:stop:step")
            if step <= 0:
                raise ValueError("step must be > 0")
            if stop < start:
                raise ValueError("stop must be >= start")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            return tuple(start + i * step for i in range(count))
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise DataError(f"bad --distances {text!r}: {exc}") from None


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    spec = SimulationSpec(
        model=model,
        distances=_parse_distances(args.distances),
        samples_per_distance=args.samples,
        seed=args.seed,
        site=args.site,
    )
    survey = simulate_survey(spec)
    if args.out:
        Path(args.out).write_bytes(save_survey_csv(survey))
    if args.format == "json":
        payload = {
            "format_version": OUTPUT_FORMAT_VERSION,
            "command": "simulate",
            "site": survey.site,
            "seed": spec.seed,
            "samples_per_distance": spec.samples_per_distance,
            "rows": [
                {"distance_m": d, "samples_dbm": list(samples)}
                for d, samples in survey.rows
            ],
        }
        _emit_json(payload)
    elif args.format == "csv":
        sys.stdout.write(save_survey_csv(survey).decode("utf-8"))
    else:
        total = survey.n_samples
        print(
            f"simulated {total} samples at {len(survey.rows)} distances "
            f"(site {survey.site!r}, seed {spec.seed})"
        )
        if args.out:
            print(f"wrote survey CSV to {args.out}")
    return 0


def _cmd_datasets(args) -> int:
    if args.action == "list":
        records = [embedded_dataset(name) for name in dataset_names()]
        if args.format == "json":
            payload = {
                "format_version": OUTPUT_FORMAT_VERSION,
                "command": "datasets-list",
                "datasets": [
                    {
                        "name": r.name,
                        "n_rows": 0 if r.stats is None else len(r.stats.rows),
                        "range_test_m": (
                            None if r.range_test is None else list(r.range_test)
                        ),
                        "provenance": r.provenance,
                    }
                    for r in records
                ],
            }
            _emit_json(payload)
        elif args.format == "csv":
            _emit_csv(
                ("name", "n_rows", "range_min_m", "range_max_m"),
                (
                    (
                        r.name,
                        0 if r.stats is None else len(r.stats.rows),
                        "" if r.range_test is None else r.range_test[0],
                        "" if r.range_test is None else r.range_test[1],
                    )
                    for r in records
                ),
            )
        else:
            for r in records:
                rows = 0 if r.stats is None else len(r.stats.rows)
                span = (
                    "no field range test"
                    if r.range_test is None
                    else f"field range test {r.range_test[0]:g}-{r.range_test[1]:g} m"
                )
                print(f"{r.name}: {rows} stat rows, {span}")
                print(f"  {r.provenance}")
        return 0
    # export: always the canonical stats CSV, byte-stable.
    record = embedded_dataset(args.name)
    if record.stats is None:
        raise DataError(
            f"dataset {record.name!r} has no per-distance statistics to export"
        )
    data = save_stats_csv(record.stats)
    if args.out:
        Path(args.out).write_bytes(data)
        print(f"wrote {record.name} to {args.out}")
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def _add_source_flags(parser: _Parser) -> None:
    parser.add_argument(
        "source",
        help="embedded dataset name or path to a stats CSV "
        "(header distance_m,mean_dbm,sd_db,prr_pct,n)",
    )
    parser.add_argument(
        "--d0", type=float, default=1.0, help="reference distance in m (default 1)"
    )
    parser.add_argument(
        "--intercept-mode",
        choices=("free", "anchored"),
        default="free",
        help="estimate rss(d0) freely, or anchor it to the measured mean "
        "at the row nearest d0",
    )
    parser.add_argument(
        "--compare-paper",
        action="store_true",
        help="print the published values beside the computed ones "
        "(embedded datasets only)",
    )
    parser.add_argument(
        "--emit-curve",
        metavar="FILE",
        help="write a distance_m,fitted,observed CSV for external plotting",
    )
    parser.add_argument(
        "--save-model", metavar="FILE", help="write the fitted model JSON here"
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rssifit",
        description="RSSI path-loss calibration, localization, and "
        "radio-range planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the path-loss trend to a survey")
    _add_source_flags(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_sigma = sub.add_parser(
        "sigma-fit", help="fit the quartic fading-SD polynomial"
    )
    _add_source_flags(p_sigma)
    p_sigma.add_argument(
        "--target",
        choices=("sample_sd", "residual_y"),
        default="sample_sd",
        help="fit sigma to the SD column or to scaled trend residuals",
    )
    p_sigma.set_defaults(func=_cmd_sigma_fit)

    p_predict = sub.add_parser("predict", help="mean RSS at a distance")
    p_predict.add_argument("--model", required=True, help="model JSON path")
    p_predict.add_argument("--d", type=float, required=True, help="distance in m")
    p_predict.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p_predict.set_defaults(func=_cmd_predict)

    p_loc = sub.add_parser(
        "localize", help="distance estimate from an RSSI reading"
    )
    p_loc.add_argument("--model", required=True, help="model JSON path")
    p_loc.add_argument(
        "--rss", type=float, required=True, help="measured RSSI in dBm"
    )
    p_loc.add_argument(
        "--level", type=float, default=0.95, help="confidence level (default 0.95)"
    )
    p_loc.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p_loc.set_defaults(func=_cmd_localize)

    p_plan = sub.add_parser(
        "plan", help="maximum usable range above receiver sensitivity"
    )
    p_plan.add_argument("--model", required=True, help="model JSON path")
    p_plan.add_argument(
        "--sensitivity",
        type=float,
        default=LinkConstants().receiver_sensitivity,
        help="receiver sensitivity in dBm (default %(default)s)",
    )
    p_plan.add_argument(
        "--z",
        type=float,
        default=0.0,
        help="outage margin in sigma units (default 0)",
    )
    p_plan.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_sim = sub.add_parser(
        "simulate", help="generate a synthetic survey from a model"
    )
    p_sim.add_argument("--model", required=True, help="model JSON path")
    p_sim.add_argument(
        "--distances",
        required=True,
        help="'start:stop', 'start:stop:step', or comma list, in m",
    )
    p_sim.add_argument(
        "--samples", type=int, required=True, help="samples per distance"
    )
    p_sim.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    p_sim.add_argument(
        "--site", default="simulated", help="site label for the survey"
    )
    p_sim.add_argument("--out", metavar="FILE", help="write survey CSV here")
    p_sim.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_data = sub.add_parser("datasets", help="embedded dataset registry")
    data_sub = p_data.add_subparsers(dest="action", required=True)
    p_list = data_sub.add_parser("list", help="list embedded datasets")
    p_list.add_argument(
        "--format", choices=FORMATS, default="text", help="output format"
    )
    p_list.set_defaults(func=_cmd_datasets)
    p_export = data_sub.add_parser(
        "export", help="write a dataset's canonical stats CSV"
    )
    p_export.add_argument("name", help="dataset name")
    p_export.add_argument("--out", metavar="FILE", help="write here (else stdout)")
    p_export.set_defaults(func=_cmd_datasets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse --help path; usage errors are rerouted to DataError.
        return 0 if exc.code in (0, None) else int(exc.code)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RssifitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
