"""Command-line front end for calibration, localization, and planning.

Subcommands mirror the library pipeline: ``fit`` and ``sigma-fit`` calibrate
from an embedded dataset or a stats CSV, ``predict``/``localize``/``plan``
consume a saved model document, ``simulate`` generates synthetic surveys, and
``datasets`` lists or exports the embedded tables.

Exit codes: 0 success, 1 input or validation problem, 2 numerical failure.
Structured output (``--format json`` or ``csv``) is written only after a
command has fully succeeded, so a failing run never emits a partial document,
and identical invocations produce byte-identical structured output (tested
by tests/test_cli.py and tests/test_cli_golden.py; the golden records are
also run with numpy's AVX-512 targets switched off).

Text output may style warnings when standard output is a terminal; set
NO_COLOR (or redirect) to suppress. json/csv output is never styled.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .dataio import (
    csv_text,
    load_stats_csv,
    model_from_json,
    model_to_json,
    parse_number,
    save_stats_csv,
    save_survey_csv,
)
from .errors import DataError, NumericalError, RssifitError, probability, real
from .models import INTERCEPT_MODES, SIGMA_TARGETS, LinkConstants
from .models import ShadowedPathLossModel, predict_mean_rss, sigma_at
from .surveys import SurveyStats, _cut

# The modules above build the parser and render every command. Each command
# imports the rest of what it runs, so a process loads no more: predict
# nothing else, localize and plan only localization, simulate only simulate.
if TYPE_CHECKING:
    from .calibration import FitReport
    from .datasets import PublishedFit

OUTPUT_FORMAT_VERSION = 1

FORMATS = ("text", "json", "csv")


# Negative numbers in plain or scientific notation, and -inf/-nan. argparse's
# own pattern knows only -73 and -9.5, so it took -1e6 for an option and left
# the flag before it without its value.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """Argparse with the package's number rule and the exit-1 error path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER
        self.register("type", float, parse_number)
        self.register("type", int, lambda text: parse_number(text, int))

    def error(self, message: str) -> None:  # type: ignore[override]
        raise DataError(f"{self.prog}: {message}")


def _styled(text: str) -> str:
    """Wrap a warning line in yellow when stdout is an unstyled terminal."""
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    return f"\x1b[33m{text}\x1b[0m"


def _payload(command: str, **fields) -> dict:
    """A JSON document: the format version and command, then ``fields``."""
    return {"format_version": OUTPUT_FORMAT_VERSION, "command": command, **fields}


def _table(header: tuple[str, ...], records) -> tuple:
    """A CSV table whose columns are the named fields of payload records.

    Rows are made only if the table is written; csv writes None as "".
    """
    return header, ([r[k] for k in header] for r in records)


def _text_table(header: tuple[str, ...], records) -> list[str]:
    """Text lines of a table, each value right-aligned to its column's name."""
    spec = {k: f">{len(k)}{'g' if k == 'distance_m' else '.4f'}" for k in header}
    rows = ([format(r[k], spec[k]) for k in header] for r in records)
    return ["  " + "  ".join(cells) for cells in (header, *rows)]


def _emit(fmt: str, payload: dict | None, table, lines) -> None:
    """Write the rendering ``fmt`` asks for: the only writer of command output.

    ``payload`` is read only for json; a command may leave it None otherwise.
    ``table`` is a (header, rows) pair, the bytes a CSV codec already made,
    or None for a command with no table, which then writes its text lines.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv" and table is not None:
        text = table.decode() if isinstance(table, bytes) else csv_text(*table)
    else:
        text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)


def _calibrate(args) -> tuple[SurveyStats, dict, PublishedFit | None, FitReport]:
    """Fit and sigma-fit's front: the stats source, published values, trend."""
    from .calibration import fit_path_loss
    from .datasets import PUBLISHED_FITS, dataset_names, embedded_dataset

    if args.source in dataset_names():
        record = embedded_dataset(args.source)
        if record.stats is None:
            raise DataError(
                f"dataset {args.source!r} is a range-test record with no "
                "per-distance statistics"
            )
        stats, source = record.stats, {"kind": "embedded", "name": args.source}
        published = PUBLISHED_FITS.get(args.source)
    else:
        path = Path(args.source)
        if not path.exists():
            raise DataError(
                f"source {args.source!r} is neither an embedded dataset name nor "
                f"an existing file (embedded: {', '.join(dataset_names())})"
            )
        stats = load_stats_csv(path.read_bytes(), site=path.stem)
        source, published = {"kind": "file", "path": str(path)}, None
        if args.compare_paper:
            raise DataError(
                "--compare-paper only applies to embedded datasets; "
                f"source was {str(path)!r}"
            )
    trend = fit_path_loss(stats, d0=args.d0, intercept_mode=args.intercept_mode)
    return stats, source, published, trend


def _save(args, model, records: list[dict], fitted: str, observed: str) -> None:
    """--save-model and --emit-curve, the files fit and sigma-fit write."""
    if args.save_model:
        Path(args.save_model).write_bytes(model_to_json(model))
    if args.emit_curve:
        _, rows = _table(("distance_m", fitted, observed), records)
        curve = csv_text(("distance_m", "fitted", "observed"), rows)
        Path(args.emit_curve).write_bytes(curve.encode("utf-8"))


def _load_model(path: str) -> ShadowedPathLossModel:
    p = Path(path)
    if not p.exists():
        raise DataError(f"model file {path!r} does not exist")
    return model_from_json(p.read_bytes())


_FIT_COLUMNS = ("distance_m", "observed_dbm", "fitted_dbm", "residual_db", "y_db")


def _cmd_fit(args):
    stats, source, published, report = _calibrate(args)
    columns = stats.distance_m.tolist(), stats.mean_dbm.tolist()
    rows = [
        dict(zip(_FIT_COLUMNS, (d, m, m - e, e, y)))
        for d, m, e, y in zip(*columns, report.residuals, report.y_values)
    ]
    pub = None if published is None else {"eta": published.eta, "note": published.note}
    gof, model = report.fit, report.model
    payload = _payload(
        "fit", source=source, d0_m=model.d0, intercept_mode=report.intercept_mode,
        eta=report.eta, rss_d0_dbm=report.rss_d0, r2=gof.r2, rmse_db=gof.rmse,
        rmse_unadjusted_db=gof.rmse_unadjusted, n_rows=gof.n_obs,
        residuals=rows, published=pub,
    )
    _save(args, model, rows, "fitted_dbm", "observed_dbm")
    lines = [
        f"path-loss fit: {source.get('name') or source.get('path')}",
        f"  eta = {report.eta:.4f}   rss(d0={model.d0:g} m) = "
        f"{report.rss_d0:.2f} dBm   ({report.intercept_mode} intercept)",
        f"  r2 = {gof.r2:.4f}   rmse = {gof.rmse:.4f} dB   rows = {gof.n_obs}",
    ]
    if args.compare_paper and pub is not None:
        lines.append(
            f"  published eta = {pub['eta']:.4g}   computed = {report.eta:.4f}"
        )
    if pub is not None and pub["note"]:
        lines.append(_styled(f"  NOTE: {pub['note']}"))
    lines += _text_table(_FIT_COLUMNS[:4], rows)
    return payload, _table(_FIT_COLUMNS, rows), lines


_SIGMA_COLUMNS = ("distance_m", "observed_db", "fitted_db")
_COEFFICIENTS = ("a", "b", "c", "e", "f")


def _cmd_sigma_fit(args):
    from .calibration import fit_sigma_polynomial

    stats, source, published, trend = _calibrate(args)
    report = fit_sigma_polynomial(stats, target=args.target, trend=trend.model)
    sigma, gof = report.sigma, report.fit
    rows = [
        dict(zip(_SIGMA_COLUMNS, row))
        for row in zip(report.distances, report.observed, report.fitted)
    ]
    pub = None if published is None else {
        "coefficients": dict(zip(_COEFFICIENTS, published.sigma_coefficients)),
        "r2": published.r2, "rmse_db": published.rmse,
    }
    payload = _payload(
        "sigma-fit", source=source, target=report.target,
        coefficients=dict(zip(_COEFFICIENTS, sigma.coefficients)),
        d_min_m=sigma.d_min, d_max_m=sigma.d_max, r2=gof.r2, rmse_db=gof.rmse,
        stationarity_max=max(map(abs, report.stationarity)),
        trend={"eta": trend.eta, "rss_d0_dbm": trend.rss_d0,
               "intercept_mode": trend.intercept_mode},
        rows=rows, published=pub,
    )
    _save(args, replace(trend.model, sigma=sigma), rows, "fitted_db", "observed_db")
    lines = [
        f"sigma fit: {source.get('name') or source.get('path')} "
        f"(target {report.target})",
        "  coefficients (d^4..d^0): "
        + "  ".join(f"{c:.6g}" for c in sigma.coefficients),
        f"  valid on [{sigma.d_min:g}, {sigma.d_max:g}] m   "
        f"r2 = {gof.r2:.4f}   rmse = {gof.rmse:.4f} dB",
        f"  stationarity residual max = {payload['stationarity_max']:.3e}",
    ]
    if args.compare_paper and published is not None:
        lines += [
            "  published:               "
            + "  ".join(f"{c:.6g}" for c in published.sigma_coefficients),
            f"  published r2 = {published.r2:.4g}   "
            f"published rmse = {published.rmse:.4g} dB",
        ]
    lines += _text_table(_SIGMA_COLUMNS, rows)
    return payload, _table(_SIGMA_COLUMNS, rows), lines


def _cmd_predict(args):
    model = _load_model(args.model)
    mean = predict_mean_rss(model, args.d)
    sigma_db, clamped = (
        (None, None) if model.sigma is None else sigma_at(model.sigma, args.d)
    )
    payload = _payload(
        "predict", distance_m=args.d, mean_dbm=mean, sigma_db=sigma_db,
        sigma_clamped=clamped,
    )
    line = f"mean RSS at {args.d:g} m: {mean:.2f} dBm"
    if sigma_db is not None:
        line += f"   sigma = {sigma_db:.3f} dB"
        if clamped:
            line += " (clamped to fitted domain)"
    header = ("distance_m", "mean_dbm", "sigma_db", "sigma_clamped")
    return payload, _table(header, [payload]), [line]


def _metres(value: float) -> str:
    """Fixed point to the millimetre where that keeps the magnitude."""
    return f"{value:.3f}" if 1e-3 <= value < 1e9 else f"{value:.4g}"


def _cmd_localize(args):
    from .localization import confidence_interval, estimate_distance

    model = _load_model(args.model)
    # Checked first for every model, as confidence_interval checks it.
    probability("level", args.level)
    if model.sigma is None:
        d_hat = estimate_distance(model, args.rss)
        d_lo = d_hi = sigma_db = clamped = None
        warning = "model has no fading model; interval omitted"
    else:
        est = confidence_interval(model, args.rss, level=args.level)
        d_hat, d_lo, d_hi = est.d_hat, est.d_lo, est.d_hi
        sigma_db, clamped = est.sigma_used, est.clamped
        warning = None
        if clamped:
            warning = "sigma clamped to its fitted domain; interval is extrapolated"
    payload = _payload(
        "localize", rss_dbm=args.rss, level=args.level, d_hat_m=d_hat, d_lo_m=d_lo,
        d_hi_m=d_hi, sigma_db=sigma_db, sigma_clamped=clamped, warning=warning,
    )
    lines = [f"d_hat = {_metres(d_hat)} m  (rss {args.rss:g} dBm)"]
    if d_lo is not None:
        lines.append(
            f"{args.level:.0%} interval: [{_metres(d_lo)}, {_metres(d_hi)}] m   "
            f"sigma = {sigma_db:.3f} dB"
        )
    if warning:
        lines.append(_styled(f"warning: {warning}"))
    header = ("rss_dbm", "level", "d_hat_m", "d_lo_m", "d_hi_m", "sigma_db")
    return payload, _table(header, [payload]), lines


def _cmd_plan(args):
    from .localization import max_range

    model = _load_model(args.model)
    constants = LinkConstants(receiver_sensitivity=args.sensitivity)
    plan = max_range(model, constants, outage_z=args.z)
    warning = None
    if model.sigma is None:
        warning = "model has no fading model; no fade margin applied"
    elif plan.clamped:
        warning = (
            f"range extrapolates beyond the surveyed span "
            f"[{model.sigma.d_min:g}, {model.sigma.d_max:g}] m; "
            "sigma is held at its boundary value there"
        )
    payload = _payload(
        "plan", sensitivity_dbm=plan.sensitivity, outage_z=plan.outage_z,
        max_range_m=plan.max_range, margin_db=plan.margin_db,
        sigma_clamped=plan.clamped, warning=warning,
    )
    lines = [
        f"max range = {plan.max_range:.2f} m   "
        f"(sensitivity {plan.sensitivity:g} dBm, z = {plan.outage_z:g}, "
        f"margin {plan.margin_db:.2f} dB)"
    ]
    if warning:
        lines.append(_styled(f"warning: {warning}"))
    header = ("sensitivity_dbm", "outage_z", "max_range_m", "margin_db")
    return payload, _table(header, [payload]), lines


def _parse_distances(text: str, samples: int) -> tuple[float, ...]:
    """Parse '1:20', '0.5:20:0.5', or '1,2,5.5' into distances."""
    from .simulate import check_survey_size

    try:
        if ":" in text:
            parts = [parse_number(p) for p in text.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError("expected start:stop or start:stop:step")
            start, stop, step = parts if len(parts) == 3 else (*parts, 1.0)
            for name, value in zip(("start", "stop", "step"), (start, stop, step)):
                real(name, value)  # nan and the infinities, refused by name
            if step <= 0:
                raise ValueError("step must be > 0")
            if stop < start:
                raise ValueError("stop must be >= start")
            span = (stop - start) / step + 1e-9  # inf if the division overflows
            # int() floors, so the count is > 0; an infinite one is refused
            # as it is, before building a point.
            count = int(span) + 1 if span < math.inf else span
            check_survey_size(count, samples)
            return tuple((start + np.arange(count) * step).tolist())
        distances = tuple(parse_number(p) for p in text.split(","))
        check_survey_size(len(distances), samples)
        return distances
    except (ValueError, OverflowError) as exc:  # DataError is a ValueError
        raise DataError(f"bad --distances {text!r}: {exc}") from None


def _cmd_simulate(args):
    from .simulate import SimulationSpec, simulate_survey

    spec = SimulationSpec(
        model=_load_model(args.model),
        distances=_parse_distances(args.distances, args.samples),
        samples_per_distance=args.samples, seed=args.seed, site=args.site,
    )
    survey = simulate_survey(spec)
    # Encoded once, only when written, and kept only for csv: it grows with
    # the survey.
    data = save_survey_csv(survey) if args.out or args.format == "csv" else None
    if args.out:
        Path(args.out).write_bytes(data)
    payload = None  # built only for json: its rows box every sample
    if args.format == "json":
        payload = _payload(
            "simulate", site=survey.site, seed=spec.seed,
            samples_per_distance=spec.samples_per_distance,
            rows=[dict(distance_m=d, samples_dbm=s.tolist()) for d, s in _cut(survey)],
        )
    lines = [
        f"simulated {survey.n_samples} samples at {len(survey.distances)} distances "
        f"(site {survey.site!r}, seed {spec.seed})"
    ]
    if args.out:
        lines.append(f"wrote survey CSV to {args.out}")
    return payload, data if args.format == "csv" else None, lines


def _cmd_datasets(args):
    from .datasets import dataset_names, embedded_dataset

    if args.action == "export":
        # No --format: the canonical stats CSV, or one text line after --out.
        record = embedded_dataset(args.name)
        if record.stats is None:
            raise DataError(
                f"dataset {record.name!r} has no per-distance statistics to export"
            )
        data = save_stats_csv(record.stats)
        if not args.out:
            return None, data, None
        Path(args.out).write_bytes(data)
        return None, None, [f"wrote {record.name} to {args.out}"]
    datasets = [
        {
            "name": r.name,
            "n_rows": 0 if r.stats is None else r.stats.distance_m.size,
            "range_test_m": None if r.range_test is None else list(r.range_test),
            "provenance": r.provenance,
        }
        for r in map(embedded_dataset, dataset_names())
    ]
    lines = []
    for d in datasets:
        span = "no field range test"
        if d["range_test_m"] is not None:
            span = "field range test {:g}-{:g} m".format(*d["range_test_m"])
        lines += [
            f"{d['name']}: {d['n_rows']} stat rows, {span}", f"  {d['provenance']}"
        ]
    header = ("name", "n_rows", "range_min_m", "range_max_m")
    rows = (
        (d["name"], d["n_rows"], *(d["range_test_m"] or (None, None)))
        for d in datasets
    )
    return _payload("datasets-list", datasets=datasets), (header, rows), lines


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
        "--intercept-mode", choices=INTERCEPT_MODES, default="free",
        help="estimate rss(d0) freely, or anchor it to the measured mean "
        "at the row nearest d0",
    )
    parser.add_argument(
        "--compare-paper", action="store_true",
        help="print the published values beside the computed ones "
        "(embedded datasets only)",
    )
    parser.add_argument(
        "--emit-curve", metavar="FILE",
        help="write a distance_m,fitted,observed CSV for external plotting",
    )
    parser.add_argument(
        "--save-model", metavar="FILE", help="write the fitted model JSON here"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rssifit",
        description="RSSI path-loss calibration, localization, and "
        "radio-range planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, model: bool = False, parent=sub):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if model:
            p.add_argument("--model", required=True, help="model JSON path")
        return p

    p_fit = command("fit", _cmd_fit, "fit the path-loss trend to a survey")
    _add_source_flags(p_fit)
    p_sigma = command(
        "sigma-fit", _cmd_sigma_fit, "fit the quartic fading-SD polynomial"
    )
    _add_source_flags(p_sigma)
    p_sigma.add_argument(
        "--target", choices=SIGMA_TARGETS, default="sample_sd",
        help="fit sigma to the SD column or to scaled trend residuals",
    )

    p_predict = command("predict", _cmd_predict, "mean RSS at a distance", model=True)
    p_predict.add_argument("--d", type=float, required=True, help="distance in m")

    p_loc = command(
        "localize", _cmd_localize, "distance estimate from an RSSI reading", model=True
    )
    p_loc.add_argument("--rss", type=float, required=True, help="measured RSSI in dBm")
    p_loc.add_argument(
        "--level", type=float, default=0.95, help="confidence level (default 0.95)"
    )

    p_plan = command(
        "plan", _cmd_plan, "maximum usable range above receiver sensitivity", model=True
    )
    p_plan.add_argument(
        "--sensitivity", type=float, default=LinkConstants().receiver_sensitivity,
        help="receiver sensitivity in dBm (default %(default)s)",
    )
    p_plan.add_argument(
        "--z", type=float, default=0.0, help="outage margin in sigma units (default 0)"
    )

    p_sim = command(
        "simulate", _cmd_simulate, "generate a synthetic survey from a model",
        model=True,
    )
    p_sim.add_argument(
        "--distances", required=True,
        help="'start:stop', 'start:stop:step', or comma list, in m",
    )
    p_sim.add_argument(
        "--samples", type=int, required=True, help="samples per distance"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p_sim.add_argument("--site", default="simulated", help="site label for the survey")
    p_sim.add_argument("--out", metavar="FILE", help="write survey CSV here")

    data = sub.add_parser("datasets", help="embedded dataset registry")
    data_sub = data.add_subparsers(dest="action", required=True)
    p_list = command("list", _cmd_datasets, "list embedded datasets", parent=data_sub)
    p_export = command(
        "export", _cmd_datasets, "write a dataset's canonical stats CSV",
        parent=data_sub,
    )
    p_export.add_argument("name", help="dataset name")
    p_export.add_argument("--out", metavar="FILE", help="write here (else stdout)")
    p_export.set_defaults(format="csv")

    for p in (p_fit, p_sigma, p_predict, p_loc, p_plan, p_sim, p_list):
        p.add_argument(
            "--format", choices=FORMATS, default="text", help="output format"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args.format, *args.func(args))
        return 0
    except SystemExit as exc:
        # argparse --help path; usage errors are rerouted to DataError.
        return 0 if exc.code in (0, None) else int(exc.code)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # often raised with no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (RssifitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
