"""Job-config parsing, report generation, and command-line behavior."""

import csv
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import qhm
import qhm.cli
from qhm import Grid, NumericGuardError
from qhm.cli import main as cli_main
from qhm.jobs import (
    JOB_KINDS,
    ConfigError,
    parse_config,
    run_job,
    serialize_report,
    validate_refinement,
)


# Nested past the recursion limit of Python's JSON decoder.
DEEP_JSON = "[" * 100000 + "]" * 100000


def _cfg(**overrides):
    doc = {"job": "verify-metric", "metric": "BF"}
    doc.update(overrides)
    return json.dumps(doc)


# hbar*m*omega^2 = 1e-320: 2*mu/(hbar*m*omega^2) overflows, mu/omega^2 does not.
_BF_EXPONENT_OVERFLOWS = {"hbar": 1e-160, "omega": 1e-80, "mu": 0.1}
# mu/omega^2 = 1e320 overflows, 2*mu/(hbar*m*omega^2) = 2e120 does not.
_JR_EXPONENT_OVERFLOWS = {
    "hbar": 1e100, "mass": 1e100, "omega": 1e-10, "mu": 1e300, "tau": 0.01
}


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self):
        cfg = parse_config(_cfg())
        assert cfg.job == "verify-metric"
        assert cfg.grid.n_points == 257
        assert cfg.grid.p_max == 8.0
        assert cfg.grid.mask_fraction == 0.25
        assert cfg.params.hbar == 1.0
        assert cfg.params.mass == 1.0
        assert cfg.params.omega == 1.0
        assert cfg.threshold == 1e-3
        assert cfg.refinement is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_cfg(surprise=1))

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_cfg(grid={"n_points": 257, "spacing": 0.1}))

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(_cfg(params={"mu": 0.1, "nu": 0.2}))

    def test_unknown_q_param_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(
                _cfg(job="algebra-check", metric=None, q_params={"qq": 1.0})
            )

    def test_even_point_count_rejected_with_oddness_message(self):
        with pytest.raises(ConfigError, match="odd"):
            parse_config(_cfg(grid={"n_points": 256}))

    def test_mask_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(_cfg(grid={"mask_fraction": 0.6}))

    def test_lambda_key_maps_to_ladder_coupling(self):
        cfg = parse_config(_cfg(params={"lambda": -0.05, "delta_t": 0.05}))
        assert cfg.params.lam == -0.05
        assert cfg.params.delta_t == 0.05

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_config(_cfg(params={"mu": True}))

    def test_non_finite_json_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"job": "verify-metric", "metric": "BF", "threshold": NaN}')

    def test_unknown_job_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(_cfg(job="make-coffee", metric=None))

    def test_unknown_metric_label_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(_cfg(metric="Hadamard"))

    def test_verify_requires_metric(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"job": "verify-metric"}))

    def test_compare_requires_exactly_two_metrics(self):
        with pytest.raises(ConfigError):
            parse_config(
                json.dumps({"job": "compare-metrics", "metrics": ["BF"]})
            )

    def test_compare_rejects_a_repeated_label(self):
        # One label twice compares nothing: one residual, ratio 1, FAIL.
        with pytest.raises(ConfigError, match="must differ"):
            parse_config(json.dumps({"job": "compare-metrics", "metrics": ["BF", "BF"]}))

    def test_too_deeply_nested_json_rejected(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(DEEP_JSON)

    @pytest.mark.parametrize("text, key", [
        ('{"job": "verify-metric", "job": "spectrum", "metric": "BF"}', "job"),
        ('{"job": "spectrum", "grid": {"n_points": 129, "n_points": 33}}', "n_points"),
        ('{"job": "spectrum", "params": {"mu": 0.1, "mu": 0.2}}', "mu"),
        ('{"job": "algebra-check", "q_params": {"q": 1.0, "q": 1.05}}', "q"),
    ], ids=["top-level", "grid", "params", "q_params"])
    def test_a_repeated_key_is_rejected(self, text, key):
        # json.loads alone keeps the last value of a repeated key.
        with pytest.raises(ConfigError, match=f"repeated key.*: {key}$"):
            parse_config(text)

    def test_model_equality_checks_the_derived_bf_mu(self):
        # mu = 0: the BF side takes mu = delta_t - lambda = -1e150, whose BF
        # exponent overflows at hbar = 1e-300; once a ValueError in run_job.
        text = json.dumps({"job": "model-equality", "grid": {"n_points": 7, "p_max": 1.0},
                           "params": {"hbar": 1e-300, "lambda": 1e150}})
        with pytest.raises(ConfigError, match="BF exponent"):
            parse_config(text)
        # Other jobs never build that BF side.
        parse_config(text.replace("model-equality", "algebra-check"))

    def test_limit_sweep_requires_reference(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"job": "limit-sweep", "metric": "JR-composite"}))

    @pytest.mark.parametrize(
        "taus", [[], 0.1, "0.1", {"tau": 0.1}], ids=["empty", "number", "string", "object"]
    )
    def test_tau_values_must_be_a_non_empty_list(self, taus):
        with pytest.raises(ConfigError, match="^tau_values must be a non-empty list$"):
            parse_config(_cfg(tau_values=taus))

    @pytest.mark.parametrize("q, alpha", [(1.0, 1.0), (1.05, 1.0), (1.0, 2.0), (1.05, 0.3)])
    def test_default_gamma_meets_the_constraint_for_any_alpha(self, q, alpha):
        cfg = parse_config(
            _cfg(job="algebra-check", metric=None, q_params={"q": q, "alpha": alpha})
        )
        assert cfg.q_params.gamma == (q**2 + 1.0) / 4.0 / alpha

    @pytest.mark.parametrize("alpha", [0.0, 1e-320], ids=["zero", "quotient-overflows"])
    def test_alpha_zero_or_too_small_keeps_the_constraint_error(self, alpha):
        with pytest.raises(ConfigError, match="constraint violated"):
            parse_config(_cfg(job="algebra-check", metric=None, q_params={"alpha": alpha}))

    def test_null_refinement_means_no_refinement(self):
        cfg = parse_config(_cfg(grid={"n_points": 129, "refinement": None}))
        assert cfg.refinement is None

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_exp_theta_label_rejected(self, theta):
        with pytest.raises(ConfigError, match="finite theta"):
            parse_config(_cfg(metric=f"ExpTheta({theta})"))

    @pytest.mark.parametrize(
        "job, params, exponent",
        [
            ("algebra-check", _BF_EXPONENT_OVERFLOWS, "BF exponent"),
            ("verify-metric", _JR_EXPONENT_OVERFLOWS, "JR exponent"),
        ],
    )
    def test_overflowing_metric_exponent_rejected(self, job, params, exponent):
        # Refused with the parameters, whichever labels the job names.
        with pytest.raises(ConfigError, match=exponent):
            parse_config(_cfg(job=job, metric="JR-composite", params=params))

    def test_overflowing_q_rejected(self):
        for q_params in ({"q": 1e200}, {"q": 1e200, "gamma": 1.0}):
            with pytest.raises(ConfigError, match="q"):
                parse_config(
                    _cfg(job="algebra-check", metric=None, q_params=q_params)
                )

    def test_refinement_must_be_increasing_odd(self):
        grid = Grid(129, 8.0)
        with pytest.raises(ConfigError, match="odd"):
            validate_refinement([129, 256], grid)
        with pytest.raises(ConfigError):
            validate_refinement([257, 129], grid)
        assert validate_refinement([129, 257], grid) == (129, 257)

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_points": 129, "refinement": [1]},
            {"n_points": 129, "mask_fraction": 0.4, "refinement": [5, 129]},
            {"n_points": 129, "refinement": [129, 10**400 + 1]},
            {"n_points": 10**400 + 1},
        ],
    )
    def test_refinement_grids_are_built_at_parse_time(self, grid):
        with pytest.raises(ConfigError):
            parse_config(_cfg(grid=grid))


    @pytest.mark.parametrize("taus", [[1e-2, 1e-1], [1e-1, 1e-1], [1e-1, 0.0], [-1e-2]])
    def test_tau_values_must_be_positive_and_strictly_decreasing(self, taus):
        for job in ("limit-sweep", "verify-metric"):
            doc = _cfg(job=job, reference="BF", tau_values=taus)
            with pytest.raises(ConfigError, match="tau values"):
                parse_config(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"job": "verify-metric", "metric": "JR"},
            {"job": "spectrum", "metric": "JR"},
            {"job": "compare-metrics", "metrics": ["BF", "JR"]},
            {"job": "limit-sweep", "metric": "BF", "reference": "JR"},
        ],
    )
    def test_jr_label_evaluated_at_tau_zero_rejected(self, doc):
        with pytest.raises(ConfigError, match="JR metric requires tau > 0"):
            parse_config(json.dumps(dict(doc, params={"tau": 0.0})))
        assert parse_config(json.dumps(dict(doc, params={"tau": 0.01})))

    @pytest.mark.parametrize(
        "doc",
        [
            # a limit sweep evaluates its own metric at each swept tau
            {"job": "limit-sweep", "metric": "JR", "reference": "BF"},
            # the composite label substitutes its tau = 0 limit
            {"job": "verify-metric", "metric": "JR-composite"},
            # an algebra check evaluates no metric label
            {"job": "algebra-check", "metric": "JR"},
        ],
    )
    def test_jr_label_not_evaluated_at_tau_zero_accepted(self, doc):
        assert parse_config(json.dumps(dict(doc, params={"tau": 0.0})))

    @pytest.mark.parametrize("job", JOB_KINDS)
    def test_three_point_grid_rejected_for_every_job(self, job):
        with pytest.raises(ConfigError, match="at least 5"):
            parse_config(json.dumps({"job": job, "grid": {"n_points": 3}}))

    @pytest.mark.parametrize("n, accepted", [(13, False), (15, True)])
    def test_fit_metric_needs_eight_interior_points(self, n, accepted):
        # mask 0.25: 13 points keep 7 interior rows, 15 keep 9
        doc = {"job": "fit-metric", "grid": {"n_points": 129, "refinement": [n, 129]}}
        if accepted:
            assert parse_config(json.dumps(doc)).refinement == (n, 129)
        else:
            with pytest.raises(ConfigError, match="8 interior points"):
                parse_config(json.dumps(doc))
        run = dict(doc, job="algebra-check")  # only the fit needs the rows
        assert parse_config(json.dumps(run)).refinement == (n, 129)


_SMALL_COMPARE = {
    "job": "compare-metrics",
    "metrics": ["ExpTheta(0.2)", "ExpTheta(0.1)"],
    "grid": {"n_points": 129, "p_max": 10.0, "refinement": [129, 257]},
    "params": {"mu": 0.1},
}


@pytest.fixture(scope="module")
def report_doc():
    return run_job(parse_config(json.dumps(_SMALL_COMPARE)))


class TestRunJob:
    def test_report_has_documented_top_level_shape(self):
        doc = run_job(parse_config(_cfg()))
        assert set(doc) == {"version", "config", "results", "verdicts", "timings"}
        assert doc["verdicts"]["overall"] in {"PASS", "FAIL"}
        assert doc["timings"]["total_s"] >= 0.0

    def test_trivial_hermitian_verify_passes_exactly(self):
        doc = run_job(parse_config(_cfg()))
        assert doc["verdicts"]["overall"] == "PASS"
        check = doc["results"]["residuals"][0]
        assert check["residual_action"] == 0.0
        assert check["condition_number"] == 1.0

    def test_a_non_finite_report_value_is_a_run_error(self, tmp_path, monkeypatch, capsys):
        # Strict JSON has no inf: the entry is refused before any report is
        # written, and the command line exits 3.
        monkeypatch.setattr("qhm.jobs.metric_condition", lambda g: float("inf"))
        doc = {"job": "verify-metric", "metric": "BF", "grid": {"n_points": 33}}
        with pytest.raises(NumericGuardError, match="^a verify-metric report value is not finite$"):
            run_job(parse_config(json.dumps(doc)))
        job = _write_job(tmp_path, "job.json", doc)
        assert cli_main([str(job), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "run error: a verify-metric report value is not finite\n"
        assert not (tmp_path / "out").exists()

    def test_payload_is_deterministic(self):
        d1 = run_job(parse_config(_cfg()))
        d2 = run_job(parse_config(_cfg()))
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2

    def test_compare_metrics_reports_honest_ratio(self):
        text = json.dumps(
            {
                "job": "compare-metrics",
                "metrics": ["ExpTheta(0.2)", "ExpTheta(0.1)"],
                "grid": {"n_points": 513, "p_max": 10.0},
                "params": {"mu": 0.1},
            }
        )
        doc = run_job(parse_config(text))
        comp = doc["results"]["comparisons"][0]
        assert comp["favored"] == "ExpTheta(0.2)"
        assert comp["ratio"] == pytest.approx(206.0, rel=1e-2)
        assert doc["verdicts"]["overall"] == "PASS"

    @pytest.mark.parametrize("metrics, mu, threshold", [
        # ExpTheta(0) is the identity, exactly intertwined by the Hermitian H
        # at mu = 0: both residuals are 0, and the ratio divides by zero.
        (["ExpTheta(0)", "ExpTheta(0.0)"], 0.0, 10.0),
        # Equal nonzero residuals give a ratio of 1, above this threshold.
        (["ExpTheta(0.1)", "ExpTheta(0.10)"], 0.1, 0.5),
    ])
    def test_tied_residuals_favour_no_metric_and_fail(self, metrics, mu, threshold):
        text = json.dumps({"job": "compare-metrics", "grid": {"n_points": 129, "p_max": 8.0},
                           "params": {"mu": mu}, "metrics": metrics,
                           "threshold": threshold})
        doc = run_job(parse_config(text))
        comp = doc["results"]["comparisons"][0]
        first, second = comp["residuals"].values()
        assert first == second
        assert comp["favored"] is None
        assert comp["verdict"] == doc["verdicts"]["overall"] == "FAIL"

    @pytest.mark.parametrize(
        "grid, k, mu",
        [
            ({"n_points": 129, "p_max": 8.0}, 10, 0.05),
            ({"n_points": 65, "p_max": 4.0}, 3, 0.1),
        ],
    )
    def test_a_missing_counterpart_level_is_untrusted(self, grid, k, mu):
        # The counterpart keeps one level fewer than H; its levels agree with
        # H's first ones, so only the count shows the mismatch.
        text = json.dumps({"job": "spectrum", "grid": grid, "params": {"mu": mu},
                           "metric": "BF", "k": k})
        entry = run_job(parse_config(text))["results"]["spectra"][0]
        assert len(entry["values"]) == k
        assert len(entry["counterpart_values"]) == k - 1
        shared = zip(entry["values"], entry["counterpart_values"])
        assert max(abs(complex(*a) - complex(*b)) for a, b in shared) < 1e-9
        assert entry["cross_check_discrepancy"] is None
        assert entry["direct_spectrum_untrusted"] is True

    @pytest.mark.parametrize("job, key", [
        # ExpTheta(0) is the identity, exactly intertwined by the Hermitian H
        # at mu = 0, so the ratio divides by a zero first residual.
        ({"job": "compare-metrics", "grid": {"n_points": 129, "p_max": 8.0},
          "params": {"mu": 0.0}, "metrics": ["ExpTheta(0)", "ExpTheta(0.1)"]},
         "comparisons"),
        # The counterpart keeps one level fewer than H.
        ({"job": "spectrum", "grid": {"n_points": 65, "p_max": 4.0},
          "params": {"mu": 0.1}, "metric": "BF", "k": 3},
         "spectra"),
    ])
    def test_an_infinite_value_is_written_as_null(self, job, key, tmp_path):
        # An infinite ratio or discrepancy is written as null, so the report
        # parses as strict JSON; the verdicts are decided from the floats.
        def refuse(constant):
            raise ValueError(f"{constant} is not strict JSON")

        report_path, _ = serialize_report(run_job(parse_config(json.dumps(job))), tmp_path)
        entry = json.loads(report_path.read_text(), parse_constant=refuse)["results"][key][0]
        if key == "comparisons":
            assert entry["residuals"]["ExpTheta(0)"] == 0.0
            assert entry["ratio"] is None
            assert entry["verdict"] == "PASS"
        else:
            assert entry["cross_check_discrepancy"] is None
            assert entry["direct_spectrum_untrusted"] is True

    def test_a_spectrum_entry_names_each_solver_and_fallback(self):
        # At 257 points, mu 0.15 and k = 8, H's levels come from the
        # shift-invert solve and the counterpart's from the dense fallback.
        text = json.dumps({"job": "spectrum", "grid": {"n_points": 257, "p_max": 10.0},
                           "params": {"mu": 0.15}, "metric": "BF", "k": 8})
        entry = run_job(parse_config(text))["results"]["spectra"][0]
        assert (entry["solver"], entry["fallback"]) == ("shift-invert", None)
        assert (entry["counterpart_solver"], entry["counterpart_fallback"]) == (
            "dense", "shift disagreement"
        )
        assert entry["direct_spectrum_untrusted"] is False

    @pytest.mark.parametrize("p_max, kept", [(1.0, 0), (8.0, 4)])
    def test_a_spectrum_with_fewer_than_k_levels_fails(self, p_max, kept):
        # The reality measure of a short (or empty) list is small, but the
        # missing levels were never measured.
        text = json.dumps({"job": "spectrum", "grid": {"n_points": 9, "p_max": p_max},
                           "params": {"mu": 0.1}})
        doc = run_job(parse_config(text))
        entry = doc["results"]["spectra"][0]
        assert len(entry["values"]) == kept < 6
        assert entry["reality_measure"] < 1e-6
        assert entry["verdict"] == doc["verdicts"]["overall"] == "FAIL"

    def test_run_id_free_serialization_roundtrip(self, tmp_path):
        doc = run_job(parse_config(_cfg()))
        report_path, csv_path = serialize_report(doc, tmp_path)
        assert report_path.name == "report.json"
        assert csv_path.name == "tables.csv"
        assert json.loads(report_path.read_text()) == doc

    def test_csv_has_one_row_per_metric_grid_pair(self, tmp_path, report_doc):
        _, csv_path = serialize_report(report_doc, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {
            "job",
            "metric",
            "n_points",
            "tau",
            "residual",
            "verdict",
        }

    @staticmethod
    def _composite_sweep(params: dict) -> dict:
        text = json.dumps(
            {
                "job": "limit-sweep",
                "metric": "JR-composite",
                "reference": "ExpTheta(0.1)",
                "grid": {"n_points": 257, "p_max": 8.0},
                "params": params,
            }
        )
        return run_job(parse_config(text))

    def test_limit_sweep_rows_track_tau_values(self, tmp_path):
        doc = self._composite_sweep({"mu": 0.1})
        sweep = doc["results"]["sweeps"][0]
        assert [t for t, _ in sweep["table"]] == [1e-1, 1e-2, 1e-3, 1e-4]
        dists = [d for _, d in sweep["table"]]
        assert dists == sorted(dists, reverse=True)
        assert sweep["final_distance"] == pytest.approx(1.925416e-3, rel=1e-3)
        assert doc["verdicts"]["overall"] == "PASS"

    def test_composite_sweep_ignores_params_tau(self):
        # The sweep sets tau itself, both factors of the composite included.
        tables = [
            self._composite_sweep({"mu": 0.1, "tau": tau})["results"]["sweeps"][0]["table"]
            for tau in (0.0, 0.05)
        ]
        assert tables[0] == tables[1]


def _reference_bytes(doc) -> tuple[bytes, bytes]:
    """report.json and tables.csv as a fresh write gives them."""
    table = io.StringIO()
    writer = csv.DictWriter(
        table, fieldnames=["job", "metric", "n_points", "tau", "residual", "verdict"]
    )
    writer.writeheader()
    for row in doc["results"]["rows"]:
        writer.writerow(row)
    report = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return report.encode("utf-8"), table.getvalue().encode("utf-8")


class TestSerializeReport:
    def test_bytes_match_the_reference_encoders(self, tmp_path, report_doc):
        report_path, csv_path = serialize_report(report_doc, tmp_path)
        report, table = _reference_bytes(report_doc)
        assert report_path.read_bytes() == report
        assert csv_path.read_bytes() == table
        assert table.count(b"\r\n") == len(report_doc["results"]["rows"]) + 1

    def test_shorter_report_over_a_longer_one_leaves_only_its_bytes(
        self, tmp_path, report_doc
    ):
        results = dict(report_doc["results"])
        results["rows"] = results["rows"] * 5
        long_doc = dict(report_doc, results=results)
        serialize_report(long_doc, tmp_path)
        report_path, csv_path = serialize_report(report_doc, tmp_path)
        report, table = _reference_bytes(report_doc)
        assert report_path.read_bytes() == report
        assert csv_path.read_bytes() == table

    def test_new_files_get_0o666_less_the_umask(self, tmp_path, report_doc):
        old = os.umask(0o002)
        try:
            paths = serialize_report(report_doc, tmp_path / "fresh")
        finally:
            os.umask(old)
        for path in paths:
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o664

    def test_symlinked_report_rewrites_its_target(self, tmp_path, report_doc):
        target = tmp_path / "kept" / "target.json"
        target.parent.mkdir()
        target.write_text("x" * 100_000)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").symlink_to(target)
        report_path, _ = serialize_report(report_doc, out)
        assert report_path.is_symlink()
        assert target.read_bytes() == _reference_bytes(report_doc)[0]

    def test_out_dir_that_is_a_file_exits_four(self, tmp_path, capsys):
        job = _write_job(tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"})
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        assert cli_main([str(job), "--out", str(blocker)]) == 4
        assert "cannot write reports" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory"

    def test_report_path_that_is_a_directory_exits_four(self, tmp_path, capsys):
        job = _write_job(tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"})
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert cli_main([str(job), "--out", str(out)]) == 4
        assert "cannot write reports" in capsys.readouterr().err


def _run_cli(*args, env_extra=None, cwd=None):
    # the child imports the same qhm as this process, installed or not, and
    # turns a numpy RuntimeWarning or a UserWarning into an error, as pytest
    # does here
    src = os.path.dirname(os.path.dirname(qhm.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning,error::UserWarning"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qhm.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# Jobs whose operators or probe actions overflow, each refused by a guard
# that names what overflowed: ħ·γ_t overflows the shift of X and τ·p² its
# deformation (each once a plain ValueError out of run_job), the mass the
# norms of the Dieudonné residual's probe actions, and ħ = 1e-300 the norm
# of H1 − H2 in the model-equality fit.  At μ = 0 the NaN {X, P} of an
# overflowing pair once kept the BF Hamiltonian imaginary, so op_sum refused
# it before its guard could name it; p_max = 1e150 overflows the smooth
# probes, and q = 100 the q^N of the algebra check (each once after numpy
# RuntimeWarnings).
OVERFLOW_GUARDS = {
    "gamma_t": (
        {"job": "verify-metric", "grid": {"n_points": 9, "p_max": 8}, "metric": "BF",
         "params": {"hbar": 1e160, "gamma_t": 1e160}},
        "the deformed position operator X has non-finite entries (inf or NaN)",
    ),
    "tau": (
        {"job": "spectrum", "grid": {"n_points": 9, "p_max": 8}, "model": "BF",
         "params": {"tau": 1e307}},
        "the deformed position operator X has non-finite entries (inf or NaN)",
    ),
    "mass": (
        {"job": "verify-metric", "grid": {"n_points": 5}, "metric": "BF",
         "params": {"mass": 1e200}},
        "the Dieudonné residual is not finite: a norm overflowed",
    ),
    "hbar": (
        {"job": "model-equality", "grid": {"n_points": 65, "p_max": 10},
         "params": {"hbar": 1e-300, "mu": 0.05, "lambda": 0.1, "delta_t": 0.5}},
        "the model-equality residual is not finite: a norm overflowed",
    ),
    "mu-zero": (
        {"job": "spectrum", "grid": {"n_points": 17, "p_max": 8},
         "params": {"hbar": 1e300, "mass": 1e-300, "tau": 1e6}},
        "the BF Hamiltonian has non-finite entries (inf or NaN)",
    ),
    # m·ω²/2 underflows to 0 while X·X overflows: 0·inf must reach the guard.
    "underflow": (
        {"job": "spectrum", "grid": {"n_points": 17, "p_max": 8},
         "params": {"hbar": 1e300, "mass": 1e-10, "omega": 1e-157}},
        "the BF Hamiltonian has non-finite entries (inf or NaN)",
    ),
    "probes": (
        {"job": "fit-metric", "grid": {"n_points": 17, "p_max": 1e150},
         "params": {"mu": 0.1}},
        "the smooth probes are not finite at p_max 1e+150",
    ),
    "q": (
        {"job": "algebra-check", "grid": {"n_points": 257, "p_max": 8},
         "q_params": {"q": 100}},
        "matrix function condition number inf exceeds the dynamic range bound 1e+14",
    ),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_GUARDS))
def test_an_overflow_stops_at_the_guard_that_names_it(name):
    # No RuntimeWarning filter: pytest turns a numpy warning into an error.
    doc, message = OVERFLOW_GUARDS[name]
    with pytest.raises(NumericGuardError) as caught:
        run_job(parse_config(json.dumps(doc)))
    assert str(caught.value) == message


def _write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestCommandLine:
    def test_pass_run_exits_zero_and_writes_reports(self, tmp_path):
        job = _write_job(
            tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"}
        )
        out = tmp_path / "out"
        proc = _run_cli(str(job), "--out", str(out))
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        report = json.loads((out / "report.json").read_text())
        assert report["verdicts"]["overall"] == "PASS"
        assert (out / "tables.csv").exists()

    def test_failing_check_exits_one_only_under_assert(self, tmp_path):
        doc = {
            "job": "compare-metrics",
            "metrics": ["ExpTheta(0.2)", "ExpTheta(0.1)"],
            "grid": {"n_points": 129, "p_max": 10.0},
            "params": {"mu": 0.1},
            "threshold": 1e9,
        }
        job = _write_job(tmp_path, "job.json", doc)
        relaxed = _run_cli(str(job), "--out", str(tmp_path / "a"))
        assert relaxed.returncode == 0
        assert "FAIL" in relaxed.stdout
        strict = _run_cli(str(job), "--assert", "--out", str(tmp_path / "b"))
        assert strict.returncode == 1

    def test_config_error_exits_two(self, tmp_path):
        job = _write_job(
            tmp_path,
            "bad.json",
            {"job": "verify-metric", "metric": "BF", "grid": {"n_points": 256}},
        )
        proc = _run_cli(str(job))
        assert proc.returncode == 2
        assert "odd" in proc.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            {"job": "algebra-check", "q_params": {"q": 1e200}},
            {"job": "verify-metric", "metric": "ExpTheta(nan)"},
            {"job": "verify-metric", "metric": "ExpTheta(inf)"},
            {"job": "verify-metric", "metric": "ExpTheta(-inf)"},
            {"job": "algebra-check", "params": _BF_EXPONENT_OVERFLOWS},
            {"job": "compare-metrics", "params": _JR_EXPONENT_OVERFLOWS},
            {"job": "fit-metric", "params": _JR_EXPONENT_OVERFLOWS},
        ],
    )
    def test_overflowing_or_non_finite_value_exits_two(self, tmp_path, doc):
        job = _write_job(tmp_path, "bad.json", doc)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_points": 129, "refinement": [1]},
            {"n_points": 129, "mask_fraction": 0.4, "refinement": [5, 129]},
            {"n_points": 129, "refinement": [129, 10**400 + 1]},
            {"n_points": 129, "refinement": [3, 129]},
        ],
    )
    def test_invalid_refinement_grid_exits_two(self, tmp_path, grid):
        doc = {"job": "algebra-check", "grid": grid}
        job = _write_job(tmp_path, "bad.json", doc)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: refinement entry")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_points": 402653185},
            {"n_points": 129, "refinement": [129, 402653185]},
        ],
        ids=["grid", "refinement"],
    )
    def test_grid_past_the_size_cap_exits_two(self, tmp_path, grid):
        doc = {"job": "verify-metric", "metric": "BF", "grid": grid}
        job = _write_job(tmp_path, "big.json", doc)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert f"at most {2**20 + 1}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_the_largest_allowed_grid_parses(self):
        cfg = parse_config(_cfg(grid={"n_points": 2**20 + 1}))
        assert cfg.grid.n_points == 2**20 + 1

    def test_out_of_memory_in_a_run_exits_three(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setattr(qhm.cli, "run_job", exhausted)
        job = _write_job(
            tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"}
        )
        assert cli_main([str(job), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "run error: MemoryError\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"job": "algebra-check", "grid": {"n_points": 3}},
            {"job": "fit-metric", "grid": {"n_points": 13}},
            {"job": "fit-metric", "grid": {"refinement": [13, 129]}},
        ],
        ids=["three", "fit-interior", "fit-refinement"],
    )
    def test_grid_too_small_for_the_job_exits_two(self, tmp_path, doc):
        job = _write_job(tmp_path, "small.json", doc)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr

    def test_an_out_dir_key_exits_two_with_one_line(self, tmp_path, capsys):
        # The output directory is set by --out alone.
        doc = {"job": "verify-metric", "metric": "BF", "out_dir": str(tmp_path / "out")}
        job = _write_job(tmp_path, "job.json", doc)
        assert cli_main([str(job)]) == 2
        assert capsys.readouterr().err == "config error: unknown key(s) in config: out_dir\n"
        assert not (tmp_path / "out").exists()

    def test_the_command_line_takes_only_the_job_file_assert_and_out(self):
        # Every other setting of a run is in the job file.
        parser = qhm.cli._build_parser()
        names = [a.option_strings or [a.dest] for a in parser._actions]
        assert names == [["-h", "--help"], ["jobfile"], ["--assert"], ["--out"]]

    def test_unknown_key_exits_two(self, tmp_path):
        job = _write_job(
            tmp_path, "bad.json", {"job": "verify-metric", "metric": "BF", "oops": 1}
        )
        proc = _run_cli(str(job))
        assert proc.returncode == 2

    def test_runtime_guard_exits_three(self, tmp_path):
        # q^N at q = 1.3 on 257 points spans more than the 1e14 dynamic
        # range; the job parses but the matrix-function guard trips.
        job = _write_job(
            tmp_path,
            "job.json",
            {"job": "algebra-check", "q_params": {"q": 1.3}},
        )
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert "dynamic range" in proc.stderr

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_hamiltonian_exits_three(self, tmp_path, capsys):
        # hbar*m*omega^2 = 1 parses, but X·X overflows, so the BF Hamiltonian
        # holds inf and NaN; compare-metrics once reported PASS with NaN and
        # Infinity in its entry.
        params = {"hbar": 1e300, "mass": 1e-300, "omega": 1, "mu": 0.1, "tau": 0.01}
        job = _write_job(tmp_path, "job.json", {
            "job": "compare-metrics", "grid": {"n_points": 33, "p_max": 2},
            "params": params,
        })
        assert cli_main([str(job), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            "run error: the BF Hamiltonian has non-finite entries (inf or NaN)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_hamiltonian_prints_only_the_run_error(self, tmp_path):
        # The overflow inside the model builders is refused by their guard,
        # so no numpy RuntimeWarning reaches stderr ahead of it.
        params = {"hbar": 1e300, "mass": 1e-300, "omega": 1, "mu": 0.1, "tau": 0.01}
        job = _write_job(tmp_path, "job.json", {
            "job": "compare-metrics", "grid": {"n_points": 33, "p_max": 2},
            "params": params,
        })
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr == (
            "run error: the BF Hamiltonian has non-finite entries (inf or NaN)\n"
        )

    def test_an_overflowing_equality_column_is_named(self, tmp_path):
        # The Hamiltonians are finite at p_max = 1e80, but P⁴ overflows: the
        # job once died in LAPACK's least squares, with DLASCL messages.
        job = _write_job(tmp_path, "job.json", {
            "job": "model-equality", "grid": {"n_points": 33, "p_max": 1e80},
            "params": {"mu": 0.1, "tau": 0.01, "lambda": -0.05, "delta_t": 0.05},
        })
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr == (
            "run error: the model-equality column P4 has non-finite entries "
            "(inf or NaN)\n"
        )

    @pytest.mark.parametrize("name", sorted(OVERFLOW_GUARDS))
    def test_an_overflow_exits_three_with_one_run_error_line(self, tmp_path, name):
        doc, message = OVERFLOW_GUARDS[name]
        job = _write_job(tmp_path, "job.json", doc)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr == f"run error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_swept_profile_exits_three(self, tmp_path):
        # (1 + 0.1 p²)^500 overflows at p_max 10: the swept profiles meet the
        # dynamic-range rule of build_metric, where an infinite distance was
        # once written into report.json as Infinity, after numpy warnings.
        job = _write_job(tmp_path, "job.json", {
            "job": "limit-sweep", "grid": {"n_points": 129, "p_max": 10},
            "params": {"mu": 50}, "metric": "JR", "reference": "ExpTheta(0.1)",
            "tau_values": [0.1, 0.01, 0.001],
        })
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        assert proc.stderr == (
            "run error: metric condition number inf exceeds the dynamic range "
            "bound 1e+14\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"job": "verify-metric", "metric": "BF"}',  # not UTF-8
        DEEP_JSON.encode(),
        b'{"job": "compare-metrics", "metrics": ["BF", "BF"]}',
        b'{"job": "verify-metric", "job": "spectrum", "metric": "BF"}',
        b'{"job": "model-equality", "grid": {"n_points": 7, "p_max": 1.0},'
        b' "params": {"hbar": 1e-300, "lambda": 1e150}}',
    ], ids=["not-utf-8", "deep-nesting", "repeated-label", "repeated-key",
            "derived-bf-mu"])
    def test_a_refused_job_text_exits_two_with_one_line(self, tmp_path, content):
        job = tmp_path / "job.json"
        job.write_bytes(content)
        proc = _run_cli(str(job), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_the_readme_job_file_passes(self, tmp_path):
        # The json block under README's "Command line" runs as documented.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1]
        block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
        job = tmp_path / "job.json"
        job.write_text(block)
        proc = _run_cli(str(job), "--assert", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("compare-metrics: PASS")

    def test_missing_jobfile_exits_four(self, tmp_path):
        proc = _run_cli(str(tmp_path / "nope.json"))
        assert proc.returncode == 4

    def test_unwritable_out_dir_exits_four(self, tmp_path):
        job = _write_job(
            tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"}
        )
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        proc = _run_cli(str(job), "--out", str(blocker / "sub"))
        assert proc.returncode == 4

    def test_log_env_var_enables_info_logging(self, tmp_path):
        job = _write_job(
            tmp_path, "job.json", {"job": "verify-metric", "metric": "BF"}
        )
        proc = _run_cli(
            str(job),
            "--out",
            str(tmp_path / "out"),
            env_extra={"QHM_LOG": "info"},
        )
        assert proc.returncode == 0
        assert proc.stderr.strip() != ""
