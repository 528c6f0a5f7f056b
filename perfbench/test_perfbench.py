"""Tests of the benchmark itself: generator, outcome table, spans, percentiles."""
from __future__ import annotations

import contextlib
import io
import json

import pytest

import spans
import workloads as wl


def _texts(jobs):
    return [(j.job_id, j.variant, j.text) for j in jobs]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _texts(wl.make_pass(workload, 7, 2))
    assert first == _texts(wl.make_pass(workload, 7, 2))
    assert first != _texts(wl.make_pass(workload, 8, 2))
    assert first != _texts(wl.make_pass(workload, 7, 3))
    assert _texts(wl.tol_ladder_jobs(7)) == _texts(wl.tol_ladder_jobs(7))
    small = [next(wl.small_jobs(7)) for _ in range(2)]
    assert _texts(small[:1]) == _texts(small[1:])


ERROR_CLASSES = {"ConfigError", "NumericGuardError"}


def test_expected_table_covers_every_kind_and_error_class():
    job_kinds = pytest.importorskip("qhm.jobs").JOB_KINDS
    kinds = {variant.split("/")[0] for variant in wl.EXPECTED}
    assert set(job_kinds) <= kinds
    outcomes = {e["outcome"] for e in wl.EXPECTED.values()}
    assert {"PASS", "FAIL"} | ERROR_CLASSES == outcomes
    assert set(wl.BATCH_QUOTAS) == set(wl.EXPECTED)


def test_batch_pass_mix_is_fixed():
    job_kinds = pytest.importorskip("qhm.jobs").JOB_KINDS
    jobs = wl.make_pass("batch-small", 3, 0)
    assert len(jobs) == sum(wl.BATCH_QUOTAS.values())
    assert {json.loads(j.text)["job"] for j in jobs} == set(job_kinds)
    assert {j.expect["outcome"] for j in jobs} == {"PASS", "FAIL"} | ERROR_CLASSES


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent, None)
    s.end = end
    return s


def test_self_time_subtracts_union_of_children():
    synthetic = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),   # overlaps a: covered union is [1, 6]
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_nesting_with_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("jobs.run_job")        # t=0
    inner = tracer.begin("verify.spectrum")     # t=1
    tracer.finish(inner)                        # t=2
    tracer.finish(outer, error=True)            # t=3
    assert [s.parent for s in tracer.spans] == [-1, 0]
    table = spans.layer_table(tracer.spans)
    assert table["jobs.run_job"] == {"self_s": 2.0, "calls": 1, "errors": 1}
    assert table["verify.spectrum"] == {"self_s": 1.0, "calls": 1, "errors": 0}


def test_p90_refuses_fewer_than_ten_samples_beyond():
    assert spans.percentile(range(99), 0.9) is None
    assert spans.percentile(range(100), 0.9) == pytest.approx(89.1)
    assert spans.percentile(range(1000), 0.5) == pytest.approx(499.5)


def test_interquartile_mean_ignores_outer_quarters():
    assert spans.interquartile_mean([0.1, 0.2, 0.2, 0.3, 0.3, 9.0, -9.0, 0.25]) == pytest.approx(0.2375)
    assert spans.interquartile_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


def test_fingerprint_tolerance():
    stored = {"outcome": "PASS", "ratio": 948.877, "unexplained": 1.5e-14}
    close = dict(stored, ratio=948.877 * (1 + 1e-12), unexplained=3e-14)
    assert wl.compare_fingerprint("j", stored, close) == []
    moved = dict(stored, ratio=948.877 * (1 + 1e-6))
    assert len(wl.compare_fingerprint("j", stored, moved)) == 1


def _one_job_per_kind():
    rng = wl._rng("test")
    variants = [v for v in wl.EXPECTED if not v.startswith("config/")]
    return [wl.Job(v, v, wl._small_config(v, rng, 129)) for v in variants]


def _run_all(jobs_module, jobs):
    docs = []
    for job in jobs:
        try:
            doc = jobs_module.run_job(jobs_module.parse_config(job.text))
        except Exception as exc:  # noqa: BLE001 - the class is the outcome
            docs.append(type(exc).__name__)
            continue
        doc.pop("timings")
        docs.append(json.dumps(doc, sort_keys=True))
    return docs


def test_wrappers_leave_results_bit_identical(tmp_path):
    qhm_jobs = pytest.importorskip("qhm.jobs")
    import qhm.cli

    jobs = _one_job_per_kind()
    plain = _run_all(qhm_jobs, jobs)
    originals = {n: getattr(qhm_jobs, n) for n in ("parse_config", "run_job")}
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = _run_all(qhm_jobs, jobs)
        job_file = tmp_path / "job.json"
        job_file.write_text(jobs[0].text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert qhm.cli.main([str(job_file), "--out", str(tmp_path)]) == 0
    assert traced == plain
    assert {s.name for s in tracer.spans} == set(spans.SPAN_NAMES)
    assert {n: getattr(qhm_jobs, n) for n in originals} == originals

    marker = object()
    wrapped = spans._wrap(spans.Tracer(), "x", lambda: marker, None)
    assert wrapped() is marker


def test_benchmark_json_names_match_the_runner():
    import pathlib

    import run

    bench = json.loads((pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.UNITS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.UNITS.values())
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
