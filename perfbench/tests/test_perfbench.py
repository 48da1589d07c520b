"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gf  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

with open(run.GOLDENS) as _f:
    GOLDENS = json.load(_f)


def _passing_stderr(req):
    return "verification at n=%s: PASS" % req["check"].get("verify_at")


def _golden_requests():
    for workload in WORKLOADS:
        for req in requests_for(workload, run.DEFAULT_SEED):
            yield workload, req, GOLDENS[workload][json.dumps(req["argv"])]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_the_same_argv_lists(workload):
    for seed in (0, 1, 17):
        assert requests_for(workload, seed) == requests_for(workload, seed)
    lists = {json.dumps([r["argv"] for r in requests_for(workload, s)]) for s in range(5)}
    assert len(lists) == 5


def test_seeds_keep_the_expensive_requests():
    """Seeds vary cheap parts only: the census and engine requests stay."""
    for workload in ("classify", "generic"):
        fixed = None
        for seed in range(4):
            argvs = {json.dumps(r["argv"]) for r in requests_for(workload, seed)
                     if r["argv"][0] in ("census", "generic-product") and
                     "--verify-at" not in r["argv"]}
            fixed = argvs if fixed is None else fixed
            assert argvs == fixed


def test_goldens_pass_their_checks():
    for _, req, stdout in _golden_requests():
        assert checks.check(req, stdout, _passing_stderr(req), stdout) is None, req["argv"]


def _corruptions(stdout):
    """Bump the last integer; drop the last line; drop the first line."""
    nums = list(re.finditer(r"\d+", stdout))
    last = nums[-1]
    yield stdout[:last.start()] + str(int(last.group()) + 1) + stdout[last.end():]
    lines = stdout.rstrip("\n").split("\n")
    if len(lines) > 1:
        yield "\n".join(lines[:-1]) + "\n"
        yield "\n".join(lines[1:]) + "\n"


def test_each_checker_rejects_corrupted_stdout():
    kinds = set()
    for _, req, stdout in _golden_requests():
        kinds.add(req["check"]["kind"])
        for bad in _corruptions(stdout):
            assert checks.check(req, bad, _passing_stderr(req)) is not None, (req["argv"], bad)
    assert kinds == set(checks.CHECKS)


def test_golden_mismatch_fails_even_when_the_check_passes():
    _, req, stdout = next(_golden_requests())
    assert checks.check(req, stdout + "\n", _passing_stderr(req), stdout) is not None


def test_missing_pass_line_fails():
    for workload, req, stdout in _golden_requests():
        if req["check"].get("verify_at"):
            assert checks.check(req, stdout, "verification at n=2: FAIL") is not None


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_report_prints_every_end_to_end_metric_one_row_per_workload():
    results = {w: {"attempted": 10, "failed": 1, "metrics": {
        name: {"value": 1.5, "unit": unit} for name, unit in run.END_TO_END}}
        for w in WORKLOADS}
    lines = run.format_table(results).split("\n")
    header = lines[0]
    for name, unit in run.END_TO_END:
        assert "%s (%s)" % (name, unit) in header
    assert "fail_ratio" in header and "requests" in header
    assert [line.split()[0] for line in lines[1:]] == list(WORKLOADS)
    assert all(" 0.100 " in line for line in lines[1:])


def test_reference_process_prints_its_fixed_output():
    assert reference.reference_work() == reference.REFERENCE_OUTPUT
    assert run.run_reference() > 0


def test_end_to_end_scales_times_to_the_reference_speed():
    def res(wall, rss):
        return {"wall": wall, "cpu": wall / 2, "setup": wall / 4, "rss_mb": rss}

    samples = [[res(1.0, 10.0), res(3.0, 12.0), res(2.0, 11.0)], [res(4.0, 20.0)], [None]]
    refs = [run.REF_SECONDS * 2] * 3  # the machine runs at half the reference speed
    m = {k: v["value"] for k, v in run.end_to_end(samples, refs).items()}
    assert m == {"wall_s": 3.0, "cpu_s": 1.5, "setup_s": 0.75, "req_max_s": 2.0,
                 "peak_rss_mb": 20.0}


def test_runs_go_round_the_list_within_the_seconds():
    reqs = [r for r in requests_for("classify", 0) if r["argv"][0] == "type"][:2]
    samples, failures, refs = run.run_requests(reqs, "plain", float("inf"), {}, seconds=2.0)
    assert failures == [] and len(refs) >= 2
    assert all(len(runs) >= 1 for runs in samples) and len(samples[0]) > 1


def test_degree1_is_compared_with_a_class_product_that_runs_after_it():
    import workloads
    deg = workloads.degree1_projection(5, 2, 3, 3)
    deg["check"]["same_as"] = 1
    for b, fails in ((3, False), (4, True)):
        reqs = [deg, workloads.class_product(5, 3, 2, b)]
        _, failures, _ = run.run_requests(reqs, "plain", float("inf"), {})
        assert [i for i, _ in failures] == ([0] if fails else [])


@pytest.mark.parametrize("q", [2, 4, 5, 8, 9, 16, 25, 27])
def test_own_field_matches_the_cli_encoding(q):
    from glfq import fields
    G = gf.GF(q)
    F = fields.make_field(G.p, G.e)
    assert G.modulus == F.modulus
    for a in range(q):
        assert G.elem_str(a) == F.elem_str(a)
        assert G.elem_parse(G.elem_str(a)) == a
        for b in range(q):
            assert G.mul(a, b) == F.mul(a, b) and G.add(a, b) == F.add(a, b)


def test_type_queries_are_conjugated_jordan_matrices():
    from glfq import conjtype, fields
    for req in requests_for("classify", 3):
        if req["argv"][0] != "type":
            continue
        q, mat = req["check"]["q"], req["argv"][-1]
        G = gf.GF(q)
        F = fields.make_field(G.p, G.e)
        M = tuple(tuple(G.elem_parse(x) for x in row.split(",")) for row in mat.split(";"))
        got = conjtype.type_of(F, M)
        assert {P: part.parts for P, part in got.entries} == checks._type(req["check"]["mu"])


def test_class_sizes_sum_to_the_group_order():
    from glfq import conjtype, fields
    for q, n in ((2, 3), (3, 2), (4, 2)):
        F = fields.make_field(*gf._prime_power(q))
        total = 0
        for mu in conjtype.enumerate_polypartitions(F, n):
            total += gf.class_size(q, {P: part.parts for P, part in mu.entries})
        assert total == gf.gl_order(q, n)


def test_tracer_reports_absent_names_instead_of_failing():
    linalg = types.ModuleType("glfq.linalg")

    def rank(ctx, A):
        return len(A)

    rank.__module__ = "glfq.linalg"
    linalg.rank = rank
    tracer = Tracer()
    tracer.install({"linalg": linalg})
    assert "linalg.mat_mul" in tracer.absent and "fields.make_field" in tracer.absent
    assert linalg.rank(None, [1, 2]) == 2
    assert tracer.summary()["linalg.rank"][0] == 1


def test_traced_request_records_spans_and_counts():
    res = run.run_request(["type", "--q", "5", "--mat", "0,2;1,2"], "trace", 60)
    assert res["code"] == 0 and res["stdout"].strip() == "{X^2+3*X+3:(1)}"
    spans = res["trace"]["spans"]
    assert spans["conjtype.type_of"][0] == 1 and spans["cli.main"][0] == 1
    assert res["trace"]["counts"]["fields.elem_ops"] > 0
    assert res["trace"]["absent"] == []
    assert 0 < res["setup"] < res["wall"]


def test_request_timeout_kills_and_fails():
    res = run.run_request(["census", "--q", "3", "--n", "3"], "plain", 0.5)
    assert res["timed_out"] and res["code"] != 0 and res["wall"] < 5


def test_exits_nonzero_without_glfq_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
