"""The glfq benchmark: seeded lists of CLI requests, one process each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seconds S]     # table, all workloads
    python3 perfbench/run.py --record-goldens           # rewrite goldens.json

A batch user of glfq pays for every request in its own process: interpreter
start, imports, field construction, and module memos that start empty.  One
client sends a workload's requests one at a time (a closed loop with one
client) and waits for each; every output is checked (checks.py).  With
--trace 0 the list runs once and then goes on round the list while the next
request fits in --seconds; each request counts with its medians over its
repetitions, and the end-to-end metrics sum them over the list (the largest
for req_max_s and peak_rss_mb).  With --trace 1 the list runs once plain and
once with every request traced (tracer.py), and the per-layer metrics,
summed over the requests, are reported.  The last line of stdout is one JSON object.

The end-to-end times are reported at a fixed machine speed.  A shared VM
runs the same process 20-40% slower in phases that last from seconds to
minutes, longer than a run, so no statistic over one run's own requests
removes them.  Between requests the client therefore runs reference.py, a
process with fixed work that shares no code with glfq (one before the list
and one per started REF_EVERY seconds of each request, so a long request is
followed by as many), and scales the run's times by REF_SECONDS over the
mean wall time of all its reference processes: a time is in seconds at the
speed where the reference takes REF_SECONDS.  A change to glfq moves the
scaled times as it moves raw ones; the raw values and the speed factor are
printed on stderr.

Exit status: 0 when the run completed (failed requests are counted in the
result), 2 when the checkout has no glfq sources or the arguments are bad.
"""

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check, same_coefficients  # noqa: E402
from child import MARKER  # noqa: E402
from reference import REFERENCE_OUTPUT  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

DEFAULT_SEED = 0
REQUEST_TIMEOUT = 60.0  # seconds; a request that hits it is killed and failed
RUN_DEADLINE = 150.0  # no request starts or runs past this many seconds
REFERENCE = os.path.join(HERE, "reference.py")
# The speed times are reported at (see the module docstring): about what the
# reference takes on a 2-vCPU Intel Xeon 2.0 GHz VM most of the time.
REF_SECONDS = 0.25
REF_EVERY = 1.0  # seconds of request wall time per reference process
GOLDENS = os.path.join(HERE, "goldens.json")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("req_max_s", "s"), ("peak_rss_mb", "MB"))

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = (
    ("fields.make_field_s", _S), ("fields.calls", _N), ("fields.self_s", _S),
    ("fields.elem_ops", _N), ("fields.factor.self_s", _S),
    ("linalg.calls", _N), ("linalg.self_s", _S), ("linalg.mat_mul.calls", _N),
    ("linalg.mat_mul.self_s", _S), ("linalg.rref.calls", _N),
    ("linalg.rref.self_s", _S), ("linalg.charpoly.self_s", _S),
    ("linalg.apply_poly.self_s", _S), ("linalg.inverse.calls", _N),
    ("conjtype.calls", _N), ("conjtype.self_s", _S), ("conjtype.type_of.calls", _N),
    ("conjtype.type_of.self_s", _S), ("conjtype.type_of.us_per_call", "us"),
    ("conjtype.type_of.per_element", _R), ("conjtype.enumerate_gl.elements", _N),
    ("conjtype.class_orbit.elements", _N), ("conjtype.class_orbit.self_s", _S),
    ("subspaces.calls", _N), ("subspaces.self_s", _S),
    ("subspaces.enumerate_subspaces.self_s", _S),
    ("subspaces.enumerate_completions.self_s", _S),
    ("subspaces.reduce_against.calls", _N), ("subspaces.containing_yield", _R),
    ("subspaces.containing_candidates", _N),
    ("partial_iso.calls", _N), ("partial_iso.self_s", _S),
    ("partial_iso.product.calls", _N), ("partial_iso.basis_product.calls", _N),
    ("partial_iso.basis_product.self_s", _S), ("partial_iso.product_cache.hit_ratio", _R),
    ("partial_iso.trivial_extensions.self_s", _S), ("partial_iso.canonical_piso.calls", _N),
    ("partial_iso.canonical_piso.self_s", _S), ("partial_iso.all_pisos.self_s", _S),
    ("partial_iso.invariant_product.total_s", _S),
    ("partial_iso.invariant_product.orbits_share", _R),
    ("center.calls", _N), ("center.self_s", _S), ("center.fh_polynomials.calls", _N),
    ("center.fh_polynomials.total_s", _S), ("center.fh_polynomials.per_request", _R),
    ("center.fh_polynomials.requests", _N),
    ("center.generic_S.total_s", _S), ("center.padding_profiles.self_s", _S),
    ("center.transport.self_s", _S), ("center.completed_product.total_s", _S),
    ("degree1.calls", _N), ("degree1.self_s", _S), ("degree1.project_degree1.total_s", _S),
    ("ranklaw.calls", _N), ("ranklaw.self_s", _S), ("cli.calls", _N), ("cli.self_s", _S),
    ("trace.overhead", _R),
)


# -- one request --------------------------------------------------------------

def _env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


def run_request(argv, mode, timeout):
    """Spawn child.py for one request, wait for it and account its own
    resource use with wait4 (RUSAGE_CHILDREN would merge the peaks)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), mode] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=_env())
    out = {}
    readers = [threading.Thread(target=lambda k, f: out.__setitem__(k, f.read()),
                                args=(k, f)) for k, f in (("stdout", proc.stdout),
                                                          ("stderr", proc.stderr))]
    for r in readers:
        r.start()
    lock, state = threading.Lock(), {"done": False, "timed_out": False}

    def kill():
        with lock:
            if not state["done"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # wait without reaping, so that the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:  # interrupted or terminated: take the request down too
        timer.cancel()
        kill()
        raise
    wall = time.monotonic() - t0
    with lock:
        state["done"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    stderr, report = out["stderr"].decode(errors="replace"), {}
    head, sep, tail = stderr.rpartition(MARKER)
    if sep:
        line, _, rest = tail.partition("\n")
        stderr = head.rstrip("\n") + rest
        try:
            report = json.loads(line)
        except ValueError:  # cut short by the timeout kill
            pass
    ready = report.get("ready", report.get("main"))
    return {
        "argv": argv, "code": proc.returncode, "timed_out": state["timed_out"],
        "stdout": out["stdout"].decode(errors="replace"), "stderr": stderr,
        "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
        "setup": ready - t0 if ready is not None else wall,
        "rss_mb": usage.ru_maxrss / 1024.0, "trace": report.get("trace"),
    }


def run_reference():
    """Wall seconds of one reference process; its output is checked."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, REFERENCE], capture_output=True, text=True,
                         cwd=ROOT, env=_env(), timeout=REQUEST_TIMEOUT)
    wall = time.monotonic() - t0
    if out.returncode != 0 or out.stdout.strip() != REFERENCE_OUTPUT:
        raise RuntimeError("reference process failed: %r %s" % (out.stdout, out.stderr))
    return wall


def _failure(reqs, i, res, samples, goldens):
    """Why request i's result fails, or None."""
    if res is None:
        return "not run: run deadline reached"
    if res["timed_out"]:
        return "timed out"
    if res["code"] != 0:
        return "exit code %d: %s" % (res["code"], res["stderr"].strip()[-200:])
    req = reqs[i]
    why = check(req, res["stdout"], res["stderr"], goldens.get(json.dumps(req["argv"])))
    other = req["check"].get("same_as")
    if why is None and other is not None and samples[other][0] is not None and \
            not same_coefficients(req, res["stdout"], samples[other][0]["stdout"]):
        why = "differs from " + reqs[other]["argv"][0]
    return why


def run_requests(reqs, mode, deadline, goldens, seconds=None):
    """Run the request list once; with seconds, run reference processes
    between the requests and go on round the list while the next request
    and its reference processes are expected to end within seconds of the
    start.  Returns (samples, failures, reference wall seconds), where
    samples[i] lists the results of request i (None: not run)."""
    samples, refs = [[] for _ in reqs], []
    start = time.monotonic()
    if seconds is not None:
        refs.append(run_reference())
    for k in itertools.count():
        i = k % len(reqs)
        if k >= len(reqs):
            last = samples[i][-1]
            if seconds is None or last is None:
                break
            expected = last["wall"] + math.ceil(last["wall"] / REF_EVERY) * statistics.fmean(refs)
            if time.monotonic() - start + expected > seconds:
                break
        left = deadline - time.monotonic()
        res = run_request(reqs[i]["argv"], mode, min(REQUEST_TIMEOUT, left)) \
            if left > 1.0 else None
        samples[i].append(res)
        if seconds is not None and res is not None:
            refs.extend(run_reference() for _ in range(math.ceil(res["wall"] / REF_EVERY)))
    failures = [(i, why) for i, runs in enumerate(samples) for res in runs
                for why in [_failure(reqs, i, res, samples, goldens)] if why]
    return samples, failures, refs


def list_wall(results):
    return sum(r["wall"] for r in results if r is not None)


# -- metrics --------------------------------------------------------------------

def end_to_end(samples, refs):
    """The list's values from the per-request medians over the run's
    repetitions, the times scaled to the reference speed over the run."""
    speed = REF_SECONDS / statistics.fmean(refs)
    per_req = [{key: statistics.median(r[key] for r in runs if r is not None)
                for key in ("wall", "cpu", "setup", "rss_mb")}
               for runs in samples if any(r is not None for r in runs)]
    raw = {
        "wall_s": sum(r["wall"] for r in per_req),
        "cpu_s": sum(r["cpu"] for r in per_req),
        "setup_s": sum(r["setup"] for r in per_req),
        "req_max_s": max((r["wall"] for r in per_req), default=0.0),
        "peak_rss_mb": max((r["rss_mb"] for r in per_req), default=0.0),
    }
    print("raw: %s; speed factor %.4f over %d reference processes" % (
        ", ".join("%s %.4f" % kv for kv in raw.items()), speed, len(refs)), file=sys.stderr)
    return {name: {"value": raw[name] * (1.0 if unit == "MB" else speed), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(reqs, results, plain_wall, traced_wall):
    """Per-layer values summed over the traced requests."""
    spans, counts, absent = {}, {}, set()
    for res in results:
        trace = res and res["trace"]
        if not trace:
            continue
        for name, (calls, self_s, total_s) in trace["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
        absent.update(trace["absent"])

    def span(name, i):
        return spans.get(name, (0, 0.0, 0.0))[i]

    def module(prefix, i):
        return sum(row[i] for name, row in spans.items() if name.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    calls, self_s, total_s = 0, 1, 2
    v = {}
    for mod in ("fields", "linalg", "conjtype", "subspaces", "partial_iso", "center",
                "degree1", "ranklaw", "cli"):
        v[mod + ".calls"] = module(mod + ".", calls)
        v[mod + ".self_s"] = module(mod + ".", self_s)
    v["fields.make_field_s"] = span("fields.make_field", total_s)
    v["fields.elem_ops"] = counts.get("fields.elem_ops", 0)
    v["fields.factor.self_s"] = span("fields.factor", self_s)
    for fn in ("mat_mul", "rref"):
        v["linalg.%s.calls" % fn] = span("linalg." + fn, calls)
        v["linalg.%s.self_s" % fn] = span("linalg." + fn, self_s)
    v["linalg.charpoly.self_s"] = span("linalg.charpoly", self_s)
    v["linalg.apply_poly.self_s"] = span("linalg.apply_poly", self_s)
    v["linalg.inverse.calls"] = span("linalg.inverse", calls)
    v["conjtype.type_of.calls"] = span("conjtype.type_of", calls)
    v["conjtype.type_of.self_s"] = span("conjtype.type_of", self_s)
    v["conjtype.type_of.us_per_call"] = 1e6 * ratio(span("conjtype.type_of", total_s),
                                                    span("conjtype.type_of", calls))
    v["conjtype.enumerate_gl.elements"] = counts.get("conjtype.enumerate_gl.elements", 0)
    v["conjtype.class_orbit.elements"] = counts.get("conjtype.class_orbit.elements", 0)
    v["conjtype.type_of.per_element"] = ratio(
        span("conjtype.type_of", calls),
        v["conjtype.enumerate_gl.elements"] + v["conjtype.class_orbit.elements"])
    v["conjtype.class_orbit.self_s"] = span("conjtype.class_orbit", self_s)
    v["subspaces.enumerate_subspaces.self_s"] = span("subspaces.enumerate_subspaces", self_s)
    v["subspaces.enumerate_completions.self_s"] = span("subspaces.enumerate_completions",
                                                       self_s)
    v["subspaces.reduce_against.calls"] = span("subspaces.reduce_against", calls)
    v["subspaces.containing_candidates"] = counts.get("subspaces.containing.candidates", 0)
    v["subspaces.containing_yield"] = ratio(counts.get("subspaces.containing.returned", 0),
                                            v["subspaces.containing_candidates"])
    bp_calls = span("partial_iso._basis_product", calls)
    hits = (bp_calls - counts.get("partial_iso.basis_product.uncached", 0)
            - counts.get("partial_iso.basis_product.misses", 0))
    v["partial_iso.product.calls"] = span("partial_iso.product", calls)
    v["partial_iso.basis_product.calls"] = bp_calls
    v["partial_iso.basis_product.self_s"] = span("partial_iso._basis_product", self_s)
    v["partial_iso.product_cache.hit_ratio"] = ratio(hits, bp_calls)
    v["partial_iso.trivial_extensions.self_s"] = module("partial_iso.trivial_extensions",
                                                        self_s)
    v["partial_iso.canonical_piso.calls"] = span("partial_iso.canonical_piso", calls)
    v["partial_iso.canonical_piso.self_s"] = span("partial_iso.canonical_piso", self_s)
    v["partial_iso.all_pisos.self_s"] = span("partial_iso.all_pisos", self_s)
    inv = span("partial_iso.invariant_product", total_s)
    v["partial_iso.invariant_product.total_s"] = inv
    v["partial_iso.invariant_product.orbits_share"] = ratio(
        span("partial_iso._invariant_product_orbits", total_s), inv)
    v["center.fh_polynomials.requests"] = sum(1 for r in reqs
                                              if r["argv"][0] == "generic-product")
    v["center.fh_polynomials.calls"] = span("center.fh_polynomials", calls)
    v["center.fh_polynomials.total_s"] = span("center.fh_polynomials", total_s)
    v["center.fh_polynomials.per_request"] = ratio(v["center.fh_polynomials.calls"],
                                                   v["center.fh_polynomials.requests"])
    v["center.generic_S.total_s"] = span("center.generic_S", total_s)
    v["center.padding_profiles.self_s"] = span("center._padding_profiles", self_s)
    v["center.transport.self_s"] = span("center.transport", self_s)
    v["center.completed_product.total_s"] = span("center.completed_product", total_s)
    v["degree1.project_degree1.total_s"] = span("degree1.project_degree1", total_s)
    v["trace.overhead"] = ratio(traced_wall, plain_wall)
    if absent:
        print("absent from glfq, reported as 0: %s" % ", ".join(sorted(absent)),
              file=sys.stderr)
    return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}


# -- running workloads --------------------------------------------------------

def load_goldens(workload):
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as f:
        return json.load(f).get(workload, {})


def warm_up():
    """Import glfq and the reference once so that byte-code compilation is
    not timed."""
    run_request(["--help"], "plain", REQUEST_TIMEOUT)
    run_reference()


def run_workload(workload, seed, seconds, trace, deadline):
    reqs = requests_for(workload, seed)
    goldens = load_goldens(workload)
    warm_up()
    if trace:
        plain, failures, _ = run_requests(reqs, "plain", deadline, goldens)
        traced, more, _ = run_requests(reqs, "trace", deadline, goldens)
        failures += more
        passes = 2
    else:
        samples, failures, refs = run_requests(reqs, "plain", deadline, goldens, seconds)
        passes = min(len(runs) for runs in samples)
    for i, why in failures:
        print("FAILED %s: %s" % (" ".join(reqs[i]["argv"])[:120], why), file=sys.stderr)
    if trace:
        attempted = 2 * len(reqs)
        traced = [runs[0] for runs in traced]
        metrics = per_layer(reqs, traced, list_wall(r[0] for r in plain), list_wall(traced))
    else:
        attempted = sum(len(runs) for runs in samples)
        metrics = end_to_end(samples, refs)
    print("%s seed=%d: %s of %d requests" % (
        workload, seed, "a plain and a traced pass" if trace else
        "%d requests in %d+ passes" % (attempted, passes), len(reqs)), file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def format_table(results):
    """One row per workload, one column per end-to-end metric (with its
    unit), plus fail_ratio with its base."""
    cols = ["workload", "requests", "fail_ratio"] + [
        "%s (%s)" % (name, unit) for name, unit in END_TO_END]
    rows = []
    for workload, res in results.items():
        rows.append([workload, str(res["attempted"]),
                     "%.3f" % (res["failed"] / res["attempted"])] +
                    ["%.4f" % res["metrics"][name]["value"] for name, _ in END_TO_END])
    widths = [max(len(r[i]) for r in [cols] + rows) for i in range(len(cols))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in [cols] + rows)


def record_goldens():
    goldens = {}
    for workload in WORKLOADS:
        reqs = requests_for(workload, DEFAULT_SEED)
        samples, failures, _ = run_requests(reqs, "plain", time.monotonic() + 600, {})
        if failures:
            sys.exit("not recording: %s fails %r" % (workload, failures))
        goldens[workload] = {json.dumps(r["argv"]): runs[0]["stdout"]
                             for r, runs in zip(reqs, samples)}
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload and print the end-to-end table")
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.exists(os.path.join(ROOT, "src", "glfq", "cli.py")):
        print("error: no glfq sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.record_goldens:
        record_goldens()
        return 0
    if args.report:
        results = {w: run_workload(w, args.seed, args.seconds, 0,
                                   time.monotonic() + RUN_DEADLINE) for w in WORKLOADS}
        print(format_table(results))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          time.monotonic() + RUN_DEADLINE)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
