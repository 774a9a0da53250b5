"""Verdict benchmark for covgraphs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one closed-loop client: the
next task starts only after the previous one has finished.  A task turns
pre-generated inputs into verdicts through the public API; each verdict is
compared with an answer known independently of the code under test.  The
fixed task list of a workload (one "pass", at least 100 tasks) is repeated
a fixed number of times, at least twice: as many passes as take about
--seconds at the reference speed (NOMINAL_PASS_S).

Times are reported at a reference host speed.  On a shared virtual machine
the CPU runs at 1x to 2x its fastest time, changing within seconds and
staying for seconds to minutes; user time grows with wall time, so it is
the host, not waiting.  A fixed yardstick (a little interpreter-bound and
LAPACK-bound work that does not touch covgraphs) therefore runs before
every task, once after the last, and every YARDSTICK_PERIOD_S during a
task; the time spent in it inside a task is not counted as the task's.  A
task's latency is scaled by YARDSTICK_REF_S over the yardstick's typical
time during it, or, for a task too short to be sampled YARDSTICK_WINDOW
times, around it.  A task's latency is then the fastest of its scaled
repetitions in the run.  The yardstick's own time and the unscaled figures
are printed for people.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same untraced
passes, then one traced pass, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Lines before it are for people: versions, sample counts and the verdict
digest of the workload (equal digests mean equal verdicts).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from functools import partial  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "classical-alphabet": "classical_alphabet",
    "quantum-factors": "quantum_factors",
    "coding-pipeline": "coding_pipeline",
    "cli-bundles": "cli_bundles",
}
# Wall seconds of one pass, yardsticks included, at the reference speed.
NOMINAL_PASS_S = {
    "classical-alphabet": 13.0,
    "quantum-factors": 4.5,
    "coding-pipeline": 10.0,
    "cli-bundles": 9.5,
}
ALL_RUNGS = (
    "n4", "n16", "n64", "code",
    "d2", "d4", "d6", "m123",
    "oa11", "oa2", "oa22", "oa3", "qsrc",
    "demo", "bundle-n4", "bundle-n8", "bundle-n16", "bundle-q2",
)
LAYERS = ("linalg", "groups", "systems", "cpmaps", "relations", "graphs",
          "scc", "classical", "bundle", "cli")
NAMED = (
    "linalg.support_projection", "linalg.orthonormal_span", "linalg.canonical_eigh",
    "linalg.as_complex",
    "groups.AlgebraAction.__eq__", "groups.is_covariant_cp",
    "systems.System.__eq__", "systems.ssfa_defects",
    "cpmaps.apply", "cpmaps.compose", "cpmaps.to_kraus", "cpmaps.from_kraus",
    "cpmaps.is_channel", "cpmaps._hom_defects", "cpmaps.is_star_homomorphism",
    "relations.support_of", "relations.compose", "relations.partial_function_flags",
    "graphs.confusability_of", "graphs.is_reversible", "graphs.reverse_channel",
    "graphs.realize_channel", "graphs.is_homomorphism",
    "scc.source_from_graph", "scc.source_confusability_graph", "scc._composite",
    "scc.encoding_is_valid", "scc.decoder_for", "scc.verify_scheme", "scc.tensor_cp",
    "bundle.load_bundle", "bundle.dump_channel",
    "cli.main",
)
KERNELS = ("eigh", "eigvalsh", "svd")
SETUP_REPEATS = 5
# Yardstick time on the reference host (2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4, one OpenBLAS thread), a little above its median in quiet
# stretches; scaled times read as if every yardstick had taken this long.
YARDSTICK_REF_S = 3.0e-3
# Fewest yardstick samples that a task is scaled by.
YARDSTICK_WINDOW = 6
# Period of the yardstick samples taken during a task.
YARDSTICK_PERIOD_S = 0.025
# Yardstick repetitions around each set-up, median taken.
YARDSTICK_SETUP = 5
COLD_IMPORTS = 5
# p90 needs at least 10 samples beyond it.
MIN_TASKS = 100
MIN_PASSES = 2


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "fraction"
    for name in NAMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for k in KERNELS:
        units[f"numpy.{k}.calls"] = "count"
        units[f"numpy.{k}.max_n"] = "dim"
        units[f"numpy.{k}.flop_est"] = "flop"
    for rung in ALL_RUNGS:
        units[f"rung.{rung}.verdict_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    units["cli.cold_import_ms"] = "ms"
    units["wrong_verdicts"] = "count"
    units["failed_frac"] = "fraction"
    return units


END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "top_rung_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _plain(v):
    """Verdict as plain JSON data (numpy scalars and tuples normalized)."""
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if hasattr(v, "item"):
        return v.item()
    return v


class Yardstick:
    """Fixed work independent of covgraphs whose time tracks the host's
    speed.  Its mix resembles the library's own, in two halves of about
    equal time: interpreter-bound work (a JSON round trip, sorting and
    dictionary updates, small numpy kernels and array reshuffles) and
    LAPACK-bound work (eigh and QR of a 64x64 complex matrix).  Under
    contention the two kinds slow by different factors, and the tasks range
    from one kind to the other; scaled by one half alone, the tasks of the
    other kind spread more from run to run.  Besides running between tasks,
    it samples the speed during a task: while `sampling()` is active,
    SIGALRM runs it every YARDSTICK_PERIOD_S of wall time (between bytecodes
    of the task), and the time it takes there is not counted as the task's.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.text = json.dumps({f"k{i}": {"v": rng.standard_normal(4).tolist(), "s": "x" * (i % 7),
                                          "n": i} for i in range(40)})
        self.small = rng.standard_normal((4, 4))
        self.mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.herm = self.mat @ self.mat.conj().T
        self.big = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.big_herm = self.big + self.big.conj().T
        self.np = np
        self.inside = None
        # Installed for good: restoring the default action could let a late
        # SIGALRM end the process.
        signal.signal(signal.SIGALRM, self._on_alarm)

    def once(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        doc = json.loads(self.text)
        acc = {}
        for _, v in sorted(doc.items(), key=lambda kv: (len(kv[1]["s"]), kv[0])):
            slot = (v["n"] % 5, len(v["s"]))
            acc[slot] = acc.get(slot, 0.0) + sum(v["v"])
        json.dumps(sorted(acc.items()))
        for _ in range(3):
            k = np.kron(self.small, self.small[:2, :2])
            np.einsum("ij,jk->ik", k, k.T)
            q, r = np.linalg.qr(self.mat)
            np.linalg.eigh(self.herm)
            np.allclose(q @ r, self.mat)
            b = self.mat.reshape(2, 4, 2, 4).transpose(1, 0, 3, 2).reshape(8, 8)
            np.linalg.svd(b[:6, :6])
        np.linalg.eigh(self.big_herm)
        np.linalg.qr(self.big)
        return time.perf_counter() - t0

    def median(self, repeats: int) -> float:
        return statistics.median(self.once() for _ in range(repeats))

    def _on_alarm(self, signum, frame):
        if self.inside is not None:
            self.inside.append(self.once())

    @contextlib.contextmanager
    def sampling(self):
        self.inside = inside = []
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_PERIOD_S, YARDSTICK_PERIOD_S)
        try:
            yield inside
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.inside = None


def typical(sticks) -> float:
    """Mean yardstick time without the slowest tenth (an interrupt only ever
    makes one slower)."""
    xs = sorted(sticks)
    return statistics.fmean(xs[:max(1, len(xs) * 9 // 10)])


class Pass:
    """Latencies and verdicts of one run over the fixed task list."""

    def __init__(self):
        self.latency = []    # seconds, per task, in task order
        self.scaled = []     # latency at the reference host speed
        self.stick = []      # yardstick seconds: before every task, then after the last
        self.inside = []     # per task, yardstick seconds sampled during it
        self.verdicts = []   # plain verdicts, None when the task raised
        self.failed = []     # raised or disagreed with the expected answer
        self.wrong = 0

    @property
    def wall(self) -> float:
        return sum(self.latency)


def run_pass(tasks, tracer=None, stick=None) -> Pass:
    out = Pass()
    for task in tasks:
        if stick is not None:
            out.stick.append(stick.once())
        inside = []
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("task"):
                    verdict = task.run()
            elif stick is not None:
                with stick.sampling() as inside:
                    verdict = task.run()
            else:
                verdict = task.run()
        except Exception as exc:  # a failed task is counted, not fatal
            out.latency.append(time.perf_counter() - t0 - sum(inside))
            out.verdicts.append(None)
            out.failed.append(True)
            print(f"task {task.tid} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            out.latency.append(time.perf_counter() - t0 - sum(inside))
            verdict = _plain(verdict)
            wrong = verdict != _plain(task.expected)
            out.verdicts.append(verdict)
            out.failed.append(wrong)
            if wrong:
                out.wrong += 1
                print(f"task {task.tid} verdict {verdict} != expected "
                      f"{_plain(task.expected)}", file=sys.stderr)
        finally:
            out.inside.append(inside)
            if tracer is not None:
                tracer.fold()
    if stick is not None:
        out.stick.append(stick.once())
        # A task is scaled by the yardstick during it; a short one, which
        # the timer did not reach often enough, by the nearest ones.
        half = YARDSTICK_WINDOW // 2
        for i, lat in enumerate(out.latency):
            near = out.inside[i] if len(out.inside[i]) >= YARDSTICK_WINDOW \
                else out.stick[max(0, i + 1 - half):i + 1 + half]
            out.scaled.append(lat * YARDSTICK_REF_S / typical(near))
    return out


def pass_count(workload: str, seconds: float) -> int:
    """Passes that take about `seconds` at the reference speed.  The count
    depends on nothing measured, so every run of a workload at one
    --seconds repeats its tasks equally often, whatever the host's speed:
    the fastest of n repetitions is lower the larger n is."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def best_latency(passes, scaled=True) -> list:
    """Per task, in task order, the fastest of its repetitions."""
    return [min(lat) for lat in zip(*((p.scaled if scaled else p.latency) for p in passes))]


def verdict_digest(tasks, p: Pass) -> str:
    doc = json.dumps(sorted([t.tid, v] for t, v in zip(tasks, p.verdicts)), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def end_to_end(tasks, passes, top_rung, setup_s) -> dict:
    best = best_latency(passes)
    bad = [any(f) for f in zip(*(p.failed for p in passes))]
    ok = [x for x, b in zip(best, bad) if not b]
    # Quantiles over passing tasks; over all tasks if (almost) none passed.
    lat = ok if len(ok) >= 2 else best
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "verdicts_per_s": len(ok) / sum(best),
        "verdict_p50_ms": 1e3 * statistics.median(lat),
        "verdict_p90_ms": 1e3 * deciles[8],
        "top_rung_s": sum(x for t, x in zip(tasks, best) if t.rung == top_rung),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def cold_import_ms() -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times = []
    for _ in range(COLD_IMPORTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import covgraphs"], env=env, check=True,
                       cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def per_layer(tasks, passes, traced: Pass, tracer) -> dict:
    totals = tracer.totals()
    traced_wall = traced.wall
    out = {}
    for layer in LAYERS:
        calls = sum(c for n, (c, _) in totals.items() if n.split(".")[0] == layer)
        own = sum(s for n, (_, s) in totals.items() if n.split(".")[0] == layer)
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
        out[f"{layer}.self_share"] = own / traced_wall
    for name in NAMED:
        calls, own = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    for k in KERNELS:
        stats = tracer.kernels[k]
        out[f"numpy.{k}.calls"] = stats["calls"]
        out[f"numpy.{k}.max_n"] = stats["max_n"]
        out[f"numpy.{k}.flop_est"] = stats["flop_est"]
    best = best_latency(passes)
    for rung in ALL_RUNGS:
        lat = [x for t, x in zip(tasks, best) if t.rung == rung]
        # 0 marks a rung that belongs to another workload.
        out[f"rung.{rung}.verdict_ms"] = 1e3 * statistics.median(lat) if lat else 0.0
    out["trace.overhead_ratio"] = traced_wall / statistics.median(p.wall for p in passes)
    out["cli.cold_import_ms"] = cold_import_ms()
    return out


def blas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import covgraphs

    if not os.path.abspath(covgraphs.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"covgraphs imported from {covgraphs.__file__}, not from {ROOT}/src")
    module = importlib.import_module(WORKLOADS[args.workload])
    stick = Yardstick(np)
    stick.median(YARDSTICK_SETUP)  # warm-up

    def scaled_seconds(work) -> float:
        """Wall time of work() at the reference speed, judged by yardsticks
        just before and just after it."""
        before = stick.median(YARDSTICK_SETUP)
        t0 = time.perf_counter()
        out = work()
        took = time.perf_counter() - t0
        return took * 2 * YARDSTICK_REF_S / (before + stick.median(YARDSTICK_SETUP)), out

    # Import time of a fresh interpreter (numpy and covgraphs come with the
    # workload module); one import in this process would be a single sample.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    import_cmd = [sys.executable, "-c", f"import {WORKLOADS[args.workload]}"]
    import_times = [scaled_seconds(partial(subprocess.run, import_cmd, env=env, check=True, cwd=ROOT,
                                           stdout=subprocess.DEVNULL))[0]
                    for _ in range(SETUP_REPEATS)]

    def build_and_warm():
        tasks = module.build(np.random.default_rng(args.seed), workdir=workdir, root=ROOT)
        warm = {}
        for task in tasks:
            if task.rung != module.TOP_RUNG:
                warm.setdefault(task.rung, task)
        run_pass(list(warm.values()))
        return tasks

    # Bundles and CLI outputs stay inside the checkout.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        build_times = []
        for _ in range(SETUP_REPEATS):
            took, tasks = scaled_seconds(build_and_warm)
            build_times.append(took)
        if len(tasks) < MIN_TASKS:
            raise SystemExit(f"{args.workload} has {len(tasks)} tasks, fewer than {MIN_TASKS}")
        setup_s = statistics.median(import_times) + statistics.median(build_times)

        # Interleave the rungs, so that the tasks around p50 and p90 run at
        # moments spread over the pass rather than in one stretch of it.
        random.Random(args.seed).shuffle(tasks)
        passes = [run_pass(tasks, stick=stick)
                  for _ in range(pass_count(args.workload, args.seconds))]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(LAYERS, KERNELS)
            with tracer.installed():
                traced = run_pass(tasks, tracer)
            metrics = per_layer(tasks, passes, traced, tracer)
            units = per_layer_units()
            every = passes + [traced]
        else:
            metrics = end_to_end(tasks, passes, module.TOP_RUNG, setup_s)
            units = END_TO_END_UNITS
            every = passes

    attempted = sum(len(p.failed) for p in every)
    failed = sum(sum(p.failed) for p in every)
    wrong = sum(p.wrong for p in every)
    if args.trace:
        metrics["wrong_verdicts"] = wrong
        metrics["failed_frac"] = failed / attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"python {platform.python_version()} numpy {np.__version__} blas {blas_version(np)} "
          f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"tasks/pass {len(tasks)} passes {len(every)} attempted {attempted} "
          f"failed {failed} wrong_verdicts {wrong} failed_frac {failed / attempted:.4g} "
          f"latency_samples {len(tasks)} (best of {len(passes)} untraced passes)")
    print(f"verdict_digest {args.workload} {verdict_digest(tasks, passes[0])}")
    print(f"setup_s = median of imports {[round(x, 4) for x in import_times]} s "
          f"+ median of builds {[round(x, 4) for x in build_times]} s (scaled)")
    raw = best_latency(passes, scaled=False)
    sticks = [x for p in passes for x in p.stick]
    print(f"yardstick median {1e3 * statistics.median(sticks):.4f} ms over {len(sticks)} "
          f"(reference {1e3 * YARDSTICK_REF_S:g} ms); unscaled p50 "
          f"{1e3 * statistics.median(raw):.4g} ms, unscaled pass "
          f"{sum(raw):.4g} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
