"""wfcoalg benchmark: time to verdict of CLI calls on seeded documents.

    python3 perfbench/run.py --workload deep|wide|search|all --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs the workload's job list,
in its own seeded order, through ``wfcoalg.cli.main`` in one fresh
process, one call after another (one client, closed loop), and every
verdict is checked against the answer key.  With --trace 0 passes repeat
for S seconds, the last one cut off then, and the last stdout line
carries the end-to-end metrics; with --trace 1, untraced and traced whole
passes alternate within S seconds and it carries the per-layer metrics.
See perfbench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PER_PASS = 2  # set-up-only processes before each pass, to spread the samples
DEADLINE_S = 170  # one workload's run, generation and checks included


class WrongVerdict(Exception):
    pass


def git_sha():
    """The commit of a git checkout, read without running git; None elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Run:
    def __init__(self, workload, seed, workdir, started):
        self.jobs = WORKLOADS[workload](seed)
        self.workdir = workdir
        self.started = started
        specs = []
        for i, job in enumerate(self.jobs):
            argv = list(job.argv)
            if job.doc is not None:
                path = workdir / f"job{i:03d}.txt"
                path.write_text(job.doc, encoding="utf-8")
                argv.append(str(path.relative_to(ROOT)))
            specs.append([job.id, argv, job.keep_text])
        self.specs = specs
        self.outcomes = None
        self.orders = random.Random(f"{workload}-order-{seed}")

    def worker(self, mode, stop_at=None):
        """Run one worker process; a pass takes the jobs in a fresh seeded order.

        Jobs of like cost sit together in the job list, so in list order the
        jobs near the median would all be timed within a few seconds of each
        pass.  Shuffled, every quantile is timed across the whole pass.  With
        ``stop_at`` (a ``time.time()`` value) the worker starts no job after
        it, and the jobs it did not reach have ``None`` as their result.
        """
        order = list(range(len(self.specs)))
        if mode != "setup":
            self.orders.shuffle(order)
        spec = {"mode": mode, "jobs": [self.specs[i] for i in order], "stop_at": stop_at,
                "spans": str(self.workdir / "spans.json")}
        path = self.workdir / f"{mode}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0")
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("out of time before a worker could start")
        done = subprocess.run([sys.executable, "-m", "perfbench.worker", str(path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
        if done.returncode != 0:
            raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        if "jobs" in result:
            result["complete"] = len(result["jobs"]) == len(order)
            jobs = [None] * len(order)
            for i, job in zip(order, result["jobs"]):
                jobs[i] = job
            result["jobs"] = jobs
        return result

    def check(self, results):
        """Classify each job's outcome; raise WrongVerdict on a disagreement.

        Jobs a cut-off pass did not reach keep the outcome of earlier passes.
        """
        outcomes = []
        for j, (job, result) in enumerate(zip(self.jobs, results)):
            if result is None:
                outcomes.append(self.outcomes[j])
                continue
            _, code, exc, sha, text = result
            if exc is not None:
                outcomes.append("failed" if exc == job.known_raise else "failed-unexpected")
            elif code == 3 and job.undecided_ok:
                outcomes.append("undecided")
            elif code == 2:
                outcomes.append("failed-unexpected")
            elif any(code == want and (check(text) if callable(check) else check == sha)
                     for want, check in job.expect):
                outcomes.append("ok")
            else:
                shown = text if text is not None else "(output not kept)"
                raise WrongVerdict(f"job {job.id}: exit {code} is not in the answer key; "
                                   f"output starts {shown[:300]!r}")
        for job, outcome, result in zip(self.jobs, outcomes, results):
            if outcome == "failed-unexpected" and result is not None:
                print(f"warning: job {job.id} failed outside the known defects",
                      file=sys.stderr)
        if self.outcomes is not None and outcomes != self.outcomes:
            raise WrongVerdict("two passes over the same jobs gave different outcomes")
        self.outcomes = outcomes


def passes(run, seconds, trace):
    """Run passes for ``seconds``; return each mode's results and the set-up times.

    Untraced, passes repeat until ``seconds`` are up and the last one is cut
    off then, so every run times the same span of the shared machine, whose
    speed drifts.  The first pass is always whole, so every job is timed
    and checked.  Traced, untraced and traced passes alternate while the
    next whole pass ends within ``seconds``: call counts need whole passes.
    The set-up times come from every process the untraced run started,
    which spread over the whole run.
    """
    modes = ["pass", "trace"] if trace else ["pass"]
    done = {m: [] for m in modes}
    took = {}  # mode -> duration of its last pass
    setups = []
    begin = time.monotonic()
    stop_at = time.time() + seconds
    i = 0
    while True:
        mode = modes[i % len(modes)]
        t = time.monotonic()
        if not trace:
            setups += [run.worker("setup")["setup_s"] for _ in range(SETUP_PER_PASS)]
        result = run.worker(mode, None if trace or i == 0 else stop_at)
        run.check(result["jobs"])
        done[mode].append(result)
        setups.append(result["setup_s"])
        took[mode] = time.monotonic() - t
        i += 1
        if not trace:
            if time.time() >= stop_at:
                return done, setups
            continue
        upcoming = took.get(modes[i % len(modes)], took[mode])
        if i >= len(modes) and time.monotonic() - begin + upcoming > seconds:
            return done, setups


def job_times(results):
    """Each job's upper-quartile time over the passes that reached it.

    The host's neighbours keep it busy most of the time; quiet spells, in
    which every call runs up to a third faster, come and go over tens of
    seconds.  The median of a job's few passes lands in or out of such a
    spell by chance, the upper quartile reads the usual, busy speed.
    """
    out = []
    for jobs in zip(*(r["jobs"] for r in results)):
        times = [job[0] for job in jobs if job is not None]
        out.append(statistics.quantiles(times, n=4, method="inclusive")[2]
                   if len(times) > 1 else times[0])
    return out


def end_to_end(run, setups, results):
    per_job = job_times(results)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_job), "s"),
        "verdict_p50_ms": (statistics.median(per_job) * 1000, "ms"),
        "verdict_p90_ms": (statistics.quantiles(per_job, n=10, method="inclusive")[8] * 1000,
                           "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results if r["complete"]),
                        "MB"),
    }


def ratios(run):
    n = len(run.outcomes)
    failed = sum(o.startswith("failed") for o in run.outcomes)
    return {"failed_ratio": (failed / n, "ratio"),
            "undecided_ratio": (run.outcomes.count("undecided") / n, "ratio")}


def per_layer(run, untraced, traced):
    """Per-layer calls and self time of a traced pass, with derived ratios."""
    def total(result, layer, field):
        return sum(job.get(layer, (0, 0.0, 0.0))[field] for job in result["layers"].values())

    def fact(result, name):
        return sum(job.get(name, 0) for job in result["facts"].values())

    first = traced[0]
    out = {}
    for layer in tracer.LAYERS:
        counts = {total(r, layer, 0) for r in traced}
        if len(counts) != 1:
            print(f"warning: {layer} calls differ between traced passes: {sorted(counts)}",
                  file=sys.stderr)
        out[f"{layer}.calls"] = (total(first, layer, 0), "count")
        out[f"{layer}.self_s"] = (statistics.median(total(r, layer, 1) for r in traced), "s")
    states = sum(job.states for job in run.jobs)
    parse_s = statistics.median(total(r, "textform.parse_spec", 2) for r in traced)
    candidates = fact(first, "recursion.find_homs.candidates")
    oracles = total(first, "recursion.oracle", 0)
    out.update({
        "textform.lines_per_s": (fact(first, "textform.lines") / parse_s if parse_s else 0.0,
                                 "1/s"),
        "functor.check_value.per_state": (total(first, "functor.check_value", 0) / states,
                                          "calls/state"),
        "functor.support.per_state": (total(first, "functor.support", 0) / states,
                                      "calls/state"),
        "functor.eval_obj.values": (fact(first, "functor.eval_obj.values"), "count"),
        "wellfounded.wf_part.rounds": (fact(first, "wellfounded.wf_part.rounds"), "count"),
        "recursion.find_homs.candidates": (candidates, "count"),
        "recursion.find_homs.hit_ratio": (
            fact(first, "recursion.find_homs.found") / candidates if candidates else 0.0,
            "ratio"),
        "recursion.oracle.tables": (fact(first, "recursion.oracle.tables"), "computed"),
        "recursion.oracle.complete_ratio": (
            fact(first, "recursion.oracle.decided") / oracles if oracles else 0.0, "ratio"),
        "recursion.initial_chain.stages": (fact(first, "recursion.initial_chain.stages"),
                                           "count"),
        "trace.overhead_ratio": (sum(job_times(traced)) / sum(job_times(untraced)),
                                 "ratio"),
    })
    out.update(ratios(run))
    return out


def by_command(run, traced):
    """Counts per state and per job for each command of a traced pass."""
    rows = {}
    for job, spec in zip(run.jobs, run.specs):
        argv = spec[1]
        cmd = " ".join(argv[:2]) if argv[0] == "demo" else argv[0]
        layers = traced["layers"][job.id]
        row = rows.setdefault(cmd, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += job.states
        row[2] += layers.get("functor.support", [0])[0]
        row[3] += layers.get("functor.check_value", [0])[0]
        row[4] += layers.get("coalgebra.canonical_graph", [0])[0]
    lines = ["  command: jobs, support/state, check_value/state, canonical_graph/job"]
    for cmd, (jobs, states, support, check, graphs) in sorted(rows.items()):
        states = states or float("nan")
        lines.append(f"  {cmd}: {jobs}, {support / states:.2f}, {check / states:.2f}, "
                     f"{graphs / jobs:.2f}")
    return lines


def measure(workload, seed, seconds, trace):
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, workdir, time.monotonic())
        run.worker("setup")  # compiles the byte code; not measured
        done, setups = passes(run, seconds, trace)
        if trace:
            metrics = per_layer(run, done["pass"], done["trace"])
            shutil.copy(workdir / "spans.json", out_dir / f"spans-{workload}-{seed}.json")
        else:
            metrics = end_to_end(run, setups, done["pass"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    shown = metrics if trace else {**metrics, **ratios(run)}
    calls = [[job is not None for job in r["jobs"]] for results in done.values() for r in results]
    record = {"workload": workload, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
              "python": platform.python_version(), "git_sha": git_sha(),
              "jobs": len(run.jobs), "passes": {m: len(r) for m, r in done.items()},
              "metrics": shown,
              "calls": sum(map(sum, calls)),
              "job_times_s": {job.id: [r["jobs"][j][0] for r in done["pass"]
                                       if r["jobs"][j] is not None]
                              for j, job in enumerate(run.jobs)},
              "outcomes": dict(zip((job.id for job in run.jobs), run.outcomes))}
    (out_dir / f"run-{workload}-{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(f"{workload} seed {seed}: {len(run.jobs)} jobs, {record['calls']} calls in "
          f"{record['passes']} passes; "
          f"nproc {record['nproc']}, python {record['python']}, git {record['git_sha']}")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    if trace:
        print("\n".join(by_command(run, done["trace"][0])))
    unexpected = sum(made and outcome == "failed-unexpected"
                     for called in calls for made, outcome in zip(called, run.outcomes))
    return metrics, record["calls"], unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wfcoalg" / "cli.py").is_file():
        print(f"no wfcoalg sources under {ROOT / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f = measure(name, args.seed, args.seconds, args.trace)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    except WrongVerdict as wrong:
        print(f"wrong verdict: {wrong}", file=sys.stderr)
        correct = False
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
