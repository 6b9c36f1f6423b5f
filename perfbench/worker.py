"""One fresh process: set-up time, then optionally one pass over a job list.

Usage: python3 -m perfbench.worker SPEC.json, from the root of a checkout.
SPEC holds the mode ("setup", "pass" or "trace"), the jobs as
[id, argv, keep_text] and "stop_at", a time.time() after which no job
starts (null: run them all).  Prints one JSON object on its last stdout line.
"""

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_mb():
    """This process's peak resident set.

    On Linux a spawned child's ru_maxrss starts at its parent's resident
    set, so the kernel's high-water mark of this address space is read
    instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(spec):
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import wfcoalg.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"wfcoalg imported from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        return result

    tracer = None
    if spec["mode"] == "trace":
        from perfbench import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = []
    for jid, argv, keep in spec["jobs"]:
        if spec.get("stop_at") is not None and time.time() >= spec["stop_at"]:
            break
        gc.collect()
        if tracer is not None:
            tracer.start_job(jid)
        out = io.StringIO()
        code = exc = None
        start = time.perf_counter()
        try:
            code = cli.main(argv, out=out)
        except Exception as error:  # a defect of the program; the parent counts it
            exc = type(error).__name__
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        jobs.append([elapsed, code, exc, hashlib.sha256(text.encode()).hexdigest(),
                     text if keep else None])
    result["jobs"] = jobs
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.jobs
        result["facts"] = tracer.facts
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "layers": tracer.jobs}, fh)
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        print(json.dumps(run(json.load(fh))))
