"""One repetition of a workload, in a fresh interpreter.

    python3 benchmarks/worker.py <workload> <inputs-dir> <trace 0|1> <passes>

Times set-up, from this script's first lines to `disputekit.cli` imported,
then one in-process call of the workload's command through
`disputekit.cli.main`: `run` on the scenario, or for `audit` the batch of
`verify` calls repeated `passes` times. Both times are also given at the
reference speed of the host (`pace.py`); the call is paced only when it is
not traced, so that spans hold none of the pacer's work. Prints one JSON
line: the timings, the host's speed, the peak RSS of this process, the exit
codes, and the SHA-256 of what the command produced. With tracing on, it
also writes the spans to `trace.json` in the inputs directory and adds the
per-layer metrics to the line.
"""
from __future__ import annotations

from time import perf_counter

import pace

# set-up is paced from here; this file is only ever run as a script
_SETUP_PACER = pace.Pacer()
_SETUP_PACER.start()
_INTERPRETER_READY = perf_counter()

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    workload, inputs, trace, passes = argv[0], Path(argv[1]), argv[2] == "1", int(argv[3])
    from disputekit.cli import main as cli_main

    setup_wall_s = perf_counter() - _INTERPRETER_READY
    _SETUP_PACER.stop()
    if workload == "audit":
        batch = json.loads((inputs / "oracle.json").read_text())["batch"] * passes
        calls = [["verify", str(inputs / item["transcript"]), str(inputs / item["commitment"])]
                 for item in batch]
    else:
        calls = [["run", str(inputs / "scenario.json"), "--out", str(inputs / "report.json")]]

    tracer = None
    if trace:
        from tracing import LATENCY_OPS, Tracer

        tracer = Tracer()
        tracer.install()
    pacer = None if trace else pace.Pacer()
    captured = io.StringIO()
    codes = []
    if pacer is not None:
        pacer.start()
    start = perf_counter()
    with contextlib.redirect_stdout(captured):
        for call in calls:
            codes.append(cli_main(call))
    wall_s = perf_counter() - start
    if pacer is not None:
        pacer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    if workload == "audit":
        output = captured.getvalue().encode()
    else:
        output = (inputs / "report.json").read_bytes()
    sample = {
        "setup_s": _SETUP_PACER.scaled(setup_wall_s),
        "setup_wall_s": setup_wall_s - _SETUP_PACER.handler_s,
        "run_s": wall_s if pacer is None else pacer.scaled(wall_s),
        "wall_s": wall_s if pacer is None else wall_s - pacer.handler_s,
        "speed": None if pacer is None else pacer.speed(),
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "lines": captured.getvalue().splitlines(),
        "sha256": hashlib.sha256(output).hexdigest(),
    }
    if tracer is not None:
        sample["layers"] = tracer.metrics()
        sample["latency_samples"] = {op: len(tracer.latencies(op)) for op in LATENCY_OPS}
        (inputs / "trace.json").write_text(json.dumps(
            {"metrics": sample["layers"], "spans": tracer.span_records()}))
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
