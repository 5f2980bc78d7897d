"""Span recorder for the benchmark's traced run.

    python perfbench/tracer.py SPANS.jsonl <digar argv...>

Installs timing wrappers around public functions at each module boundary
of the `digar` package, in the namespace where their callers look them
up, then runs `digar.cli.main(argv)` in this process and exits with its
status.  Spans stay in memory, each with the id of the span open when it
began, and are written to SPANS.jsonl as JSON lines at exit; the first
line lists the wrapped names that no longer exist.  Nothing in the
package is modified on disk and no result byte changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module where the name is looked up, name).  Everything `digar.cli`
# calls in other modules; the generator and stream factory of the batch
# route; the KS distance; and each module's binding of variance_sequence.
TARGETS = [
    *(("digar.cli", n) for n in (
        "validate_params", "vbar_limit", "stationary_sd", "variance_sequence",
        "dependence_profile", "simulate_path", "infeasible_estimate",
        "run_consistency_experiment", "run_clt_experiment", "empirical_acf_experiment",
        "vbar_curve", "bias_curve",
    )),
    ("digar.experiments", "iter_path_blocks"),
    ("digar.experiments", "ks_distance"),
    ("digar.experiments", "variance_sequence"),
    ("digar.simulation", "normal_stream"),
    ("digar.simulation", "variance_sequence"),
    ("digar.dependence", "variance_sequence"),
]


class Recorder:
    """In-memory spans: [id, parent id, name, start, end, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._open[-1] if self._open else None, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._open.append(span[0])
        span[3] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._open.pop()

    def dump(self, path: str, absent: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": absent}) + "\n")
            for sid, parent, name, t0, t1, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "t0": t0, "t1": t1}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")


def _wrap(rec: Recorder, fn, name: str):
    if fn.__name__ == "iter_path_blocks":

        @functools.wraps(fn)
        def blocks(*args, **kwargs):
            # One span per block: the time the consumer waits in next().
            it = fn(*args, **kwargs)
            while True:
                span = rec.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.end(span)
                y = item[1]
                span[5] = {"rows": int(y.shape[0]), "T": int(y.shape[1]) - 1}
                yield item

        return blocks

    @functools.wraps(fn)
    def call(*args, **kwargs):
        span = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)
            if fn.__name__ == "variance_sequence":
                span[5] = {"steps": int(args[1] if len(args) > 1 else kwargs["T"])}

    return call


def install(rec: Recorder) -> list[str]:
    """Wrap every present target; return the absent ones as 'module.name'."""
    absent = []
    for mod_name, attr in TARGETS:
        try:
            module = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(f"{mod_name}.{attr}")
            continue
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(module, attr, _wrap(rec, fn, f"{layer}.{fn.__name__}"))
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import digar.cli

    rec = Recorder()
    absent = install(rec)
    span = rec.begin("cli.main")
    try:
        return digar.cli.main(cli_argv)
    finally:
        rec.end(span)
        rec.dump(spans_path, absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
