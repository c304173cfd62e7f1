"""Run one ``cluster-deform`` command with a span around each layer call.

Usage: python perfbench/traced_cli.py SPANS_FILE CASE_ID -- CLI_ARGS...

Every public module-level function of the package, plus
``SemigroupData.contains``, is wrapped before the command runs, and each
wrapper is rebound in every module that imported the name directly.  Spans
are kept in memory and written to SPANS_FILE as JSON when the command ends:
a list of [name, start, end, parent index, case id], times from
``time.perf_counter``.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("atlas", "cli", "cones", "cotangent", "deform", "gradings",
           "groebner", "intlinalg", "polynomials", "properties", "seeds",
           "simplicial", "universal")

# Hot leaf kernels: a span each would cost more than the work it times, so
# their time counts toward the caller's self time.
UNTRACED = {"intlinalg.vec_dot", "intlinalg.mat_vec", "intlinalg.mat_mul",
            "intlinalg.primitive", "polynomials.grlex_order"}

METHODS = (("properties", "SemigroupData", "contains"),)


class Recorder:
    def __init__(self, case_id):
        self.case_id = case_id
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack, case_id = self.spans, self.stack, self.case_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, case_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def install(recorder):
    """Wrap the public functions of every module and rebind the wrappers."""
    modules = {m: importlib.import_module("clusterdeform." + m)
               for m in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, value in vars(mod).items():
            name = "%s.%s" % (short, attr)
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__ or name in UNTRACED):
                continue
            wrappers[value] = recorder.wrap(name, value)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, meth, recorder.wrap(
            "%s.%s.%s" % (short, cls_name, meth), getattr(cls, meth)))
    return modules["cli"]


def main(argv):
    spans_file, case_id, sep = argv[:3]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE CASE_ID -- ARGS")
    recorder = Recorder(case_id)
    cli = install(recorder)
    try:
        code = cli.main(argv[3:])
    finally:
        with open(spans_file, "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
