"""Run one lietrace CLI invocation in this process with per-layer spans.

Usage: python3 perfbench/trace_child.py ARGV...

The harness (run.py) starts this script in a fresh interpreter with
PYTHONPATH pointing at the checkout's src/. It imports lietrace, wraps the
entry points listed in TARGETS from outside (no file under src/ is
touched), calls lietrace.cli.main(ARGV) with stdout captured, and prints one
JSON object:

    {"rc", "stdout", "lietrace_file", "import_s", "layers", "edges", "missing"}

"layers" maps a layer name to its counters. A call count counts only the
outermost call of a layer on its thread, so recursion (iota_enc) is one
call. Times are inclusive except "self_s", which excludes the time of
traced child spans. Spans are kept per thread because table8 --threads
runs c_alpha on pool threads. A target that cannot be found is reported in
"missing" with the reason; it is never counted as zero work.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
import threading
import time
from contextlib import redirect_stdout

# (layer, module, attribute path, hook). Only entry points are wrapped:
# per-entry helpers such as tangent._necklace_enc (about 257k calls in
# table8 --kmax 9) or exactlin._as_int (about 3M calls in h1 at n=14) would
# be dominated by the wrapper's own cost.
TARGETS = (
    ("tangent.ad_block", "lietrace.tangent", "AdSolver.block", "builds"),
    ("tangent.ad_solve", "lietrace.tangent", "_AdBlock.solve", None),
    ("tangent.trace_row", "lietrace.tangent", "trace_row_enc", None),
    ("exactlin.span_insert", "lietrace.exactlin", "IncrementalSpan.insert", "accepted"),
    ("exactlin.span_contains", "lietrace.exactlin", "IncrementalSpan.contains", None),
    ("exactlin.kernel_basis", "lietrace.exactlin", "kernel_basis", None),
    ("exactlin.snf", "lietrace.exactlin", "smith_normal_form", "cells"),
    ("exactlin.hnf", "lietrace.exactlin", "hermite_row_reduce", None),
    ("grouppres.parse", "lietrace.grouppres", "parse_presentation", None),
    ("grouppres.validate", "lietrace.grouppres", "LatticeAction.validate", None),
    ("grouppres.action_inverse", "lietrace.grouppres", "LatticeAction.inverse", None),
    ("grouppres.fox_matrix", "lietrace.grouppres", "cocycle_condition_matrix", None),
    ("grouppres.z1_basis", "lietrace.grouppres", "z1_basis", None),
    ("grouppres.abelianization", "lietrace.grouppres", "abelianization", None),
    ("freelie.iota_enc", "lietrace.freelie", "iota_enc", None),
    ("freelie.ad_enc", "lietrace.freelie", "ad_enc", None),
    ("words.necklaces_of_content", "lietrace._words", "necklaces_of_content", None),
    ("words.lyndon_words", "lietrace._words", "lyndon_words", None),
    ("johnson.image", "lietrace.johnson", "johnson_image", "top_k"),
    ("johnson.c_alpha", "lietrace.johnson", "c_alpha", None),
    ("johnson.check_T0530", "lietrace.johnson", "check_T0530", None),
    ("johnson.coker_structure", "lietrace.johnson", "coker_structure", None),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _pre_builds(args, kwargs):
    blocks = getattr(args[0], "blocks", None)
    return len(blocks) if isinstance(blocks, dict) else None


def _post_builds(tracer, rec, before, args, kwargs, result, dur):
    if before is None:
        tracer.missing["tangent.ad_block.builds"] = "AdSolver instances have no blocks dict"
    elif len(args[0].blocks) > before:
        rec["builds"] = rec.get("builds", 0) + 1
        rec["build_s"] = rec.get("build_s", 0.0) + dur


def _post_accepted(tracer, rec, before, args, kwargs, result, dur):
    if result is True:
        rec["accepted"] = rec.get("accepted", 0) + 1


def _post_cells(tracer, rec, before, args, kwargs, result, dur):
    rows = list(_arg(args, kwargs, 0, "rows") or ())
    ncols = _arg(args, kwargs, 1, "ncols")
    if ncols is None:
        ncols = max(
            (len(r) if isinstance(r, (list, tuple)) else max(r, default=-1) + 1 for r in rows),
            default=0,
        )
    rec["max_cells"] = max(rec.get("max_cells", 0), len(rows) * ncols)


def _post_top_k(tracer, rec, before, args, kwargs, result, dur):
    k = _arg(args, kwargs, 1, "k")
    if k > rec.get("top_k", 0):
        rec["top_k"], rec["top_k_s"] = k, dur
    elif k == rec["top_k"]:
        rec["top_k_s"] += dur


HOOKS = {
    None: (None, None),
    "builds": (_pre_builds, _post_builds),
    "accepted": (None, _post_accepted),
    "cells": (None, _post_cells),
    "top_k": (None, _post_top_k),
}


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open spans of this thread: [layer, child seconds]
        self.active = set()
        self.recs = None


class Tracer:
    def __init__(self):
        self._state = _ThreadState()
        self._thread_recs = []  # one {layer: counters} dict per thread
        self._lock = threading.Lock()
        self.edges = set()  # (parent layer or None, child layer)
        self.missing = {}

    def _recs(self):
        st = self._state
        if st.recs is None:
            st.recs = {}
            with self._lock:
                self._thread_recs.append(st.recs)
        return st.recs

    def wrap(self, layer, fn, pre=None, post=None):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer in state.active:
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre else None
            parent = state.stack[-1] if state.stack else None
            frame = [layer, 0.0]
            state.stack.append(frame)
            state.active.add(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                state.stack.pop()
                state.active.discard(layer)
                if parent is not None:
                    parent[1] += dur
                rec = self._recs().setdefault(
                    layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0}
                )
                rec["calls"] += 1
                rec["s"] += dur
                rec["self_s"] += dur - frame[1]
                rec["max_s"] = max(rec["max_s"], dur)
                self.edges.add((parent[0] if parent else None, layer))
            if post:
                post(self, rec, token, args, kwargs, result, dur)
            return result

        return traced

    def layers(self):
        """Counters of every layer, merged over threads."""
        out = {}
        with self._lock:
            per_thread = list(self._thread_recs)
        for recs in per_thread:
            for layer, rec in recs.items():
                merge_layer(out.setdefault(layer, {}), rec)
        return out


def merge_layer(into, rec):
    """Add one layer's counters into another's (threads, invocations)."""
    for key, val in rec.items():
        if key in ("max_s", "max_cells"):
            into[key] = max(into.get(key, 0), val)
        elif key == "top_k":
            if val > into.get("top_k", 0):
                into["top_k"], into["top_k_s"] = val, rec["top_k_s"]
            elif val == into["top_k"]:
                into["top_k_s"] += rec["top_k_s"]
        elif key != "top_k_s":
            into[key] = into.get(key, 0) + val


def install(tracer, modules, targets=TARGETS):
    """Wrap every target in place and record the ones that cannot be found.

    A module-level function is replaced in every module that binds it, so
    from-imports (johnson's trace_row_enc, lietrace's re-exports) are traced
    too; a method is replaced on its class.
    """
    for layer, modname, path, hook in targets:
        mod = modules.get(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = inspect.getattr_static(owner, attr, None) if owner is not None else None
        if not inspect.isfunction(fn):
            tracer.missing[layer] = f"{modname} has no function {path}"
            continue
        wrapped = tracer.wrap(layer, fn, *HOOKS[hook])
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for m in modules.values():
            for name, val in list(vars(m).items()):
                if val is fn:
                    setattr(m, name, wrapped)


def main(argv):
    t0 = time.perf_counter()
    import lietrace.cli

    import_s = time.perf_counter() - t0
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lietrace" or name.startswith("lietrace."))
    }
    tracer = Tracer()
    install(tracer, modules)
    captured = io.StringIO()
    with redirect_stdout(captured):
        rc = lietrace.cli.main(argv)
    json.dump(
        {
            "rc": rc,
            "stdout": captured.getvalue(),
            "lietrace_file": lietrace.__file__,
            "import_s": import_s,
            "layers": tracer.layers(),
            "edges": sorted(tracer.edges, key=lambda e: (e[0] or "", e[1])),
            "missing": tracer.missing,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
