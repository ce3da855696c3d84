"""Fresh-process CLI benchmark for lietrace on the paper's exact tables.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from anywhere; it measures the checkout it sits in. Every invocation
is `python -m lietrace.cli ...` in a fresh child process with
PYTHONPATH=<checkout>/src, so the runs stay cold on purpose: a CLI user pays
every cache fill on every call. The load is one closed-loop client: the next
invocation starts when the previous one has exited. A pass runs the
workload's invocations once, in order; passes repeat until --seconds have
elapsed (at least one pass). Every stdout is compared with an answer pinned
here from the paper's tables, the acceptance tests, the README or an
independent computation, never with a snapshot of today's output.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_cal_s   median pass wall time at nominal host speed; a failed
               invocation counts at its deadline. After each invocation, and
               before the first, a pass runs reference.py, a fixed program
               that never imports lietrace. Each invocation's wall time is
               scaled by REF_NOMINAL_S over the mean of the two reference
               times around it. On a shared host the speed of one process
               drifts by 15-30% over seconds to minutes; the reference
               drifts with it (see README.md).
  peak_rss_mb  largest max RSS of one successful invocation, from its own
               wait4 rusage (RUSAGE_CHILDREN would be a running maximum)
  setup_s      median wall time of a fresh `python -c "import lietrace.cli"`
The uncalibrated median pass wall time and the median reference time are
printed too. --trace 1 alternates an untimed plain pass and a traced pass
(each invocation run through trace_child.py) and reports the per-layer
metrics of BENCHMARK.json as medians over passes, among them cli.wall_s and
host.ref_s, the uncalibrated wall time and the reference time of the plain
passes. trace.overhead_ratio is the traced pass wall time over the plain one.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; error_rate = failed / attempted. The line before it records
lietrace.__file__, the git sha, the Python version and the core count. The
benchmark refuses to run (exit 2, no result) when lietrace does not resolve
to this checkout's src/.

Besides the workloads in BENCHMARK.json, `--workload coker_defect` runs
`coker --n 3 --k 7`, which does not finish today: smith_normal_form on the
90x30 block of content (2,3,2) grows entries past millions of bits. It is
kept out of the listed workloads because their every invocation must pass;
run it by name to see the defect and, once fixed, its cost.

--selftest runs every listed workload at a tiny size and checks metric names
and units against BENCHMARK.json, that a wrong answer counts as a failure,
that spans nest, that each workload's dominant layer records work and its
bypassed layers none, and that a missing wrap target is reported as missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Callable

from trace_child import Tracer, install, merge_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = SRC / "lietrace"

DEADLINE_S = 30.0  # about 8x the slowest listed invocation
# The reference program, timed after every untraced invocation to calibrate
# wall_cal_s; its wall time at nominal host speed (about what it takes on a
# 2-vCPU Xeon VM at 2.1 GHz) and its output.
REFERENCE = HERE / "reference.py"
REF_NOMINAL_S = 0.3
REF_CHECKSUM = "926084"
# fresh imports timed before each pass, and at least SETUP_MIN per run, so
# setup_s samples the same stretch of machine load as the passes do
SETUP_PER_PASS = 1
SETUP_MIN = 9

# --------------------------------------------------------------------------
# pinned answers

# image and trace-kernel dimensions at n = 3, k = 1..8 (paper; acceptance tests)
N3_IMAGE = (6, 6, 16, 36, 96, 231, 618, 1596)
N3_KERNEL = (6, 6, 16, 36, 96, 231, 624, 1635)

# (k, content) -> (c, r) of the repeated-letter contents (paper; acceptance tests)
TABLE_CR = {
    (5, (3, 2)): (2, 0),
    (6, (4, 2)): (2, 0),
    (6, (3, 3)): (3, 0),
    (6, (2, 2, 2)): (15, 1),
    (7, (5, 2)): (3, 0),
    (7, (4, 3)): (5, 0),
    (7, (3, 2, 2)): (30, 0),
    (8, (6, 2)): (2, -1),
    (8, (5, 3)): (6, -1),
    (8, (4, 4)): (7, -1),
    (8, (4, 2, 2)): (52, 1),
    (8, (3, 3, 2)): (69, -1),
    (8, (2, 2, 2, 2)): (316, 4),
    (9, (7, 2)): (4, 0),
    (9, (6, 3)): (9, 0),
    (9, (5, 4)): (14, 0),
    (9, (5, 2, 2)): (84, 0),
    (9, (4, 3, 2)): (140, 0),
    (9, (3, 3, 3)): (188, 2),
    (9, (3, 2, 2, 2)): (840, 0),
}

# free rank of twisted H^1 in the standard representation (acceptance
# criterion 9); the torsion is Z/n (README)
H1_FREE = {"bp": 2, "braid": 1, "sym": 0}

# integral trace cokernels (free rank, invariant factors), from an independent
# route: sympy invariant factors per content block
COKER = {
    (5, 6): (40, (6,) * 10 + (12,) * 10),
    (3, 7): (0, (2,) * 18 + (16,) * 6),
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    check: Callable[[str], bool]  # True iff stdout is the pinned answer
    deadline_s: float = DEADLINE_S


def exact(text):
    return lambda out: out == text


def _csv(rows):
    return "".join(",".join(str(c) for c in row) + "\n" for row in rows)


def _group(values):
    return "(" + " ".join(str(v) for v in values) + ")"


def _compositions(k, n):
    if n == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, n - 1):
            yield (first,) + rest


def t0530_check(n, k):
    """Exit-0 output must list every content with a letter of multiplicity 1
    as checked (True, positive kernel dim) and every other one as skipped."""
    contents = [c for c in _compositions(k, n) if sum(1 for x in c if x) >= 2]
    want_checked = {c for c in contents if 1 in c}
    want_skipped = set(contents) - want_checked

    def check(out):
        checked, skipped = set(), set()
        for line in out.splitlines():
            alpha, dim, status = line.rsplit(",", 2)
            content = tuple(int(x) for x in alpha.strip("()").split())
            if status == "True" and dim.isdigit() and int(dim) > 0:
                checked.add(content)
            elif status == "skipped" and dim == "-":
                skipped.add(content)
            else:
                return False
        rows = len(out.splitlines())
        return (checked, skipped) == (want_checked, want_skipped) and rows == len(contents)

    return check


def mccool_text(n, rng):
    """McCool's basis-conjugating presentation, generators renamed and
    relators shuffled by rng. Every relator is a commutator, so the
    abelianization is free of rank n(n-1)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    labels = rng.sample(range(10 * len(pairs)), len(pairs))
    name = {p: f"g{label}" for p, label in zip(pairs, labels)}

    def comm(x, y):
        return x + y + [(g, -e) for g, e in reversed(x)] + [(g, -e) for g, e in reversed(y)]

    def gen(i, j):
        return [(name[(i, j)], 1)]

    rels = []
    for i, j, k in permutations(range(1, n + 1), 3):
        if i < k:
            rels.append(comm(gen(i, j), gen(k, j)))
        rels.append(comm(gen(i, k), gen(i, j) + gen(k, j)))
    for (i, j), (k, l) in permutations(pairs, 2):
        if len({i, j, k, l}) == 4 and (i, j) < (k, l):
            rels.append(comm(gen(i, j), gen(k, l)))
    rng.shuffle(rels)
    lines = [" ".join(name[p] for p in pairs)]
    lines += [" ".join(g if e == 1 else f"{g}^-1" for g, e in rel) for rel in rels]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# workloads: name -> (seed, tiny, workdir) -> invocations of one pass


def n3_image(seed, tiny, workdir):
    kmax = 5 if tiny else 6
    rows = [(k, N3_IMAGE[k - 1], N3_KERNEL[k - 1]) for k in range(1, kmax + 1)]
    return [Invocation(("n3gap", "--kmax", str(kmax), "--format", "csv"), exact(_csv(rows)))]


def cr_table(seed, tiny, workdir):
    kmax = 7 if tiny else 8
    rows = [(k, _group(a), c, r) for (k, a), (c, r) in TABLE_CR.items() if k <= kmax]
    argv = ("table8", "--kmax", str(kmax), "--threads", "2", "--format", "csv")
    return [Invocation(argv, exact(_csv(rows)))]


def h1_growth(seed, tiny, workdir):
    n, m = (5, 5) if tiny else (9, 10)
    invs = [
        Invocation(
            ("h1", "--group", group, "--n", str(n), "--format", "csv"),
            exact(_csv([(free, _group([n]))])),
        )
        for group, free in H1_FREE.items()
    ]
    path = workdir / f"mccool-{m}-{seed}.txt"
    path.write_text(mccool_text(m, random.Random(seed)))
    invs.append(
        Invocation(
            ("abelianize", "--group", "file", "--file", str(path), "--format", "csv"),
            exact(_csv([(m * (m - 1), "()")])),
        )
    )
    return invs


def _coker(n, k, deadline_s=DEADLINE_S):
    free, torsion = COKER[(n, k)]
    return Invocation(
        ("coker", "--n", str(n), "--k", str(k), "--format", "csv"),
        exact(_csv([(free, _group(torsion))])),
        deadline_s,
    )


def kernel_coker(seed, tiny, workdir):
    k = 5 if tiny else 6
    return [
        Invocation(("t0530", "--n", "3", "--k", str(k), "--format", "csv"), t0530_check(3, k)),
        _coker(5, 6),
    ]


def coker_defect(seed, tiny, workdir):
    return [_coker(3, 7, deadline_s=20.0)]


WORKLOADS = {
    "n3_image": n3_image,
    "cr_table": cr_table,
    "h1_growth": h1_growth,
    "kernel_coker": kernel_coker,
    "coker_defect": coker_defect,
}

# --------------------------------------------------------------------------
# per-layer metrics: name -> (unit, layer, counter) read from trace_child.py
# layer records; counters absent from a present layer's record are 0

LAYER_METRICS = {
    "tangent.ad_block.calls": ("count", "tangent.ad_block", "calls"),
    "tangent.ad_block.builds": ("count", "tangent.ad_block", "builds"),
    "tangent.ad_block.build_s": ("s", "tangent.ad_block", "build_s"),
    "tangent.ad_solve.calls": ("count", "tangent.ad_solve", "calls"),
    "tangent.ad_solve.s": ("s", "tangent.ad_solve", "s"),
    "exactlin.span_insert.calls": ("count", "exactlin.span_insert", "calls"),
    "exactlin.span_insert.accepted": ("count", "exactlin.span_insert", "accepted"),
    "exactlin.span_insert.s": ("s", "exactlin.span_insert", "s"),
    "exactlin.span_contains.calls": ("count", "exactlin.span_contains", "calls"),
    "exactlin.span_contains.s": ("s", "exactlin.span_contains", "s"),
    "exactlin.kernel_basis.calls": ("count", "exactlin.kernel_basis", "calls"),
    "exactlin.kernel_basis.s": ("s", "exactlin.kernel_basis", "s"),
    "exactlin.snf.calls": ("count", "exactlin.snf", "calls"),
    "exactlin.snf.s": ("s", "exactlin.snf", "s"),
    "exactlin.snf.max_cells": ("count", "exactlin.snf", "max_cells"),
    "exactlin.hnf.calls": ("count", "exactlin.hnf", "calls"),
    "exactlin.hnf.s": ("s", "exactlin.hnf", "s"),
    "grouppres.validate.s": ("s", "grouppres.validate", "s"),
    "grouppres.fox_matrix.s": ("s", "grouppres.fox_matrix", "s"),
    "grouppres.action_inverse.calls": ("count", "grouppres.action_inverse", "calls"),
    "grouppres.z1_basis.s": ("s", "grouppres.z1_basis", "s"),
    "grouppres.abelianization.s": ("s", "grouppres.abelianization", "s"),
    "grouppres.parse.s": ("s", "grouppres.parse", "s"),
    "tangent.trace_row.calls": ("count", "tangent.trace_row", "calls"),
    "tangent.trace_row.s": ("s", "tangent.trace_row", "s"),
    "freelie.iota_enc.calls": ("count", "freelie.iota_enc", "calls"),
    "freelie.iota_enc.s": ("s", "freelie.iota_enc", "s"),
    "freelie.ad_enc.calls": ("count", "freelie.ad_enc", "calls"),
    "freelie.ad_enc.s": ("s", "freelie.ad_enc", "s"),
    "words.necklaces_of_content.calls": ("count", "words.necklaces_of_content", "calls"),
    "words.necklaces_of_content.s": ("s", "words.necklaces_of_content", "s"),
    "words.lyndon_words.s": ("s", "words.lyndon_words", "s"),
    "johnson.image.s": ("s", "johnson.image", "s"),
    "johnson.image.top_k.s": ("s", "johnson.image", "top_k_s"),
    "johnson.c_alpha.calls": ("count", "johnson.c_alpha", "calls"),
    "johnson.c_alpha.s": ("s", "johnson.c_alpha", "s"),
    "johnson.c_alpha.max_s": ("s", "johnson.c_alpha", "max_s"),
    "johnson.check_T0530.s": ("s", "johnson.check_T0530", "s"),
    "johnson.coker_structure.s": ("s", "johnson.coker_structure", "s"),
}
# computed from the records above or from the plain passes
DERIVED_METRICS = {
    "exactlin.span_insert.accept_ratio": "ratio",
    "johnson.self_s": "s",
    "cli.ops": "count",
    "cli.ops_failed": "count",
    "cli.cpu_s": "s",
    "cli.cpu_per_wall": "ratio",
    "cli.wall_s": "s",
    "host.ref_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

# --------------------------------------------------------------------------
# child processes


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Child:
    rc: int
    stdout: str
    wall_s: float
    rss_mb: float
    cpu_s: float
    timed_out: bool


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # string-keyed set order is fixed across runs
    return env


def run_child(cmd, deadline_s, workdir):
    """Run cmd to completion or its deadline; resources from its own wait4."""
    with tempfile.TemporaryFile(dir=workdir) as out:
        lock = threading.Lock()
        state = {"exited": False, "timed_out": False}
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            cmd[0],
            cmd,
            child_env(),
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
            ],
        )

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        timer.join()
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    return Child(
        os.waitstatus_to_exitcode(status),
        stdout,
        wall,
        ru.ru_maxrss / 1024.0,
        ru.ru_utime + ru.ru_stime,
        state["timed_out"],
    )


def check_module_file(path):
    if not path or Path(path).resolve().parent != PKG.resolve():
        raise Refused(f"lietrace resolves to {path!r}, not to {PKG}")
    return path


def run_reference(workdir):
    """Wall time of one run of the reference program in a fresh child."""
    c = run_child([sys.executable, str(REFERENCE)], DEADLINE_S, workdir)
    if c.rc != 0 or c.stdout.strip() != REF_CHECKSUM:
        raise Refused(f"{REFERENCE.name} failed or printed {c.stdout.strip()!r}")
    return c.wall_s


def measure_setup(workdir):
    """Wall time of one fresh import of lietrace.cli, and where it resolves."""
    code = "import lietrace, lietrace.cli; print(lietrace.__file__)"
    c = run_child([sys.executable, "-c", code], DEADLINE_S, workdir)
    if c.rc != 0:
        raise Refused("cannot import lietrace.cli from the checkout")
    return c.wall_s, check_module_file(c.stdout.strip())


@dataclass
class Pass:
    wall_s: float = 0.0
    wall_cal_s: float = 0.0  # untraced passes: wall_s at nominal host speed
    ref_s: list = field(default_factory=list)  # reference runs, untraced passes
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0  # over successful invocations
    attempted: int = 0
    failed: int = 0
    # traced passes only
    layers: dict = field(default_factory=dict)
    import_s: list = field(default_factory=list)
    edges: set = field(default_factory=set)
    missing: dict = field(default_factory=dict)


def run_pass(invs, workdir, traced=False, ref_s=None):
    """One closed-loop pass over the invocations; a failed invocation counts
    at its deadline. An untraced pass runs the reference program after each
    invocation, and before the first unless ref_s gives the reference time
    taken just before; each invocation is calibrated by the mean of the two
    reference times around it."""
    p = Pass()
    if not traced:
        p.ref_s.append(run_reference(workdir) if ref_s is None else ref_s)
    for inv in invs:
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), *inv.argv]
        else:
            cmd = [sys.executable, "-m", "lietrace.cli", *inv.argv]
        c = run_child(cmd, inv.deadline_s, workdir)
        ok = c.rc == 0 and not c.timed_out
        if ok and traced:
            try:
                payload = json.loads(c.stdout)
            except ValueError:  # the child died before printing its record
                ok = False
            else:
                check_module_file(payload["lietrace_file"])
                ok = payload["rc"] == 0 and inv.check(payload["stdout"])
                for layer, rec in payload["layers"].items():
                    merge_layer(p.layers.setdefault(layer, {}), rec)
                p.import_s.append(payload["import_s"])
                p.edges.update(tuple(e) for e in payload["edges"])
                p.missing.update(payload["missing"])
        elif ok:
            ok = inv.check(c.stdout)
        wall = c.wall_s if ok else max(c.wall_s, inv.deadline_s)
        if not traced:
            p.ref_s.append(run_reference(workdir))
            p.wall_cal_s += wall * REF_NOMINAL_S * 2 / (p.ref_s[-2] + p.ref_s[-1])
        p.attempted += 1
        p.cpu_s += c.cpu_s
        p.wall_s += wall
        if ok:
            p.peak_rss_mb = max(p.peak_rss_mb, c.rss_mb)
        else:
            p.failed += 1
            print(f"FAILED: lietrace {' '.join(inv.argv)} (exit {c.rc}"
                  f"{', deadline' if c.timed_out else ''})", file=sys.stderr)
    return p


# --------------------------------------------------------------------------
# runs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(invs, seconds, workdir, setup_min=SETUP_MIN):
    setups, passes = [], []
    stop = time.perf_counter() + seconds
    while not passes or time.perf_counter() < stop:
        setups += [measure_setup(workdir) for _ in range(SETUP_PER_PASS)]
        passes.append(run_pass(invs, workdir, ref_s=passes[-1].ref_s[-1] if passes else None))
    setups += [measure_setup(workdir) for _ in range(setup_min - len(setups))]
    metrics = {
        "wall_cal_s": _metric(statistics.median(p.wall_cal_s for p in passes), "s"),
        "peak_rss_mb": _metric(max(p.peak_rss_mb for p in passes) or None, "MB"),
        "setup_s": _metric(statistics.median(wall for wall, _ in setups), "s"),
    }
    return passes, metrics, setups[0][1]


def layer_metrics(p, plain):
    """Per-layer metric values of one traced pass and its plain partner."""
    out = {}
    for name, (_, layer, counter) in LAYER_METRICS.items():
        if layer in p.missing or name in p.missing:
            continue
        out[name] = p.layers.get(layer, {}).get(counter, 0)
    if "exactlin.span_insert" not in p.missing:
        ins = p.layers.get("exactlin.span_insert", {})
        # 0 when nothing was inserted
        out["exactlin.span_insert.accept_ratio"] = ins.get("accepted", 0) / max(ins.get("calls", 0), 1)
    out["johnson.self_s"] = sum(
        rec["self_s"] for layer, rec in p.layers.items() if layer.startswith("johnson.")
    )
    out["cli.ops"] = plain.attempted
    out["cli.ops_failed"] = plain.failed
    out["cli.cpu_s"] = plain.cpu_s
    out["cli.cpu_per_wall"] = plain.cpu_s / plain.wall_s
    out["cli.wall_s"] = plain.wall_s
    out["host.ref_s"] = statistics.median(plain.ref_s)
    out["trace.overhead_ratio"] = p.wall_s / plain.wall_s
    return out


def traced_run(invs, seconds, workdir):
    plains, traces = [], []
    stop = time.perf_counter() + seconds
    while not traces or time.perf_counter() < stop:
        plains.append(run_pass(invs, workdir))
        traces.append(run_pass(invs, workdir, traced=True))
    missing = {}
    for p in traces:
        missing.update(p.missing)
    per_pass = [layer_metrics(t, p) for t, p in zip(traces, plains)]
    import_s = [s for t in traces for s in t.import_s]
    metrics = {}
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()} | DERIVED_METRICS
    for name, unit in units.items():
        values = [m[name] for m in per_pass if name in m]
        if name == "cli.import_s" and import_s:
            metrics[name] = _metric(statistics.median(import_s), unit)
        elif values:
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = _metric(median(values), unit)
        else:
            layer = LAYER_METRICS.get(name, (None, name))[1]
            reason = missing.get(name) or missing.get(layer) or "not measured"
            metrics[name] = {"value": None, "unit": unit, "missing": reason}
    return plains + traces, metrics


def git_sha(root):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        invs = WORKLOADS[workload](seed, False, workdir)
        if trace:
            _, path = measure_setup(workdir)
            passes, metrics = traced_run(invs, seconds, workdir)
        else:
            passes, metrics, path = timed_run(invs, seconds, workdir)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = {
        "lietrace_file": path,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
    }
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']} {m['unit']}{' (' + m['missing'] + ')' if 'missing' in m else ''}")
    if not trace:
        print(f"{workload} wall_s (uncalibrated) = {statistics.median(p.wall_s for p in passes)} s")
        print(f"{workload} host.ref_s = {statistics.median(r for p in passes for r in p.ref_s)} s")
    print(f"{workload} error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


# --------------------------------------------------------------------------
# self-test

# dominant layers that must record work, and bypassed ones that must not
SELFTEST_NONZERO = {
    "n3_image": ("tangent.ad_solve.calls", "exactlin.span_insert.calls"),
    "cr_table": ("exactlin.span_insert.calls", "tangent.trace_row.calls"),
    "h1_growth": ("grouppres.fox_matrix.s", "grouppres.action_inverse.calls", "exactlin.hnf.calls"),
    "kernel_coker": ("exactlin.kernel_basis.calls", "exactlin.span_contains.calls", "exactlin.snf.calls"),
}
SELFTEST_ZERO = {
    "n3_image": ("grouppres.fox_matrix.s", "grouppres.action_inverse.calls", "exactlin.snf.calls"),
    "cr_table": ("tangent.ad_block.calls", "grouppres.fox_matrix.s", "grouppres.action_inverse.calls"),
    "h1_growth": ("tangent.ad_block.calls", "freelie.iota_enc.calls", "johnson.image.s"),
    "kernel_coker": ("grouppres.fox_matrix.s",),
}
# (parent, child) span edges that must appear
SELFTEST_EDGES = {
    "n3_image": (("johnson.image", "tangent.ad_solve"), ("tangent.ad_block", "exactlin.span_insert")),
    "cr_table": ((None, "johnson.c_alpha"), ("johnson.c_alpha", "tangent.trace_row")),
    "h1_growth": (("grouppres.z1_basis", "grouppres.fox_matrix"),),
    "kernel_coker": (("johnson.check_T0530", "exactlin.kernel_basis"),
                     ("johnson.coker_structure", "exactlin.snf")),
}


def selftest():
    import types

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        for w in (m["name"] for m in spec["workloads"]):
            invs = WORKLOADS[w](1, True, workdir)
            passes, metrics, _ = timed_run(invs, 0, workdir, setup_min=2)
            expect({k: v["unit"] for k, v in metrics.items()} == e2e, f"{w}: end-to-end names and units")
            expect(sum(p.failed for p in passes) == 0, f"{w}: pinned answers match")
            passes, metrics = traced_run(invs, 0, workdir)
            expect({k: v["unit"] for k, v in metrics.items()} == layer, f"{w}: per-layer names and units")
            expect(all(v["value"] is not None for v in metrics.values()), f"{w}: no metric missing")
            expect(sum(p.failed for p in passes) == 0, f"{w}: traced answers match")
            for name in SELFTEST_NONZERO[w]:
                expect(metrics[name]["value"] > 0, f"{w}: {name} records work")
            for name in SELFTEST_ZERO[w]:
                expect(metrics[name]["value"] == 0, f"{w}: {name} is bypassed")
            traced = passes[-1]
            for edge in SELFTEST_EDGES[w]:
                expect(edge in traced.edges, f"{w}: span {edge[1]} nests in {edge[0] or 'a thread root'}")
            expect(all(-1e-6 <= r["self_s"] <= r["s"] + 1e-6 for r in traced.layers.values()),
                   f"{w}: self time within inclusive time")
            # the comparator must reject a wrong answer, both as text and in a run
            for inv in invs:
                c = run_child([sys.executable, "-m", "lietrace.cli", *inv.argv], DEADLINE_S, workdir)
                wrong = c.stdout.replace("1", "7", 1) if "1" in c.stdout else c.stdout + "0\n"
                expect(inv.check(c.stdout) and not inv.check(wrong) and not inv.check(""),
                       f"{w}: comparator rejects a wrong answer to {' '.join(inv.argv[:1])}")
        bad = Invocation(("h1", "--group", "sym", "--n", "5", "--format", "csv"), exact("0,(4)\n"), 5.0)
        p = run_pass([bad], workdir)
        expect(p.failed == 1 and p.wall_s >= 5.0, "a wrong answer counts as failed, at its deadline")

    # a wrap target lost in a refactor is reported missing, not as zero
    tracer = Tracer()
    fake = types.ModuleType("lietrace.tangent")
    install(tracer, {"lietrace.tangent": fake}, (("tangent.ad_block", "lietrace.tangent", "AdSolver.block", None),))
    lost = Pass(missing=tracer.missing)
    expect("tangent.ad_block" in tracer.missing and "tangent.ad_block.calls" not in layer_metrics(lost, Pass(wall_s=1.0, ref_s=[1.0])),
           "a missing wrap target is reported as missing")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failed"))
    return 0 if not problems else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (args.selftest or args.workload):
        ap.error("--workload is required")
    try:
        if not (PKG / "cli.py").is_file():
            raise Refused(f"no lietrace package under {SRC}")
        if args.selftest:
            return selftest()
        run(args.workload, args.seed, args.seconds, args.trace)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
