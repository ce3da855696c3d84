"""Command-line front end: emits the exact tables and runs the verifications.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  Output
formats: text (pretty), csv (data rows only), json (schema-stable documents
with title/columns/rows/provenance; coker, h1 and abelianize emit
{free_rank, torsion}).  Integers beyond 53 bits are serialized as strings in
JSON so downstream tools cannot silently round them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import cyclic, exactlin, freelie, grouppres, johnson, tangent
from ._words import InconsistencyError, partitions, record
from .cyclic import QuotientMode

class UsageError(Exception):
    pass


@record(frozen=False)
class TableDocument:
    title: str
    columns: list
    rows: list
    provenance: str = ""  # the command line; main fills it in

    def to_json_obj(self):
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[_json_value(v) for v in row] for row in self.rows],
            "provenance": self.provenance,
        }


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v) if abs(v) >= 2**53 else v
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    return str(v)


def _render(doc: TableDocument, fmt: str) -> str:
    if fmt == "json":
        import json  # only json output pays for its import

        return json.dumps(doc.to_json_obj(), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = []
        for row in doc.rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        return "\n".join(lines) + "\n"
    widths = [len(str(c)) for c in doc.columns]
    srows = []
    for row in doc.rows:
        srow = [_csv_cell(v) for v in row]
        widths = [max(w, len(s)) for w, s in zip(widths, srow)]
        srows.append(srow)
    out = [doc.title]
    out.append("  ".join(str(c).ljust(w) for c, w in zip(doc.columns, widths)))
    for srow in srows:
        out.append("  ".join(s.ljust(w) for s, w in zip(srow, widths)))
    return "\n".join(out) + "\n"


def _csv_cell(v):
    if isinstance(v, (tuple, list)):
        return "(" + " ".join(str(x) for x in v) + ")"
    return str(v)


def _parse_range(option, spec: str):
    """The integers of the range option's value, N or LO..HI."""
    lo, dots, hi = str(spec).partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"{option} {spec}: give an integer N or a range LO..HI") from None
    if lo > hi:
        raise UsageError(f"empty range {spec}")
    return list(range(lo, hi + 1))


def _structure(args, title, q: exactlin.QuotientStructure):
    """A {free_rank, torsion} object in json; else a one-row table."""
    if args.format == "json":
        import json

        obj = {"free_rank": q.free_rank, "torsion": [_json_value(d) for d in q.torsion]}
        return json.dumps(obj) + "\n"
    return TableDocument(title, ["free_rank", "torsion"], [[q.free_rank, list(q.torsion)]])


# ---------------------------------------------------------------------------
# commands: each returns its document, or (document, ok) when it runs a check;
# main renders and writes it


def _cmd_witt(args):
    ns = _parse_range("--n", args.n)
    ks = _parse_range("--k", args.k)
    rows = [[n, k, freelie.witt_rank(n, k)] for n in ns for k in ks]
    if args.format == "csv":
        # flat value list; one row of ranks in (n, k) order
        return TableDocument("witt", [f"r({n},{k})" for n in ns for k in ks], [[r[2] for r in rows]])
    return TableDocument("free Lie algebra ranks", ["n", "k", "rank"], rows)


def _cmd_ranks(args):
    rows = []
    for n in _parse_range("--n", args.n):
        for k in _parse_range("--k", args.k):
            rows.append(
                [
                    n,
                    k,
                    freelie.witt_rank(n, k),
                    cyclic.cyclic_rank(n, k, QuotientMode.FULL),
                    cyclic.cyclic_rank(n, k, QuotientMode.BAR),
                    tangent.p_rank(n, k),
                ]
            )
    return TableDocument(
        "rank table",
        ["n", "k", "lie_rank", "necklaces", "necklaces_bar", "tangential_rank"],
        rows,
    )


def _cmd_trace(args):
    n, k = args.n, args.k
    mode = QuotientMode.coerce(args.mode)
    image = johnson.trace_rank(n, k, mode)
    target = cyclic.cyclic_rank(n, k, mode)
    dim = tangent.p_rank(n, k)
    return TableDocument(
        f"trace map, mode={mode.value}",
        ["n", "k", "domain_rank", "image_rank", "kernel_dim", "target_rank", "surjective"],
        [[n, k, dim, image, dim - image, target, image == target]],
    )


def _progress(msg):
    # diagnostics go to stderr so the data stream stays machine parseable
    print(msg, file=sys.stderr, flush=True)


def _span_rows(option, kmax, row):
    """row(k) for k = 1..kmax, announcing each span from degree 7 on."""
    if kmax < 1:
        raise UsageError(f"{option} must be >= 1")
    rows = []
    for k in range(1, kmax + 1):
        if k >= 7:
            _progress(f"computing degree {k} span ...")
        rows.append(row(k))
    return rows


def _cmd_image(args):
    rows = _span_rows("--k", args.k, lambda k: [k, johnson.johnson_image(args.n, k).dim])
    return TableDocument("degree-1 generated image dimensions", ["k", "dim"], rows)


def _content_rows(args, ks, alpha=None):
    """[k, alpha, c, r] rows for the one content alpha, or else for every
    partition of each k into at least two parts, none of them 1."""
    if alpha:
        keys = [(k, alpha) for k in ks]
    else:
        keys = [(k, a) for k in ks for a in partitions(k, min_part=2) if len(a) >= 2]
    reports = _parallel_map(args.threads, lambda ka: johnson.c_alpha(*ka), keys)
    return [[k, list(rep.alpha), rep.c_alpha, rep.r_alpha] for (k, _), rep in zip(keys, reports)]


def _cmd_calpha(args):
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if args.alpha == "":
        raise UsageError("--alpha is empty; give a comma list, e.g. 3,2,2")
    alpha = None
    if args.alpha:
        try:
            alpha = tuple(int(x) for x in args.alpha.split(","))
        except ValueError:
            raise UsageError(
                f"--alpha {args.alpha}: give a comma list of positive integers, e.g. 3,2,2"
            ) from None
        if sum(alpha) != args.k:
            raise UsageError(f"--alpha {args.alpha} sums to {sum(alpha)}, not --k {args.k}")
    elif args.k < 4:
        raise UsageError(
            f"--k must be >= 4 without --alpha, got {args.k}: no partition of k < 4 has"
            " two parts of at least 2; give --alpha for one content"
        )
    return TableDocument(
        "trace ranks by content", ["k", "alpha", "c", "r"], _content_rows(args, [args.k], alpha)
    )


def _cmd_table7(args):
    return TableDocument(
        f"degree 1..4 summary, n={args.n}",
        ["k", "graded_rank", "tangential_rank", "cyclic_bar_rank", "coker"],
        johnson.section7_rows(args.n),
    )


def _cmd_table8(args):
    if args.kmax < 5:
        raise UsageError(f"--kmax must be >= 5, the table's first degree, got {args.kmax}")
    return TableDocument(
        "trace ranks for repeated-letter contents", ["k", "alpha", "c", "r"],
        _content_rows(args, range(5, args.kmax + 1)),
    )


def _cmd_n3gap(args):
    rows = _span_rows(
        "--kmax", args.kmax,
        lambda k: [k, johnson.johnson_image(3, k).dim, johnson.trace_kernel_dim(3, k)],
    )
    return TableDocument("image vs trace kernel, n=3", ["k", "image_dim", "kernel_dim"], rows)


def _cmd_coker(args):
    q = johnson.coker_structure(args.n, args.k)
    return _structure(args, f"trace cokernel n={args.n} k={args.k}", q)


def _cmd_t0530(args):
    rep = johnson.check_T0530(args.n, args.k)
    rows = [[list(a), d, True] for a, d in rep.checked]
    rows += [[list(a), "-", "skipped"] for a in rep.skipped]
    if not rep.ok:
        print(f"violations: {rep.violations}", file=sys.stderr)
    doc = TableDocument(
        f"kernel-in-image check n={args.n} k={args.k}", ["alpha", "kernel_dim", "status"], rows
    )
    return doc, rep.ok


def _cmd_egens(args):
    rep = johnson.verify_E_generators(args.n)
    doc = TableDocument(
        f"degree-3 generator families n={args.n}",
        ["family_counts", "total", "expected", "span_dim", "image_dim", "ok"],
        [[list(rep.family_counts), rep.total, rep.expected, rep.span_dim, rep.image_dim, rep.ok]],
    )
    return doc, rep.ok


def _presentation(args):
    """The builtin presentation of --group at --n (default 3), or the one read from --file."""
    if args.group != "file":
        if args.file is not None:
            raise UsageError(f"--file needs --group file, not --group {args.group}")
        args.n = 3 if args.n is None else args.n
        return grouppres.builtin(args.group, args.n)
    if args.n is not None:
        raise UsageError("--n does not apply to --group file; the file gives the generators")
    if not args.file:
        raise UsageError("--group file needs --file PATH")
    with open(args.file) as fh:
        return grouppres.parse_presentation(fh.read())


def _cmd_h1(args):
    pres = _presentation(args)
    if args.rep == "trivial":
        action = grouppres.trivial_action(pres)
    elif args.group == "file":
        raise UsageError("file presentations support --rep trivial only")
    else:
        action = grouppres.standard_action(args.group, args.n)
    return _structure(args, f"twisted H1, {args.group}", grouppres.h1_twisted(pres, action))


def _cmd_h2(args):
    value = grouppres.h2_psigma_rank(args.n)
    return TableDocument(f"second homology rank, n={args.n}", ["n", "rank"], [[args.n, value]])


def _cmd_abelianize(args):
    q = grouppres.abelianization(_presentation(args))
    return _structure(args, f"abelianization, {args.group}", q)


def _parallel_map(threads, fn, items):
    """Map preserving order; worker pool only when threads > 1."""
    items = list(items)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only pools pay its import

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _thread_count(spec):
    try:
        value = int(spec)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {spec!r}")
    return value


def _check_writable(path):
    """Refuse an --out path that cannot be written, before any work is done.

    Nothing is created here: the file is opened only once the document is
    ready, so a refused path, or a command that fails, leaves no file behind.
    """
    if os.path.isdir(path):
        raise ValueError(f"--out {path} is a directory")
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path}: no directory {folder}")
    target = path if os.path.exists(path) else folder
    if not os.access(target, os.W_OK):
        raise ValueError(f"--out {path} is not writable")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# the arguments of the subcommands, as (flag, add_argument keywords)
_INT = {"type": int, "required": True}
_RANGE = {"required": True}  # a range such as 3..6, read by _parse_range
_THREADS = ("--threads", {"type": _thread_count, "default": 1})
_OPTIONAL_N = ("--n", {"type": int, "default": None})
_FILE = ("--file", {"default": None})

# name -> (function, help, arguments after the shared --format and --out), in
# the order of the -h listing
_COMMANDS = {
    "witt": (_cmd_witt, "free Lie algebra ranks", (("--n", _RANGE), ("--k", _RANGE))),
    "ranks": (
        _cmd_ranks, "rank tables (Lie, necklace, tangential)", (("--n", _RANGE), ("--k", _RANGE)),
    ),
    "trace": (
        _cmd_trace, "trace matrix ranks for one (n, k)",
        (("--n", _INT), ("--k", _INT),
         ("--mode", {"choices": ["full", "bar", "tilde"], "default": "bar"})),
    ),
    "image": (_cmd_image, "degree-1 generated image dimensions", (("--n", _INT), ("--k", _INT))),
    "calpha": (
        _cmd_calpha, "trace rank for one content class",
        (("--k", _INT), ("--alpha", {"default": None, "help": "comma list, e.g. 3,2,2"}), _THREADS),
    ),
    "table7": (_cmd_table7, "degree 1..4 summary table", (("--n", _INT),)),
    "table8": (
        _cmd_table8, "c/r table for repeated-letter contents", (("--kmax", _INT), _THREADS),
    ),
    "n3gap": (_cmd_n3gap, "image vs kernel table for n=3", (("--kmax", _INT),)),
    "coker": (_cmd_coker, "integral trace cokernel structure", (("--n", _INT), ("--k", _INT))),
    "t0530": (_cmd_t0530, "kernel-in-image check per content", (("--n", _INT), ("--k", _INT))),
    "egens": (_cmd_egens, "degree-3 generator family check", (("--n", _INT),)),
    "h1": (
        _cmd_h1, "twisted first cohomology",
        (("--group", {"choices": ["bp", "braid", "sym", "file"], "required": True}),
         _OPTIONAL_N,
         ("--rep", {"choices": ["standard", "trivial"], "default": "standard"}),
         _FILE),
    ),
    "h2": (_cmd_h2, "second homology rank with consistency check", (("--n", _INT),)),
    "abelianize": (
        _cmd_abelianize, "abelianization structure",
        (("--group", {"choices": ["bp", "braid", "sym", "mccool", "file"], "required": True}),
         _OPTIONAL_N, _FILE),
    ),
}


def build_parser(command=None):
    """The argparse parser: with the name of a command only its subcommand is
    built, so a short run pays for one subparser; otherwise all of them are,
    for the -h listing and for the messages on no or an unknown command."""
    parser = _Parser(prog="lietrace", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        fn, help, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", default=None)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if args.out:
            _check_writable(args.out)
        result = args.fn(args)
        doc, ok = result if isinstance(result, tuple) else (result, True)
        if isinstance(doc, TableDocument):  # else the json text of a structure
            doc.provenance = " ".join([args.command] + argv[1:])
            doc = _render(doc, args.format)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc)
        else:
            sys.stdout.write(doc)
        return 0 if ok else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
