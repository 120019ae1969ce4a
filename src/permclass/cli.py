"""Command-line front end.

All data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain error (also an interrupt or running out of memory, reported as one
line), 2 usage error.  Output is deterministic for a fixed
invocation: collections are sorted before printing and nothing is
timestamped.

Permutation lists (--avoid, --perms, --closure-of) use the grammar of
`_parse_perm_list`; integer lists (--seq, --recurrence) that of
`_parse_sequence_text`.  Every integer is an optional sign and decimal
digits (`_int_token`), never int()'s '_' digit groups.  Integer options are
read by `_int_arg`, which differs between options only in its bounds, and
--tol by `_float_arg`, which refuses '_' as well.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import antichain as AC
from . import enumeration as EN
from . import growth as GR
from . import perm as P
from . import structure as ST
from .errors import InvalidIndex, InvalidSequence, PermclassError
from .perm import Perm


def _int_token(text: str) -> int:
    """An integer written as an optional sign and decimal digits, with
    surrounding whitespace; unlike int(), '_' digit groups are refused.
    Raises ValueError like int()."""
    s = text.strip()
    if not (s[1:] if s.startswith(("+", "-")) else s).isdecimal():
        raise ValueError(f"bad integer {text!r}")
    return int(s)


def _int_arg(lo: int | None = None, hi: int | None = None):
    """The argparse type of an integer option: an `_int_token` in lo..hi,
    where a bound of None is no bound."""

    def read(text: str) -> int:
        try:
            i = _int_token(text)
            if (lo is None or lo <= i) and (hi is None or i <= hi):
                return i
        except ValueError:
            pass
        bounds = (f" >= {lo}" if lo is not None else "") + (f" <= {hi}" if hi is not None else "")
        raise argparse.ArgumentTypeError(f"expected an integer{bounds}, got {text!r}")

    return read


def _float_arg(text: str) -> float:
    """float(), with '_' digit groups refused as in `_int_token`; nan and
    inf pass, for the library to refuse."""
    try:
        if "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")


def _parse_sequence_text(text: str) -> list[int]:
    """Read a sequence from b-file lines, a JSON array, or comma/whitespace
    separated integers.

    More than one line, each of exactly two fields, is a b-file ("n a(n)"),
    whose index column must count up by one.
    """
    s = text.strip()
    if not s:
        raise InvalidSequence("empty sequence input")
    if s.startswith("["):
        try:
            vals = json.loads(s)
        except (ValueError, RecursionError) as exc:
            raise InvalidSequence(f"bad JSON sequence: {exc}") from None
        if any(type(v) is not int for v in vals):  # rejects floats and bools
            raise InvalidSequence(f"JSON sequence entries must be integers: {s!r}")
        if not vals:
            raise InvalidSequence("empty JSON sequence")
        return vals
    try:
        lines = [ln for ln in s.splitlines() if ln.strip() and not ln.startswith("#")]
        if all(len(ln.split()) == 2 for ln in lines) and len(lines) > 1:
            pairs = [(_int_token(a), _int_token(b)) for a, b in (ln.split() for ln in lines)]
            index = [a for a, _ in pairs]
            if index != list(range(index[0], index[0] + len(index))):
                raise ValueError("b-file index column is not consecutive")
            return [b for _, b in pairs]
        fields = s.split(",")
        if len(fields) > 1 and not all(f.strip() for f in fields):
            raise ValueError(f"empty comma-separated field in {s!r}")
        return [_int_token(t) for f in fields for t in f.split()]
    except ValueError as exc:
        raise InvalidSequence(f"not an integer sequence: {exc}") from None


def _fields(text: str, sep: str) -> list[str]:
    items = text.split(sep)
    if not all(t.strip() for t in items):
        raise InvalidSequence(f"empty field in permutation list: {text!r}")
    return items


def _parse_perm_list(text: str) -> list[Perm]:
    """Permutations separated by ';'; a field that is not one permutation
    is read as a comma-separated list ("123;8,11,10,6,9,4,7,1,5,3,2" and
    "123,3214" are two each).  No field reads both ways: a comma-form
    permutation of length >= 2 has the part 2, which is not a permutation.
    """
    perms: list[Perm] = []
    for field in _fields(text, ";"):
        try:
            perms.append(Perm.from_text(field))
        except InvalidSequence:
            perms.extend(Perm.from_text(t) for t in _fields(field, ","))
    return perms


def _parse_mu_range(text: str) -> range:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = _int_token(lo_s)
        hi = _int_token(hi_s) if dots else lo
    except ValueError:
        raise InvalidIndex(f"expected an index or a range lo..hi, got {text!r}") from None
    indices = range(lo | 1, hi + 1, 2)
    if lo < 7 or not indices:
        raise InvalidIndex(f"no valid odd indices >= 7 in {text!r}")
    return indices


# alpha(i) writes 2^(1-i) exactly, an i-bit number, and prints 2.00000 from
# i = 18 on; above this cap a request is refused as a usage error.
ALPHA_MAX_INDEX = 10 ** 6


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message: str):
        # argparse echoes unrecognized arguments raw, line breaks included
        self.exit(2, f"{self.prog}: error: {' '.join(message.splitlines())}\n")


def _render_counts(basis: list[Perm], counts: list[int], fmt: str) -> list[str]:
    if fmt == "json":
        return [
            json.dumps(
                {"basis": [str(b) for b in basis], "counts": counts}
            )
        ]
    if fmt == "csv":
        return ["n,count"] + [f"{n},{v}" for n, v in enumerate(counts, 1)]
    # the table is a b-file: "n a(n)" lines, which `fit --seq` reads
    return [f"{n} {v}" for n, v in enumerate(counts, 1)]


def _cmd_count(args) -> int:
    basis = _parse_perm_list(args.avoid)
    counts = EN.count_avoiders(basis, args.max_n)
    sys.stdout.write("\n".join(_render_counts(sorted(basis), counts, args.format)) + "\n")
    return 0


def _cmd_contains(args) -> int:
    pat = Perm.from_text(args.pattern)
    host = Perm.from_text(args.host)
    print("yes" if P.contains(pat, host) else "no")
    return 0


def _cmd_decompose(args) -> int:
    p = Perm.from_text(args.perm)
    if args.k is not None:
        parts = ST.k_decomposition(p, args.k)
        print(" ".join(f"{a}-{b}" for a, b in parts))
        print(f"s_{args.k} = {len(parts)}")
        return 0
    up = ST.up_decomposition(p)
    down = ST.down_decomposition(p)
    print("up: " + " | ".join(str(b) for b in up.blocks))
    print("down: " + " | ".join(str(b) for b in down.blocks))
    return 0


def _cmd_stats(args) -> int:
    p = Perm.from_text(args.perm)
    print(f"al {ST.al(p)}")
    print(f"h+ {ST.h_plus(p)}")
    print(f"h- {ST.h_minus(p)}")
    for k in (2, 3, 4):
        print(f"s{k} {ST.s_k(p, k)}")
    return 0


def _cmd_mu(args) -> int:
    for i in _parse_mu_range(args.index):
        print(f"{i} {AC.mu(i)}")
    return 0


def _cmd_antichain(args) -> int:
    perms: list[Perm] = []
    mu_indices = range(0)
    if args.mu:
        mu_indices = _parse_mu_range(args.mu)
        perms.extend(AC.mu(i) for i in mu_indices)
    if args.perms:
        perms.extend(_parse_perm_list(args.perms))
    if args.with_short_basis:
        perms.extend(AC.SHORT_BASIS)
    if not perms:
        raise InvalidSequence("antichain needs --perms and/or --mu")
    distinct = len(set(perms))
    ok, witness = AC.is_antichain(perms)
    pairs = distinct * (distinct - 1) // 2
    if ok:
        print(f"antichain: yes ({distinct} permutations, {pairs} pairs checked)")
    else:
        pat, host = witness
        print(f"antichain: no (witness: {pat} contained in {host})")
    mismatch = False  # a failed certificate is a domain error, exit 1
    if args.graph_certify:
        for i in mu_indices:
            good = AC.tree_isomorphic(AC.perm_graph(AC.mu(i)), AC.double_fork(i))
            mismatch |= not good
            print(f"certificate mu_{i}: {'tree matches double fork' if good else 'MISMATCH'}")
    return 1 if mismatch else 0


def _cmd_basis(args) -> int:
    gens = _parse_perm_list(args.closure_of)
    basis = AC.basis_up_to(AC.ClosureOf(tuple(gens)), args.max_len)
    for p in sorted(basis):
        print(p)
    return 0


def _cmd_fit(args) -> int:
    # inline text first, so that a file in the working directory named like
    # a sequence cannot change what a sequence means
    try:
        seq = _parse_sequence_text(args.seq)
    except InvalidSequence:
        if not os.path.isfile(args.seq):
            raise
        with open(args.seq, encoding="utf-8") as fh:
            seq = _parse_sequence_text(fh.read())
    rec = EN.fit_recurrence(seq, args.max_order)
    if rec is None:
        print(f"no fit up to order {args.max_order}")
    else:
        coeffs = ",".join(str(c) for c in rec.coeffs)
        print(f"order {rec.order}: {coeffs}")
    return 0


def _cmd_growth(args) -> int:
    if args.alpha is not None:
        est = GR.alpha(args.alpha, args.tol)
    else:
        coeffs = _parse_sequence_text(args.recurrence)
        poly = GR.IntPolynomial((1,) + tuple(-c for c in coeffs))
        est = GR.dominant_root(poly, args.tol)
    print(f"{est.value:.5f}")
    print(
        f"bracket [{float(est.bracket[0]):.12f}, {float(est.bracket[1]):.12f}], "
        f"tol {args.tol:g}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permclass",
        description="Permutation classes: containment, antichains, enumeration, growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="count avoiders of a basis")
    pc.add_argument("--avoid", required=True, help="basis permutations, separated by ';' or by ','")
    pc.add_argument("--max-n", type=_int_arg(lo=1), required=True, dest="max_n")
    pc.add_argument("--format", choices=("table", "json", "csv"), default="table")
    pc.set_defaults(func=_cmd_count)

    pk = sub.add_parser("contains", help="does host contain the pattern?")
    pk.add_argument("pattern")
    pk.add_argument("host")
    pk.set_defaults(func=_cmd_contains)

    pd = sub.add_parser("decompose", help="up/down or k-decomposition")
    pd.add_argument("perm")
    pd.add_argument("--k", type=_int_arg(), default=None)
    pd.set_defaults(func=_cmd_decompose)

    ps = sub.add_parser("stats", help="al, h+, h-, s_k table")
    ps.add_argument("perm")
    ps.set_defaults(func=_cmd_stats)

    pm = sub.add_parser("mu", help="members of the infinite antichain")
    pm.add_argument("index", help="odd index i >= 7, or a range lo..hi")
    pm.set_defaults(func=_cmd_mu)

    pa = sub.add_parser("antichain", help="verify pairwise incomparability")
    pa.add_argument("--perms", default=None)
    pa.add_argument("--mu", default=None, help="range lo..hi of odd indices")
    pa.add_argument("--with-short-basis", action="store_true", dest="with_short_basis")
    pa.add_argument("--graph-certify", action="store_true", dest="graph_certify")
    pa.set_defaults(func=_cmd_antichain)

    pb = sub.add_parser("basis", help="minimal non-members of a closure class")
    pb.add_argument("--closure-of", required=True, dest="closure_of")
    pb.add_argument("--max-len", type=_int_arg(lo=1), required=True, dest="max_len")
    pb.set_defaults(func=_cmd_basis)

    pf = sub.add_parser("fit", help="fit a linear recurrence to a sequence")
    pf.add_argument("--seq", required=True, help="inline integers, or else a file path")
    pf.add_argument("--max-order", type=_int_arg(lo=1), required=True, dest="max_order")
    pf.set_defaults(func=_cmd_fit)

    pg = sub.add_parser("growth", help="certified largest root of a recurrence or alpha_i")
    group = pg.add_mutually_exclusive_group(required=True)
    group.add_argument("--recurrence", default=None, help="c_1..c_d of a(n) = sum c_i a(n-i), read like --seq")
    group.add_argument("--alpha", type=_int_arg(hi=ALPHA_MAX_INDEX), default=None, help=f"index i, at most {ALPHA_MAX_INDEX}")
    pg.add_argument("--tol", type=_float_arg, default=1e-9)
    pg.set_defaults(func=_cmd_growth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone: say nothing, and send what is still
        # buffered to devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (PermclassError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
