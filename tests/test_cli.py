import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permclass
from conftest import perms
from permclass import antichain as AC
from permclass import growth as GR
from permclass.cli import ALPHA_MAX_INDEX, _parse_perm_list, _parse_sequence_text, main
from permclass.errors import InvalidSequence

MU11 = "8,11,10,6,9,4,7,1,5,3,2"  # permclass mu 11
MU13 = "10,13,12,8,11,6,9,4,7,1,5,3,2"  # permclass mu 13


def _child_env():
    """The environment of a `permclass.cli` child process: this checkout's
    library, and stdout buffered as it is in a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(permclass.__file__).parents[1])
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_quad_table(self, capsys):
        code, out, _ = run(
            capsys, "count", "--avoid", "123,3214,2143,15432", "--max-n", "12"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1 1"
        assert lines[-1] == "12 10558"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "--avoid", "123", "--max-n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"basis": ["123"], "counts": [1, 2, 5, 14, 42]}

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--avoid", "123", "--max-n", "3", "--format", "csv"
        )
        assert out.splitlines() == ["n,count", "1,1", "2,2", "3,5"]

    def test_semicolon_list_with_long_perms(self, capsys):
        code, out, _ = run(
            capsys, "count", "--avoid", f"123;{MU11}", "--max-n", "4",
        )
        assert code == 0
        # the length-11 basis element cannot constrain n <= 4
        assert out.splitlines() == ["1 1", "2 2", "3 5", "4 14"]

    def test_deterministic(self, capsys):
        args = ("count", "--avoid", "123,3214,2143,15432", "--max-n", "6")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestQueries:
    def test_contains(self, capsys):
        assert run(capsys, "contains", "123", "2143")[1].strip() == "no"
        assert run(capsys, "contains", "21", "312")[1].strip() == "yes"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "21534")
        assert out.splitlines() == ["up: 21 | 312", "down: 21534"]

    def test_decompose_k(self, capsys):
        code, out, _ = run(capsys, "decompose", "2143", "--k", "2")
        assert out.splitlines() == ["1-2 3-4", "s_2 = 2"]

    def test_stats(self, capsys):
        code, out, _ = run(capsys, "stats", "2143")
        assert "al 3" in out
        assert "h+ 2" in out
        assert "h- 4" in out
        assert "s2 2" in out

    def test_mu_range(self, capsys):
        code, out, _ = run(capsys, "mu", "7..11")
        assert out.splitlines() == [
            "7 4761532",
            "9 698471532",
            "11 8,11,10,6,9,4,7,1,5,3,2",
        ]


class TestAntichain:
    def test_mu_with_short_basis(self, capsys):
        code, out, _ = run(
            capsys, "antichain", "--mu", "7..15", "--with-short-basis"
        )
        assert code == 0
        assert out.strip() == "antichain: yes (9 permutations, 36 pairs checked)"

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "antichain", "--perms", "12,123")
        assert code == 0
        assert out.strip() == "antichain: no (witness: 12 contained in 123)"

    def test_graph_certify_mismatch_exits_1(self, capsys, monkeypatch):
        real = AC.double_fork
        monkeypatch.setattr(AC, "double_fork", lambda i: real(7 if i == 9 else i))
        code, out, _ = run(
            capsys, "antichain", "--mu", "7..11", "--graph-certify"
        )
        assert code == 1
        assert out.splitlines()[1:] == [
            "certificate mu_7: tree matches double fork",
            "certificate mu_9: MISMATCH",
            "certificate mu_11: tree matches double fork",
        ]

    def test_graph_certify(self, capsys):
        code, out, _ = run(
            capsys, "antichain", "--mu", "7..11", "--graph-certify"
        )
        lines = out.splitlines()
        assert lines[0] == "antichain: yes (3 permutations, 3 pairs checked)"
        assert lines[1:] == [
            "certificate mu_7: tree matches double fork",
            "certificate mu_9: tree matches double fork",
            "certificate mu_11: tree matches double fork",
        ]


    def test_certificate_mu_999(self, capsys):
        code, out, _ = run(capsys, "antichain", "--mu", "999", "--graph-certify")
        assert code == 0
        assert out.splitlines()[1:] == ["certificate mu_999: tree matches double fork"]


class TestOtherCommands:
    def test_basis(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--closure-of", "2413", "--max-len", "4"
        )
        assert out.splitlines() == ["123", "321", "2143", "3142", "3412"]

    def test_fit_inline(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--seq", "1,2,5,12,28,65,152,355,829,1936,4521,10558",
            "--max-order", "5",
        )
        assert out.strip() == "order 5: 1,2,2,1,1"

    def test_fit_file(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("1 1\n2 2\n3 5\n4 12\n5 29\n6 70\n7 169\n8 408\n")
        code, out, _ = run(
            capsys, "fit", "--seq", str(seq_file), "--max-order", "3"
        )
        assert out.strip() == "order 2: 2,1"

    def test_fit_file_with_index_gap(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("1 1\n2 2\n3 5\n5 14\n")
        code, out, err = run(
            capsys, "fit", "--seq", str(seq_file), "--max-order", "2"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_fit_inline_text_beats_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        # a file named like the sequence does not change what it means
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1,1,1,1").write_text("1 1\n2 2\n3 5\n4 12\n5 29\n")
        code, out, _ = run(capsys, "fit", "--seq", "1,1,1,1", "--max-order", "1")
        assert (code, out) == (0, "order 1: 1\n")

    def test_fit_no_fit(self, capsys):
        cat = "1,2,5,14,42,132,429,1430,4862,16796,58786,208012"
        code, out, _ = run(capsys, "fit", "--seq", cat, "--max-order", "5")
        assert out.strip() == "no fit up to order 5"

    def test_growth_recurrence(self, capsys):
        code, out, err = run(capsys, "growth", "--recurrence", "1,2,2,1,1")
        assert out.strip() == "2.33529"
        assert "bracket" in err

    def test_growth_alpha(self, capsys):
        assert run(capsys, "growth", "--alpha", "2")[1].strip() == "1.61803"

    def test_growth_repeated_root(self, capsys):
        # 6,-9 is (x-3)^2, whose double root shows no sign change
        code, out, _ = run(capsys, "growth", "--recurrence", "6,-9")
        assert (code, out) == (0, "3.00000\n")

    def test_growth_root_exactly_one(self, capsys):
        # 0,0,1 is x^3 - 1: its one real root is 1 itself
        code, out, err = run(capsys, "growth", "--recurrence", "0,0,1")
        assert (code, out) == (1, "")
        assert err == "error: no real root in (1, 2]\n"

    def test_growth_alpha_large_index(self, capsys):
        for index in ("2000", str(ALPHA_MAX_INDEX)):
            code, out, _ = run(capsys, "growth", "--alpha", index)
            assert (code, out) == (0, "2.00000\n")

    def test_growth_alpha_cap(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("alpha computed past the cap")

        monkeypatch.setattr(GR, "alpha", refuse)
        for index in (str(ALPHA_MAX_INDEX + 1), "10" * 20):
            code, out, err = run(capsys, "growth", "--alpha", index)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and "error:" in err
            assert str(ALPHA_MAX_INDEX) in err


# Free text for any field: list and range punctuation, a letter, a line
# break, and two characters str.isdigit() accepts ('²', which int() rejects,
# and the Arabic-Indic three, which int() reads as 3).  The second alphabet
# gives texts that pass a digit test and reach int() more often.
_TEXT = st.one_of(
    st.text(alphabet="0123456789,;.-[] x\n²٣", max_size=6),
    st.text(alphabet="123²٣", min_size=1, max_size=4),
)


def _upto(lo, hi):
    """A value in lo..hi, or free text none of whose digit runs exceeds hi,
    so no example asks for a long computation."""
    return st.one_of(
        st.integers(lo, hi).map(str),
        _TEXT.filter(lambda t: all(int(d) <= hi for d in re.findall(r"\d+", t))),
    )


_PERM = st.one_of(_TEXT, perms(max_size=9).map(str))
_PERM_LIST = st.one_of(
    _TEXT,
    st.lists(perms(min_size=1), min_size=1, max_size=3).map(lambda ps: ";".join(map(str, ps))),
)
_INTS = st.one_of(
    _TEXT,
    st.lists(st.integers(-3, 60), min_size=1, max_size=12).map(lambda v: ",".join(map(str, v))),
)
_MU = st.one_of(
    _upto(7, 25),
    st.tuples(st.integers(7, 25), st.integers(7, 25)).map(lambda r: "%d..%d" % r),
)
_TOL = st.one_of(st.sampled_from(["1e-9", "0.001", "0", "nan", "inf", "-1"]), _TEXT)
_FLAG = None  # an option that takes no value

# Per subcommand: its positionals, its required options and its other
# options, each with the values it draws.
_COMMANDS = [
    ("count", [], {"--avoid": _PERM_LIST, "--max-n": _upto(1, 7)},
     {"--format": st.sampled_from(["table", "json", "csv", "x"])}),
    ("contains", [_PERM, _PERM], {}, {}),
    ("decompose", [_PERM], {}, {"--k": _upto(-1, 6)}),
    ("stats", [_PERM], {}, {}),
    ("mu", [_MU], {}, {}),
    ("antichain", [], {}, {"--perms": _PERM_LIST, "--mu": _MU,
                           "--with-short-basis": _FLAG, "--graph-certify": _FLAG}),
    ("basis", [], {"--closure-of": _PERM_LIST, "--max-len": _upto(1, 6)}, {}),
    ("fit", [], {"--seq": _INTS, "--max-order": _upto(1, 6)}, {}),
    ("growth", [], {"--recurrence": _INTS}, {"--tol": _TOL}),
    ("growth", [], {"--alpha": _upto(-1, 40)}, {"--tol": _TOL, "--recurrence": _INTS}),
    ("x", [], {}, {}),  # an unknown command
]


@st.composite
def _argv(draw):
    """A command line: a subcommand with its positionals and options in any
    order, each with a value.  Now and then a positional or a required
    option is missing, or an unknown option is added."""
    def rarely():
        return draw(st.integers(0, 9)) == 0

    command, positionals, required, optional = draw(st.sampled_from(_COMMANDS))
    groups = [[draw(v)] for v in positionals if not rarely()]
    values = {**required, **optional, "--bogus": _TEXT}
    names = [n for n in required if not rarely()]
    names += [n for n in optional if draw(st.booleans())]
    names += ["--bogus"] if rarely() else []
    for name in names:
        groups.append([name] if values[name] is _FLAG else [name, draw(values[name])])
    return [command] + [a for g in draw(st.permutations(groups)) for a in g]


class TestExitCodes:
    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "contains", "xyz", "123")
        assert code == 1
        assert "xyz" in err

    def test_usage_error(self, capsys):
        assert run(capsys, "count", "--max-n", "3")[0] == 2
        for argv in (
            ("count", "--avoid", "123", "--max-n", "-3"),
            ("count", "--avoid", "123", "--max-n", "0"),
            ("basis", "--closure-of", "2413", "--max-len", "0"),
            ("basis", "--closure-of", "2413", "--max-len", "-1"),
            ("fit", "--seq", "1,2,3,4", "--max-order", "-1"),
            ("decompose", "2143", "--k", "x"),
            ("count", "--avoid", "123", "--max-n", "3", "--sep", ";"),
            ("antichain", "--perms", "12", "--sep", ";"),
            ("basis", "--closure-of", "2413", "--max-len", "4", "--sep", ";"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and "error:" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_mu_index(self, capsys):
        code, _, err = run(capsys, "mu", "4")
        assert code == 1 and "error" in err

    def test_malformed_numbers(self, capsys):
        for argv in (
            ("mu", "x"),
            ("mu", "9..x"),
            ("mu", "5..10000000000"),
            ("antichain", "--mu", "x"),
            ("growth", "--recurrence", "1,x"),
            ("growth", "--recurrence", ","),
            ("fit", "--seq", "[1,2", "--max-order", "1"),
            ("fit", "--seq", "1,x", "--max-order", "1"),
            ("fit", "--seq", "[1.5,2,3,4]", "--max-order", "1"),
            ("growth", "--alpha", "5", "--tol", "nan"),
            ("growth", "--alpha", "5", "--tol", "inf"),
            ("count", "--avoid", "123,,3214", "--max-n", "4"),
            ("count", "--avoid", "123,", "--max-n", "4"),
            ("count", "--avoid", "123;", "--max-n", "4"),
            ("antichain", "--perms", "2413,,3142"),
            ("basis", "--closure-of", "2413,,3142", "--max-len", "4"),
            ("contains", "1,+2", "123"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv, code", [
        (("mu", "7_1"), 1),
        (("growth", "--alpha", "1_0"), 2),
        (("decompose", "2143", "--k", "0_2"), 2),
        (("fit", "--seq", "1,2,5,12,28,65,152,355,829,1936,4521,1_0558",
          "--max-order", "5"), 1),
        (("fit", "--seq", "1 1\n2 2\n3 5\n4 1_2", "--max-order", "1"), 1),
        (("fit", "--seq", "1 1\n2 2\n3 5\n4_0 12", "--max-order", "1"), 1),
        (("growth", "--alpha", "5", "--tol", "1_0e-3"), 2),
    ])
    def test_digit_group_underscores_refused(self, capsys, argv, code):
        # int() reads '1_0' as 10, and float() '1_0e-3' as 0.01; no number
        # the CLI reads may
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "")
        assert len(err.splitlines()) == 1 and "error:" in err
        if code == 2:  # names the option and what it reads, not a helper
            assert f"argument {argv[-2]}: expected a" in err
            assert "_int_token" not in err

    def test_non_ascii_digits(self, capsys):
        # '²' passes str.isdigit() but not int()
        for argv in (
            ("contains", "²", "12"),
            ("stats", "1²"),
            ("count", "--avoid", "²", "--max-n", "3"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("index, lines", [("7..2001", 1), ("7", 0)])
    def test_reader_closes_pipe(self, index, lines):
        # `permclass mu 7..2001 | head -1`, and `permclass mu 7 | true`, whose
        # one line waits in the stdout buffer for the flush at exit
        with subprocess.Popen(
            [sys.executable, "-m", "permclass.cli", "mu", index],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        ) as proc:
            for _ in range(lines):
                assert proc.stdout.readline().startswith(b"7 ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_interrupted_count(self):
        # the child says "ready" just before main, so the SIGINT lands in
        # the enumeration, not in the imports
        code = ("import sys; from permclass.cli import main; "
                "print('ready', flush=True); sys.exit(main(sys.argv[1:]))")
        with subprocess.Popen(
            [sys.executable, "-c", code, "count", "--avoid", "1324", "--max-n", "16"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        ) as proc:
            try:
                assert proc.stdout.readline() == b"ready\n"
                time.sleep(0.5)
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()  # does nothing once the child has exited
        assert (proc.returncode, out) == (1, b"")
        assert err == b"error: interrupted\n"

    def test_out_of_memory(self):
        # mu(200000001) builds a 200000001-tuple; the address-space limit is
        # set in the child only
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        proc = subprocess.run(
            [sys.executable, "-m", "permclass.cli", "mu", "200000001"],
            capture_output=True, env=_child_env(), preexec_fn=limit, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: out of memory\n"

    def test_comma_form_lists_parse(self, capsys):
        for argv in (
            ("antichain", "--perms", f"{MU11};{MU13}"),
            ("basis", "--closure-of", MU13, "--max-len", "4"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
        code, out, _ = run(capsys, "count", "--avoid", MU11, "--max-n", "3")
        assert (code, out) == (0, "1 1\n2 2\n3 6\n")

    def test_non_utf8_sequence_file(self, capsys, tmp_path):
        seq_file = tmp_path / "seq.bin"
        seq_file.write_bytes(b"1 1\n2 \xff\xfe\n")
        code, out, err = run(
            capsys, "fit", "--seq", str(seq_file), "--max-order", "1"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_argv_exits_cleanly(self, data):
        argv = data.draw(_argv())
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code:
            assert len(err.getvalue().splitlines()) == 1


class TestSequenceIO:
    def test_bfile_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "count", "--avoid", "123,3214,2143,15432", "--max-n", "12"
        )
        lines = out.splitlines()
        assert lines[0] == "1 1"
        assert lines[-1] == "12 10558"
        assert _parse_sequence_text(out) == [
            1, 2, 5, 12, 28, 65, 152, 355, 829, 1936, 4521, 10558
        ]

    def test_inline_and_json(self):
        assert _parse_sequence_text("1, 2, 5") == [1, 2, 5]
        assert _parse_sequence_text("[1, 2, 5]") == [1, 2, 5]
        assert _parse_sequence_text("1 2 5") == [1, 2, 5]

    def test_malformed_text(self):
        for text in ("[1,2", "[1.5,2]", "[true]", "[[1]]", "[" * 100_000,
                     "1,x", "1 x\n2 3", "1,,2", "1, ,2", ",1"):
            with pytest.raises(InvalidSequence):
                _parse_sequence_text(text)

    def test_bfile_index_gap(self):
        # read as a flat list, the indices would become terms
        assert _parse_sequence_text("0 1\n1 1\n2 2") == [1, 1, 2]
        for text in ("1 1\n2 2\n4 5", "1 1\n1 2", "2 5\n1 2"):
            with pytest.raises(InvalidSequence):
                _parse_sequence_text(text)

    def test_empty(self):
        for text in ("", " \n", "[]", "[ ]"):
            with pytest.raises(InvalidSequence):
                _parse_sequence_text(text)


class TestPermListGrammar:
    @given(st.lists(perms(min_size=1, max_size=12), min_size=1, max_size=5))
    @settings(deadline=None)
    def test_round_trip(self, items):
        assert _parse_perm_list(";".join(map(str, items))) == items
        if all(len(q) <= 9 for q in items):
            assert _parse_perm_list(",".join(map(str, items))) == items
