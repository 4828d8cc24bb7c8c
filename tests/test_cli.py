import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from cmscan import cli, fakedeg, groups, scan
from cmscan.fakedeg import GroupSpec

DATASET = """\
group G12 order 48 rank 2 degrees 6,8
"""


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cmscan", *argv],
        capture_output=True, text=True, env=env)


def crafted_division_dataset(n: int) -> str:
    """A valid file whose one division is quadratic in its size: P =
    [3]_t [n]_t, dim-1 monomial rows for P - 3f, and last the row
    f = t^2 + t^3 + t^(n/2 + 2) of dim 3, for an even n >= 8."""
    counts = [1, 2] + [3] * (n - 2) + [2, 1]  # the coefficients of P
    for e in (2, 3, n // 2 + 2):
        counts[e] -= 3
    rows = [f"irrep r{e}_{k} dim 1 fake t^{e}\n"
            for e, count in enumerate(counts) for k in range(count)]
    return (f"group X order {3 * n} rank 2 degrees 3,{n}\n" + "".join(rows)
            + f"irrep f dim 3 fake t^2 + t^3 + t^{n // 2 + 2}\n")


def wide_division_dataset() -> str:
    """A valid file for degrees 2 (69 times): P = (1 + t)^69, a row
    p = t + t^35 of dim 2, then rows c*t^k of dim c, whose dims square
    to the coefficients of P - 2p."""
    rest = [math.comb(69, e) for e in range(70)]
    rest[1] -= 2
    rest[35] -= 2
    rows = ["irrep p dim 2 fake t^35 + t\n"]
    for e, coeff in enumerate(rest):
        while coeff:
            dim = math.isqrt(coeff)
            rows.append(f"irrep c{len(rows) - 1} dim {dim} fake {dim}*t^{e}\n")
            coeff -= dim * dim
    return (f"group X order {2**69} rank 69 degrees {','.join(['2'] * 69)}\n"
            + "".join(rows))

# Size refusals of specs with a 4,000-digit number, and their whole
# stderr.  Each quoted the number in full (up to 12,097 bytes), or,
# where a value derived from it has over 4,300 digits, failed to format
# it and printed int()'s own message instead.
HUGE = "9" * 4000
CLIPPED = "9" * 37 + "..."
HUGE_SPEC_REFUSALS = [
    (("scan", f"G(7,7,{HUGE})"),
     f"more than 200000 7-multipartitions of {CLIPPED}: too many labels "
     "to enumerate"),
    (("fake-degrees", f"G(7,7,{HUGE})"),
     f"more than 200000 7-multipartitions of {CLIPPED}: too many labels "
     "to enumerate"),
    (("molien", f"G(7,7,{HUGE})"),
     f"molien series of G(7,7,{HUGE[:31]}... to t^30 may expand more than "
     "268435456 signature-table entries"),
    (("scan", f"G({HUGE},7,1)"), f"p must divide m in G({CLIPPED},7,1)"),
    (("verify-omega", f"G({HUGE},1,1)"),
     f"the powers of zeta_{CLIPPED} need at least {CLIPPED} coordinates; "
     "the limit is 4194304"),
    (("witness", f"G({HUGE},{HUGE},2)"),
     f"the witness of G({HUGE[:35]}... needs a Poincaré polynomial of "
     f"degree {CLIPPED}; the limit is 20000"),
    (("witness", f"G(4,2,{HUGE})"),
     f"the witness of G(4,2,{HUGE[:31]}... needs a Poincaré polynomial of "
     "degree a 26577-bit integer; the limit is 20000"),
    (("verify-omega", f"G(2,1,{HUGE})"),
     f"the a 26576-bit integer reflections of G(2,1,{HUGE[:31]}... cost "
     "count * n^3 * phi(m) = a 66439-bit integer; the limit is 33554432"),
]


# Address space for children that would exhaust memory if a size bound
# regressed; a regression then fails the test instead of the host.
CHILD_ADDRESS_SPACE = 512 * 2**20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_limited(*argv, timeout):
    return subprocess.run(
        [sys.executable, "-m", "cmscan", *argv], capture_output=True,
        text=True, timeout=timeout, preexec_fn=_limit_address_space)


def run_limited_drained(*argv, timeout):
    """run_limited for a report too large to hold: stdout is drained in
    1 MB chunks, keeping its first 200 and last 8 bytes."""
    with tempfile.TemporaryFile() as err, subprocess.Popen(
            [sys.executable, "-m", "cmscan", *argv], stdout=subprocess.PIPE,
            stderr=err, preexec_fn=_limit_address_space) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            head = tail = proc.stdout.read(200)
            while chunk := proc.stdout.read(1 << 20):
                tail = (tail + chunk)[-8:]
        finally:
            timer.cancel()
        proc.wait()
        err.seek(0)
        return proc.returncode, head.decode(), tail.decode(), err.read().decode()


@pytest.fixture(scope="module")
def synthetic_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.fd"
    groups = (scan.synthetic_dataset(GroupSpec(3, 3, 2)),
              scan.synthetic_dataset(GroupSpec(3, 3, 3)))
    path.write_text(scan.render_dataset(groups), encoding="utf-8")
    return path


# Groups that verify-omega and molien refuse by the size of what they
# would build, with the start of each refusal.
REFUSED_PROBES = [
    ("verify-omega", "G(20000,1,1)", "the powers of zeta_20000 need"),
    ("verify-omega", "G(100000,1,1)", "the powers of zeta_100000 need"),
    ("verify-omega", "G(1000000000,1,1)",
     "the powers of zeta_1000000000 need at least 1000000000 coordinates;"),
    ("verify-omega", "G(618970019642690137449562111,1,1)",
     "the powers of zeta_618970019642690137449562111 need at least"),
    ("verify-omega", "G(3,1,1000)", "the 1500500 reflections of G(3,1,1000)"),
    ("verify-omega", "G(2,1,10000000)",
     "the 100000000000000 reflections of G(2,1,10000000)"),
    ("molien", "G(300,1,2)", "molien series of G(300,1,2) to t^30 may"),
    ("molien", "G(700,1,2)", "molien series of G(700,1,2) to t^30 may"),
    ("molien", "G(20000,1,1)", "molien series of G(20000,1,1) to t^30 may"),
    ("molien", "G(2,1,10000000)",
     "molien series of G(2,1,10000000) to t^30 may"),
]


class TestExitCodes:
    def test_fake_degrees_ok(self):
        proc = run_cli("fake-degrees", "G(3,3,2)")
        assert proc.returncode == 0
        assert "3 labels" in proc.stdout

    def test_scan_findings_are_not_errors(self):
        proc = run_cli("scan", "G(3,3,3)")
        assert proc.returncode == 0
        assert "singular for all parameters" in proc.stdout

    @pytest.mark.parametrize("json_flag", [(), ("--json",)],
                             ids=["text", "json"])
    def test_closed_stdout_is_exit_141_and_quiet(self, json_flag):
        # The report is megabytes long, so the first line is read and
        # the pipe closed while the command is still writing.
        with subprocess.Popen(
                [sys.executable, "-m", "cmscan", "scan", "G(10,5,6)",
                 *json_flag],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        assert proc.returncode == 141
        assert err == b""

    def test_witness_match(self):
        proc = run_cli("witness", "G(5,5,2)")
        assert proc.returncode == 0
        assert "matches the predicted failure" in proc.stdout

    def test_witness_mismatch_is_exit_1(self):
        proc = run_cli("witness", "G(3,3,2)")
        assert proc.returncode == 1
        assert "does NOT fail" in proc.stdout

    def test_witness_on_an_isomorphic_group_is_exit_1_with_its_note(self):
        proc = run_cli("witness", "G(2,2,3)")
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[-1] == (
            "  note: G(2,2,3) is isomorphic to G(1,1,4) (the symmetric group S4)")

    def test_witness_undefined_family_is_exit_2(self):
        proc = run_cli("witness", "G(3,1,2)")
        assert proc.returncode == 2
        assert "cmscan: error:" in proc.stderr

    def test_bad_group_grammar_is_exit_2(self):
        proc = run_cli("scan", "G(4,3,2)")
        assert proc.returncode == 2
        assert "cmscan: error:" in proc.stderr

    def test_long_bad_group_is_quoted_briefly(self):
        # The whole spec was echoed: 100,047 bytes of stderr.
        proc = run_cli("scan", "H" * 100_000)
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: bad group '" + "H" * 37
                               + "...'; expected G(m,p,n)\n")

    def test_group_digits_are_ascii(self):
        # int() reads any Unicode digit: this scanned G(2,1,2), exit 0.
        proc = run_cli("scan", "G(\uff12,1,2)")
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: bad group 'G(\uff12,1,2)'; "
                               "expected G(m,p,n)\n")
        assert proc.stdout == ""

    def test_verify_omega_ok(self):
        proc = run_cli("verify-omega", "G(4,2,2)")
        assert proc.returncode == 0
        assert "closed form agrees" in proc.stdout

    def test_verify_omega_reducible_is_exit_2(self):
        proc = run_cli("verify-omega", "G(2,2,2)")
        assert proc.returncode == 2
        assert "reducible" in proc.stderr

    def test_verify_omega_field_bound_is_exit_2(self):
        # The 4098 reflections of G(4099,1,1) are within their bound, but
        # the powers of zeta_4099 would take 16,797,702 ints: refused
        # before they are built, although the group has 4099 elements.
        proc = run_limited("verify-omega", "G(4099,1,1)", timeout=30)
        assert proc.returncode == 2
        assert proc.stderr == (
            "cmscan: error: the powers of zeta_4099 need 16797702 "
            "coordinates; the limit is 4194304\n")
        assert proc.stdout == ""

    def test_verify_omega_never_enumerates_the_group(self, monkeypatch,
                                                     capsys):
        # Only the 2 * 4 diagonal reflections and the 6 * 6 transpositions
        # of G(6,2,4) are built, not its 15552 elements.
        built = []
        real = groups.MonomialElement.__new__

        def spy(cls, *fields):
            built.append(fields)
            return real(cls, *fields)

        monkeypatch.setattr(groups.MonomialElement, "__new__", spy)
        assert cli.main(["verify-omega", "G(6,2,4)"]) == 0
        assert "3 reflection class(es)" in capsys.readouterr().out
        assert len(built) == 2 * 4 + 6 * 6

    def test_molien_ok(self):
        proc = run_cli("molien", "G(3,3,2)", "--truncate", "12")
        assert proc.returncode == 0
        assert "agreement: OK" in proc.stdout

    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() reads as 3.
    @pytest.mark.parametrize("value", ["-1", "x", "\u0663"])
    def test_molien_bad_truncate_is_exit_2(self, value):
        proc = run_cli("molien", "G(3,3,2)", "--truncate", value)
        assert proc.returncode == 2
        assert "--truncate" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_molien_long_truncate_is_quoted_briefly(self):
        # The whole value was echoed: 5,128 bytes for 5,000 digits.
        proc = run_cli("molien", "G(3,3,2)", "--truncate", "9" * 5000)
        assert proc.returncode == 2
        assert proc.stderr == (
            "usage: cmscan molien [-h] [--json] [--truncate TRUNCATE] group\n"
            "cmscan molien: error: argument --truncate: invalid nonnegative "
            "int value: '" + "9" * 37 + "...'\n")

    def test_molien_truncate_bound_is_exit_2(self):
        # (truncate + 1) * m above polycore.MAX_SPAN is refused before
        # the 10^9-row series table is allocated.
        proc = subprocess.run(
            [sys.executable, "-m", "cmscan", "molien", "G(2,1,2)",
             "--truncate", "1000000000"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert "the limit is 1048576" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_molien_non_rational_is_exit_1(self, monkeypatch, capsys):
        real = groups._signature_counts

        def corrupted(g):
            # One count of the identity moved to diag(zeta_3, 1): the t^1
            # coefficient is no longer rational.
            counts = real(g)
            counts[((1, 0), (1, 0))] -= 1
            counts[((1, 0), (1, 1))] += 1
            return counts

        monkeypatch.setattr(groups, "_signature_counts", corrupted)
        assert cli.main(["molien", "G(3,1,2)"]) == 1
        err = capsys.readouterr().err
        assert err == ("cmscan: verification mismatch: "
                       "Molien coefficient at t^1 is not rational\n")

    @pytest.mark.parametrize("group, message", [
        ("G(2,2,400)", "degree 159600; the limit is 20000"),
        ("G(100000,100000,2)", "degree 100000; the limit is 20000"),
        ("G(2,2,1000000000)", "the limit is 20000"),
        ("G(448,448,2)", "p*m = 200704 components; the limit is 200000"),
    ])
    def test_witness_size_bound_is_exit_2(self, group, message):
        proc = subprocess.run(
            [sys.executable, "-m", "cmscan", "witness", group],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert message in proc.stderr
        assert proc.stdout == ""

    def test_g4_ok(self):
        proc = run_cli("g4")
        assert proc.returncode == 0
        assert "all 13 checks passed" in proc.stdout

    def test_g4_battery_failure_is_exit_1(self, monkeypatch, capsys):
        # A failed identity of the battery is a mismatch, even where the
        # check that finds it is a decomposition: g4 reads no input.
        from cmscan import g4
        monkeypatch.setattr(g4, "F_CHARACTER",
                            g4.class_function((1, 0, 0, 0, 0, 0, 0)))
        assert cli.main(["g4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("cmscan: verification mismatch: not a "
                                "virtual character: <chi, T> = 1/24\n")

    def test_table1_without_data_is_exit_2(self):
        proc = run_cli("table1")
        assert proc.returncode == 2
        assert "--data" in proc.stderr

    def test_table1_missing_file_is_exit_2(self):
        proc = run_cli("table1", "--data", "/nonexistent/path.fd")
        assert proc.returncode == 2

    def test_table1_synthetic_data(self, synthetic_file):
        proc = run_cli("table1", "--data", str(synthetic_file))
        assert proc.returncode == 0
        assert "2 group(s)" in proc.stdout
        assert "no expected count" in proc.stdout

    def test_table1_count_mismatch_is_exit_1(self, tmp_path):
        synth = scan.synthetic_dataset(GroupSpec(3, 3, 3))
        renamed = scan.ExceptionalGroupData(
            "G12", synth.order, synth.rank, synth.degrees, synth.rows)
        path = tmp_path / "mislabeled.fd"
        path.write_text(scan.render_dataset((renamed,)), encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 1
        assert "MISMATCH" in proc.stdout

    def test_table1_group_number_is_ascii(self, tmp_path):
        # G followed by an Arabic-Indic five was compared with G5's
        # published count: "0 failures, expected 3 -- MISMATCH", exit 1.
        synth = scan.synthetic_dataset(GroupSpec(2, 1, 2))
        renamed = scan.ExceptionalGroupData(
            "G\u0665", synth.order, synth.rank, synth.degrees, synth.rows)
        path = tmp_path / "arabic-indic.fd"
        path.write_text(scan.render_dataset((renamed,)), encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "  G\u0665: 0 failures (no expected count)\n" in proc.stdout
        assert "MISMATCH" not in proc.stdout

    def test_table1_invalid_dataset_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.fd"
        path.write_text(DATASET, encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert "cmscan: error:" in proc.stderr

    @pytest.mark.parametrize("rows, message", [
        ("sgn dim 1 fake t\nirrep z dim 0 fake t - 1",
         "G5 row z: dim 0 is not positive"),
        ("sgn dim 1 fake t\nirrep z dim 0 fake 0",
         "G5 row z: dim 0 is not positive"),
        # validate refuses f(1) != dim before the divisibility test sees it.
        ("sgn dim 1 fake t + t^2", "G5 row sgn: f(1) = 2 != dim 1"),
        # A fake degree is a graded multiplicity: no negative coefficient,
        # and no degree above deg P = 1.
        ("sgn dim 1 fake 2*t - 1",
         "G5 row sgn: fake degree has a negative coefficient"),
        ("sgn dim 1 fake t^2",
         "G5 row sgn: fake degree has degree 2, above deg P = 1"),
    ], ids=["dim-0", "dim-0-zero-f", "f1-not-dim", "negative-coefficient",
            "above-deg-p"])
    def test_table1_bad_row_is_exit_2(self, tmp_path, rows, message):
        path = tmp_path / "bad-row.fd"
        path.write_text("group G5 order 2 rank 1 degrees 2\n"
                        f"irrep triv dim 1 fake 1\nirrep {rows}\n",
                        encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"cmscan: error: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("degrees, message", [
        ("6,,12", "line 2: group G4: bad degree list"),
        ("0,4", "line 2: group G4: degrees must be at least 1"),
        ("20000000", "line 2: group G4: the degrees give a Poincaré "
                     "polynomial of degree 19999999"),
    ])
    def test_table1_bad_degrees_is_exit_2(self, tmp_path, degrees, message):
        path = tmp_path / "degrees.fd"
        path.write_text(f"# header\ngroup G4 order 24 rank 2 degrees {degrees}\n",
                        encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert message in proc.stderr

    # Each file is valid with ASCII digits; with a fullwidth or an
    # Arabic-Indic digit in one place, int() used to read it and the
    # command exited 0.
    @pytest.mark.parametrize("line, replacement, message", [
        (0, "group G order \uff12 rank 1 degrees 2",
         "line 1: unrecognized line 'group G order \uff12 rank 1 degrees 2'"),
        (0, "group G order 2 rank \uff11 degrees 2",
         "line 1: unrecognized line 'group G order 2 rank \uff11 degrees 2'"),
        (0, "group G order 2 rank 1 degrees \uff12",
         "line 1: unrecognized line 'group G order 2 rank 1 degrees \uff12'"),
        (1, "irrep a dim \uff11 fake 1",
         "line 2: unrecognized line 'irrep a dim \uff11 fake 1'"),
        (2, "irrep b dim 1 fake \u0661*t^\u0661",
         "line 3: bad polynomial text '\u0661*t^\u0661'"),
    ], ids=["order", "rank", "degrees", "dim", "fake-degree"])
    def test_table1_digits_are_ascii(self, tmp_path, line, replacement,
                                     message):
        lines = ["group G order 2 rank 1 degrees 2", "irrep a dim 1 fake 1",
                 "irrep b dim 1 fake t"]
        lines[line] = replacement
        path = tmp_path / "digits.fd"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert proc.stderr == f"cmscan: error: {message}\n"
        assert proc.stdout == ""

    def test_table1_whitespace_run_is_refused_quickly(self, tmp_path):
        # The term-at-a-time scanner took about 10 s on this 64 KB row.
        path = tmp_path / "spaces.fd"
        path.write_text("group G4 order 24 rank 2 degrees 4,6\n"
                        "irrep phi dim 1 fake 2" + " " * 64_000 + "x\n",
                        encoding="utf-8")
        start = time.perf_counter()
        proc = run_cli("table1", "--data", str(path))
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2
        assert proc.stderr.startswith("cmscan: error: line 2: ")
        assert len(proc.stderr) < 200

    @pytest.mark.parametrize("text, start", [
        ("group G4 order 24 rank 2 degrees 4,6\n"
         "irrep x dim 1 fak " + "y" * 10**6 + "\n", "line 2: "),
        ("group G4 order 24 rank 2 degrees 4," + "9" * 5000 + "\n", "line 1: "),
        ("group G4 order 24 rank 2 degrees 4," + "9" * 4000 + "\n", "line 1: "),
        ("group " + "g" * 10**5 + " order " + "9" * 4000
         + " rank 1 degrees 2\nirrep a dim 1 fake 1\n",
         "g" * 37 + "...: sum of dim^2 is 1, order is " + "9" * 37 + "...\n"),
        ("group G order 1 rank 1 degrees 2\n"
         "irrep a dim " + "9" * 4000 + " fake 1\n",
         f"G: sum of dim^2 is a {((10**4000 - 1) ** 2).bit_length()}-bit "
         "integer, order is 1\n"),
        ("group G order " + "1" + "0" * 4000 + " rank 1 degrees 2\n"
         "irrep " + "r" * 10**5 + " dim 1" + "0" * 2000 + " fake 1\n",
         "G row " + "r" * 37 + "...: f(1) = 1 != dim 1" + "0" * 36 + "...\n"),
        ("group G order 2 rank 1 degrees 2\nirrep a dim 1 fake 1\n"
         "irrep b dim 1 fake t^" + "9" * 4000 + "\n",
         "G row b: fake degree has degree " + "9" * 37 + "..., above deg "
         "P = 1\n"),
    ], ids=["unrecognized-line", "long-degree", "huge-degree", "long-name-order",
            "huge-square-sum", "long-row-dim", "wide-graded-sum"])
    def test_table1_quotes_a_long_line_briefly(self, tmp_path, text, start):
        # These errors used to quote the whole line, the degree list past
        # int()'s digit limit, the degree sum below it, the group name,
        # row ident and the integers of validate's identities, or the span
        # of a graded sum (naming no group; a row above deg P is now
        # refused first); a square sum past the digit limit gave only
        # int()'s message.
        path = tmp_path / "long.fd"
        path.write_text(text, encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("cmscan: error: " + start)
        assert len(proc.stderr.encode()) < 200

    # Every identity but the coefficients' sign holds, so this file
    # used to exit 0 with "failing rows: a".
    NEGATIVE = ("group G order 2 rank 1 degrees 2\n"
                "irrep a dim 1 fake 1 + t - t^2\nirrep b dim 1 fake t^2\n")

    @pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimized"])
    def test_table1_negative_coefficient_is_exit_2(self, tmp_path, flags):
        path = tmp_path / "negative.fd"
        path.write_text(self.NEGATIVE, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "cmscan", "table1", "--data",
             str(path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: G row a: fake degree has a "
                               "negative coefficient\n")
        assert proc.stdout == ""

    def test_table1_far_exponent_is_refused_before_packing(self, tmp_path):
        # Packed at 8 bits a slot, t^(10^4000 - 1) would be an integer of
        # about 10^4001 bits; deg P bounds every row first.
        path = tmp_path / "far.fd"
        path.write_text("group G order 2 rank 1 degrees 2\n"
                        "irrep a dim 1 fake 1\n"
                        "irrep b dim 1 fake t^" + "9" * 4000 + "\n",
                        encoding="utf-8")
        proc = run_limited("table1", "--data", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: G row b: fake degree has degree "
                               + "9" * 37 + "..., above deg P = 1\n")

    def test_table1_graded_sum_slots_follow_p(self, tmp_path):
        # sum(dim^2) = order = 10^4000 while P(1) = 2^20 + 1: at slots of
        # 13,296 bits, P would pack into 1.7 GB.  The rule at t = 1 is
        # checked before anything is packed.
        path = tmp_path / "slots.fd"
        path.write_text(f"group G order {10**4000} rank 1 degrees "
                        f"{2**20 + 1}\nirrep a dim {10**2000} fake "
                        f"{10**2000}\n", encoding="utf-8")
        proc = run_limited("table1", "--data", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: G: sum of dim * f differs from "
                               "the coinvariant Poincaré polynomial\n")

    @pytest.mark.parametrize("degrees, start", [
        (",".join(["2"] * 8000), "line 1: group X: expanding the Poincaré "
         "polynomial of these degrees costs 16002000000; the limit is "),
        ("16384," + ",".join(["1"] * 40000), "X: sum of dim * f differs"),
    ], ids=["8000-twos", "40000-ones"])
    def test_table1_header_expansion_is_bounded(self, tmp_path, degrees, start):
        # Expanding P for these headers took 20 s and 37 s: one pass per
        # degree, over coefficients growing to the bits of prod d_i, and
        # two passes for each degree 1.  The first is now refused by its
        # cost, and the second costs one pass.
        path = tmp_path / "header.fd"
        rank = degrees.count(",") + 1
        path.write_text(f"group X order 1 rank {rank} degrees {degrees}\n"
                        "irrep a dim 1 fake 1\n", encoding="utf-8")
        begin = time.perf_counter()
        proc = run_cli("table1", "--data", str(path))
        assert time.perf_counter() - begin < 2
        assert proc.returncode == 2
        assert proc.stderr.startswith("cmscan: error: " + start)
        assert len(proc.stderr.encode()) < 200

    def test_table1_division_work_is_bounded(self, tmp_path):
        # The least even N whose crafted file passes scan.MAX_DIVISION_COST
        # = 2^25: the monomials' divisor 1 costs N + 2 and f's
        # (N/2 + 2)(N/2 + 1), 33,564,640 in all (33,553,054 at N - 2).
        # Without the limit the file ran in 0.57 s on a 2-core x86-64
        # host, 0.22 s of it f's division, which is now never started.
        path = tmp_path / "crafted.fd"
        path.write_text(crafted_division_dataset(11_582), encoding="utf-8")
        proc = run_cli("table1", "--data", str(path))
        assert proc.returncode == 2
        assert proc.stderr == ("cmscan: error: X row f: the file's divisions "
                               "would cost 33564640; the limit is 33554432\n")
        assert len(proc.stderr.encode()) < 200

    # crafted_division_dataset(16): P has 18 coefficients of one word.
    # The monomial rows share the divisor 1, 18 steps of one term: 18,
    # charged at the first row.  f = t^2 + t^3 + t^10 divides by
    # 1 + t + t^8, 10 steps of 9 terms: 90, so the file costs 108.
    # STEP: P = 1 + 2t + 2t^2 + 2t^3 + t^4, and f = t + t^3 divides by
    # 1 + t^2, a polynomial in t^2: 3 steps of 2 terms, 6.  Then the
    # divisor 1 costs 5.
    STEP = ("group X order 8 rank 2 degrees 2,4\n"
            "irrep f dim 2 fake t + t^3\nirrep a dim 1 fake 1\n"
            "irrep b dim 1 fake t^2\nirrep c dim 1 fake t^2\n"
            "irrep d dim 1 fake t^4\n")

    # WIDE: P = (1 + t)^69, whose largest coefficient takes two words.
    # p = t + t^35 divides by 1 + t^34, a polynomial in t^34: 36 steps
    # of 2 terms, 144.  The rows c*t^k, of constant shape, share the
    # divisor 1, 70 steps of 1 term: 140.
    WIDE = wide_division_dataset()

    @pytest.mark.parametrize("text, limit, refused", [
        (crafted_division_dataset(16), 108, None),
        (crafted_division_dataset(16), 107, "f"),
        (crafted_division_dataset(16), 17, "r0_0"),
        (STEP, 11, None), (STEP, 10, "a"), (STEP, 5, "f"),
        (WIDE, 284, None), (WIDE, 283, "c0"), (WIDE, 141, "p"),
    ], ids=["n16-108", "n16-107", "n16-17", "step-11", "step-10", "step-5",
            "wide-284", "wide-283", "wide-141"])
    def test_division_cost_is_charged_per_new_divisor(self, monkeypatch, text,
                                                      limit, refused):
        monkeypatch.setattr(scan, "MAX_DIVISION_COST", limit)
        groups = scan.parse_dataset(text)
        if refused is None:
            scan.scan_dataset(groups)
        else:
            with pytest.raises(scan.DatasetError, match=f"^X row {refused}: "
                               "the file's divisions would cost "):
                scan.scan_dataset(groups)

    def test_table1_fake_degrees_are_bounded_per_file(self, tmp_path):
        # Each row fits MAX_SPAN, but 200 dense rows of about 2**20
        # coefficients used to exhaust memory (exit 3, MemoryError).
        rows = "".join(f"irrep r{k} dim 2 fake t^{2**20 - k} + 1\n"
                       for k in range(1, 201))
        path = tmp_path / "dense.fd"
        path.write_text(f"group X order {2**20 + 1} rank 1 degrees "
                        f"{2**20 + 1}\n" + rows, encoding="utf-8")
        assert path.stat().st_size < 8_000
        proc = run_limited("table1", "--data", str(path), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("cmscan: error: line 3: the fake "
                                      "degrees so far hold")

    def test_unknown_command_is_exit_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_oversized_group_is_refused_before_enumeration(self):
        # 9,869,990 labels: enumerating them used to exhaust memory.
        proc = subprocess.run(
            [sys.executable, "-m", "cmscan", "scan", "G(20,1,8)"],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2
        assert ("cmscan: error: more than 200000 20-multipartitions of 8"
                in proc.stderr)

    @pytest.mark.parametrize("group, labels", [("G(1000,1000,1)", 1),
                                               ("G(1000,1,1)", 1000),
                                               ("G(2000,2000,1)", 1)])
    def test_large_m_scans(self, group, labels):
        # One recursion level per component used to overflow the stack;
        # G(2000,2000,1)'s labels hold 4,000,000 components.
        proc = run_limited("scan", group, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith(f"scan {group}: {labels} labels, 0 failures")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_large_reports_are_streamed(self, json_flag):
        # 155,584 labels and about 280 MB of report: joining the report
        # into one string used to exhaust the address space.
        code, head, tail, err = run_limited_drained(
            "scan", "G(16,1,6)", *json_flag, timeout=180)
        assert code == 0, err[-2000:]
        if json_flag:
            assert head.startswith('{\n  "failures": 0,\n  "group": '
                                   '"G(16,1,6)",\n  "labels": 155584,\n')
            assert tail.endswith("\n  ]\n}\n")
        else:
            assert head.startswith("scan G(16,1,6): 155584 labels, 0 failures")
            assert tail.endswith("\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_reports_are_written_in_batches(self, json_flag, monkeypatch):
        # An unbuffered stdout (python -u) makes each write call a
        # system call: this report of 3,886 lines takes one a batch of
        # BATCH_CHARS characters, and no batch holds much more.
        sizes = []

        class CountingStdout(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["scan", "G(10,5,6)", *json_flag]) == 0
        text = out.getvalue()
        assert text.count("\n") >= 3_886
        assert len(sizes) <= len(text) // cli.BATCH_CHARS + 1
        assert min(sizes[:-1]) >= cli.BATCH_CHARS
        assert max(sizes) < cli.BATCH_CHARS + 10_000

    def test_too_many_components_is_refused_before_enumeration(self):
        # 45,450 labels, below the label bound, in 13,635,000 components.
        proc = run_limited("scan", "G(300,1,2)", timeout=30)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == (
            "cmscan: error: the 45450 300-multipartitions of 2 hold 13635000 "
            "components; the limit is 10000000\n")
        assert proc.stdout == ""

    # verify-omega and molien are bounded by what they build, not by the
    # group order: these run although four of them have more than 10^9
    # elements, and the REFUSED_PROBES stop at once.
    @pytest.mark.parametrize("argv", [
        ("verify-omega", "G(2,1,10)"), ("verify-omega", "G(4,2,12)"),
        ("verify-omega", "G(2000,1,1)"), ("molien", "G(2,1,12)"),
        ("molien", "G(4,1,8)"), ("molien", "G(100,1,2)"),
    ], ids=" ".join)
    def test_size_probe_is_accepted(self, argv, capsys):
        assert cli.main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.endswith("closed form agrees)\n" if argv[0] == "verify-omega"
                            else "agreement: OK\n")

    def test_group_without_reflections_runs_for_any_m(self, capsys):
        # G(m,m,1) is trivial, so Q(zeta_m) is never built, even for
        # the prime m = 2^89 - 1.
        g = f"G({2**89 - 1},{2**89 - 1},1)"
        assert cli.main(["verify-omega", g]) == 0
        assert capsys.readouterr() == (
            f"restricted form sums for {g}: 0 reflection class(es)\n", "")

    @pytest.mark.parametrize("command, group, message", REFUSED_PROBES,
                             ids=[f"{c} {g}" for c, g, _ in REFUSED_PROBES])
    def test_size_probe_is_refused_at_once(self, command, group, message):
        # Under the 512 MB address space: a check that regressed would
        # exhaust memory or exit 3 instead.
        proc = run_limited(command, group, timeout=30)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr.startswith(f"cmscan: error: {message} ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, message", HUGE_SPEC_REFUSALS,
                             ids=[" ".join(argv).replace(HUGE, "9*4000")
                                  for argv, _ in HUGE_SPEC_REFUSALS])
    def test_huge_spec_is_quoted_briefly(self, argv, message):
        proc = run_limited(*argv, timeout=30)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == f"cmscan: error: {message}\n"
        assert len(proc.stderr.encode()) < 200
        assert proc.stdout == ""

    def test_unexpected_exception_is_exit_3(self, monkeypatch, capsys):
        def broken(g):
            raise KeyError("boom")

        monkeypatch.setattr(scan, "scan_group", broken)
        assert cli.main(["scan", "G(3,3,3)"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert captured.err.splitlines()[-1] == (
            "cmscan: internal error: KeyError: 'boom'")

    def test_non_polynomial_fake_degree_is_exit_1(self, monkeypatch, capsys):
        # A hook of length n + 1 = 4 makes a division leave a remainder:
        # a broken identity, not a crash.
        real = fakedeg._hooks
        monkeypatch.setattr(fakedeg, "_hooks", lambda mp: real(mp) + (4,))
        assert cli.main(["scan", "G(4,2,3)"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cmscan: verification mismatch: ")
        assert "leaves a remainder" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, owner", [
        ("scan", fakedeg), ("witness", scan)], ids=["scan", "witness"])
    def test_dimension_mismatch_is_exit_1(self, monkeypatch, capsys,
                                          command, owner):
        # f(1) = dim is an identity of the computed fake degrees, so its
        # failure is a mismatch, not a usage or data error.
        real = fakedeg.irr_dimension
        monkeypatch.setattr(owner, "irr_dimension",
                            lambda g, orbit: real(g, orbit) + 1)
        assert cli.main([command, "G(3,3,2)"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cmscan: verification mismatch: dim ")
        assert "Traceback" not in err

    def test_threads_option_is_gone(self, synthetic_file):
        for argv in (("scan", "G(3,3,3)"),
                     ("table1", "--data", str(synthetic_file))):
            proc = run_cli(*argv, "--threads", "4")
            assert proc.returncode == 2, argv
            assert "unrecognized arguments: --threads 4" in proc.stderr


class TestJson:
    @pytest.mark.parametrize("argv", [
        ("fake-degrees", "G(4,2,2)"),
        ("scan", "G(2,2,4)"),
        ("witness", "G(6,6,2)"),
        ("verify-omega", "G(3,3,2)"),
        ("molien", "G(2,1,2)", "--truncate", "10"),
        ("g4",),
    ])
    def test_json_parses_and_matches_text_content(self, argv):
        text = run_cli(*argv)
        as_json = run_cli(*argv, "--json")
        assert text.returncode == as_json.returncode
        doc = json.loads(as_json.stdout)
        assert isinstance(doc, dict)

    def test_scan_json_content(self):
        proc = run_cli("scan", "G(3,3,3)", "--json")
        doc = json.loads(proc.stdout)
        assert doc["group"] == "G(3,3,3)"
        assert doc["failures"] == 4
        assert len(doc["verdicts"]) == doc["labels"]

    def test_witness_json_content(self):
        proc = run_cli("witness", "G(5,5,2)", "--json")
        doc = json.loads(proc.stdout)
        assert doc["fake_degree"] == "t^4 + t"
        assert doc["matches_prediction"] is True


class TestLazyOutput:
    """Only the format that is printed gets built."""

    @pytest.mark.parametrize("argv, unused", [
        (("scan", "G(3,3,3)", "--json"), (scan.ScanReport, "render")),
        (("scan", "G(3,3,3)"), (scan.ScanReport, "to_dict")),
        (("witness", "G(5,5,2)", "--json"), (scan.WitnessReport, "render")),
        (("witness", "G(5,5,2)"), (scan.WitnessReport, "to_dict")),
        (("table1", "--json"), (scan.CountComparison, "render")),
        (("table1",), (scan.ScanReport, "to_dict")),
    ])
    def test_other_format_is_not_built(self, argv, unused, synthetic_file,
                                       monkeypatch, capsys):
        if argv[0] == "table1":
            argv += ("--data", str(synthetic_file))
        assert cli.main(list(argv)) == 0
        expected = capsys.readouterr().out
        owner, name = unused
        original = getattr(owner, name)
        calls = []

        def spy(self, *args):
            calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(owner, name, spy)
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out == expected
        assert calls == []


class TestDeterminism:
    CASES = [
        ("fake-degrees", "G(4,4,3)"),
        ("scan", "G(3,3,3)", "--json"),
        ("verify-omega", "G(4,2,2)"),
        ("g4",),
    ]

    @pytest.mark.parametrize("argv", CASES)
    def test_repeated_runs_are_byte_identical(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode

    @pytest.mark.parametrize("argv", CASES)
    def test_hash_seed_does_not_leak_into_output(self, argv):
        seed0 = run_cli(*argv, env_extra={"PYTHONHASHSEED": "0"})
        seed1 = run_cli(*argv, env_extra={"PYTHONHASHSEED": "1"})
        assert seed0.stdout == seed1.stdout

    def test_optimized_interpreter_gives_identical_scan(self):
        argv = ["-m", "cmscan", "scan", "G(3,3,3)"]
        normal = subprocess.run([sys.executable, *argv], capture_output=True)
        optimized = subprocess.run([sys.executable, "-O", *argv],
                                   capture_output=True)
        assert normal.returncode == optimized.returncode == 0
        assert optimized.stdout == normal.stdout
