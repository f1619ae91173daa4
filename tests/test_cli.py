import ast
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import intersective.modular as modular_mod
import intersective.scanner as scanner_mod
from intersective.cli import build_parser, main
from intersective.parse import InvariantViolation
from intersective.quadcover import RootDistribution

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, expect=0):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == expect, f"exit {code}, stderr: {err.getvalue()}"
    return out.getvalue(), err.getvalue()


def run_json(*argv):
    out, _ = run_cli(*argv)
    return json.loads(out)


def as_fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_scan_json():
    obj = run_json("scan", "--poly", "[1,0,1]", "--to", "100")
    assert obj["schema"] == "v2"
    assert obj["polynomial"] == [1, 0, 1]
    assert obj["range"] == {"lo": 2, "hi": 100}
    assert obj["excluded_primes"] == [2]
    assert obj["histogram"] == {"0": 13, "2": 11}
    assert obj["good_prime_count"] == 24
    assert obj["min_roots_observed"] == 0
    assert obj["cycle_type_histogram"] is None
    assert obj["empirical_density_with_root"] == {
        "num": 11,
        "den": 24,
        "decimal": "0.458333",
    }


def test_scan_text_and_tsv():
    out, _ = run_cli("scan", "--poly", "x^2+1", "--to", "100", "--format", "text")
    assert "polynomial: x^2+1" in out
    assert "good primes: 24" in out
    assert "roots=2: 11" in out
    out, _ = run_cli("scan", "--poly", "x^2+1", "--to", "100", "--format", "tsv")
    assert out.splitlines() == ["root_count\tprimes", "0\t13", "2\t11"]


def test_scan_expression_and_list_agree():
    a = run_json("scan", "--poly", "(x^2+1)(x^2+2)(x^2-2)", "--to", "1000")
    b = run_json("scan", "--poly", "[-4,0,-4,0,1,0,1]", "--to", "1000")
    assert a == b
    assert a["excluded_primes"] == [2, 3]
    assert a["min_roots_observed"] == 2


def test_scan_output_independent_of_thread_count(monkeypatch):
    outputs = []
    for w in ("1", "2", "8"):
        monkeypatch.setenv("INTERSECTIVE_THREADS", w)
        out, _ = run_cli("scan", "--poly", "[1,0,1]", "--to", "600000")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cover_json_covers():
    obj = run_json(
        "cover", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2"
    )
    assert obj["verdict"] == "covers"
    assert obj["witness_subset"] == [1, 2, 3]
    assert obj["density_num"] == 0
    assert obj["witness_class"] is None
    assert obj["example_prime"] is None
    assert obj["forms"] == [[1, 0, 1], [1, 0, 2], [1, 0, -2]]


def test_cover_json_fails():
    obj = run_json("cover", "--form", "1,0,1")
    assert obj["verdict"] == "fails_to_cover"
    assert obj["witness_subset"] is None
    assert obj["density_num"] == 1
    assert obj["density_log2_den"] == 1
    assert obj["witness_class"] == {"-1": -1}
    assert obj["example_prime"] == 3
    obj = run_json("cover", "--form", "1,0,1", "--form", "1,0,2")
    assert obj["density_log2_den"] == 2
    assert obj["witness_class"] == {"-1": -1, "2": 1}
    assert obj["example_prime"] == 7


def test_cover_needs_no_factoring():
    # disc = 4 * 1000003 * 1000033: both primes lie beyond 10^6
    obj = run_json("cover", "--form", "1,0,-1000036000099")
    assert obj["verdict"] == "fails_to_cover"
    assert obj["density_log2_den"] == 1
    assert obj["witness_class"] == {"-1": 1, "4000144000396": -1}


def test_cover_text():
    out, _ = run_cli(
        "cover", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2",
        "--format", "text",
    )
    assert "verdict: covers all sufficiently large primes" in out
    assert "witness subset (1-based): {1, 2, 3}" in out
    out, _ = run_cli("cover", "--form", "1,0,1", "--format", "text")
    assert "verdict: fails to cover" in out
    assert "uncovered density: 1/2^1 = 0.500000" in out
    assert (
        "one assignment realized by a positive density of uncovered primes:"
        " (-1|p)=-1" in out
    )
    assert "uncovered primes realize" not in out
    assert "example uncovered prime: 3" in out


def test_cover_forms_file(tmp_path):
    path = tmp_path / "forms.txt"
    path.write_text("1,0,1\n1,0,2\n1,0,-2\n")
    obj = run_json("cover", "--forms-file", str(path))
    assert obj["verdict"] == "covers"


def test_realroots_json():
    obj = run_json("realroots", "--poly", "(x^2+1)(x^2+2)(x^2-2)")
    assert obj["count"] == 2
    coeffs = obj["polynomial"]
    assert coeffs == [-4, 0, -4, 0, 1, 0, 1]
    for iv in obj["intervals"]:
        lo, hi = as_fraction(iv["lo"]), as_fraction(iv["hi"])
        assert lo < hi
        assert hi - lo <= Fraction(1, 2**20)
        assert horner(coeffs, lo) * horner(coeffs, hi) < 0
    lo0 = as_fraction(obj["intervals"][0]["lo"])
    lo1 = as_fraction(obj["intervals"][1]["lo"])
    assert lo0 < 0 < lo1


def test_realroots_precision():
    obj = run_json("realroots", "--poly", "x^2-2", "--precision", "40")
    for iv in obj["intervals"]:
        width = as_fraction(iv["hi"]) - as_fraction(iv["lo"])
        assert width <= Fraction(1, 2**40)
    run_cli("realroots", "--poly", "x^2-2", "--precision", "-1", expect=2)


def test_realroots_text():
    out, _ = run_cli("realroots", "--poly", "x^2-2", "--format", "text")
    assert "distinct real roots: 2" in out
    assert "~ 1.4142" in out
    assert "~ -1.4142" in out


def test_census_json():
    obj = run_json("census", "--poly", "x^3-2", "--to", "100")
    cyc = obj["cycle_type_histogram"]
    assert set(cyc) == {"1,1,1", "1,2", "3"}
    assert sum(cyc.values()) == 23
    assert obj["excluded_primes"] == [2, 3]


def test_check_poly_empirical():
    # x^3 - 2 has no factor of degree <= 2: its cubic cofactor keeps it empirical
    obj = run_json("check", "--poly", "x^3-2", "--to", "1000")
    assert obj["mode"] == "empirical"
    assert obj["exact_min_roots"] is None
    assert obj["min_roots_observed"] == 0
    assert obj["real_root_count"] == 1
    assert obj["verdict"] == "consistent"
    assert obj["density_table"] is None


def test_check_poly_of_an_irreducible_quadratic_is_exact():
    obj = run_json("check", "--poly", "x^2-2", "--to", "1000")
    assert obj["mode"] == "exact"
    assert obj["exact_min_roots"] == 0
    assert obj["real_root_count"] == 2
    assert obj["verdict"] == "consistent"
    assert obj["density_table"] is None


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_poly_of_a_product_of_forms_prints_the_forms_document(fmt):
    poly, _ = run_cli("check", "--poly", "(x^2+1)*(x^2+2)*(x^2-2)", "--to", "100000",
                      "--format", fmt)
    forms, _ = run_cli("check", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2",
                       "--to", "100000", "--format", fmt)
    assert poly == forms
    assert "0.751408" in poly  # the density table: 2 roots at 75.14% of primes


def test_density_table_needs_enough_good_primes():
    # one good prime, 100003, in the range: too few for a density table
    obj = run_json("check", "--form", "1,0,1", "--from", "100001", "--to", "100003")
    assert obj["mode"] == "exact"
    assert obj["min_roots_observed"] == 0
    assert obj["density_table"] is None
    assert obj["max_abs_deviation"] is None


def test_check_forms_small_range():
    obj = run_json(
        "check", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2",
        "--to", "2000",
    )
    assert obj["mode"] == "exact"
    assert obj["exact_min_roots"] == 2
    assert obj["min_roots_observed"] == 2
    assert obj["real_root_count"] == 2
    assert obj["verdict"] == "consistent"
    assert obj["density_table"] is None


def test_check_forms_with_density_table():
    obj = run_json(
        "check", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2",
        "--to", "100000",
    )
    assert obj["mode"] == "exact"
    assert obj["verdict"] == "consistent"
    table = obj["density_table"]
    assert [row["root_count"] for row in table] == [2, 6]
    assert table[0]["exact"] == {"num": 3, "den": 4, "decimal": "0.750000"}
    assert table[1]["exact"] == {"num": 1, "den": 4, "decimal": "0.250000"}
    assert float(obj["max_abs_deviation"]) < 0.01


def test_density_json():
    obj = run_json(
        "density", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2"
    )
    assert obj["rank"] == 2
    assert obj["min_roots"] == 2
    assert obj["densities"] == {
        "2": {"num": 3, "den": 4, "decimal": "0.750000"},
        "6": {"num": 1, "den": 4, "decimal": "0.250000"},
    }
    obj = run_json("density", "--form", "1,0,1", "--form", "1,0,2")
    assert obj["densities"]["0"] == {"num": 1, "den": 4, "decimal": "0.250000"}


def test_density_refused_beyond_the_enumeration_bound(tmp_path):
    # 25 forms x^2 - p and 25 forms x^2 - p q in the same 25 classes: rank
    # 25, and the dual code has dimension 25 too
    ps = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    lines = [f"1,0,{-p}" for p in ps] + [
        f"1,0,{-ps[i] * ps[(i + 1) % 25]}" for i in range(25)
    ]
    path = tmp_path / "forms.txt"
    path.write_text("\n".join(lines) + "\n")
    out, err = run_cli("density", "--forms-file", str(path), expect=2)
    assert out == ""
    assert err.startswith("error: square-class rank 25 of 50 classes")
    assert "at most 24" in err


def test_shared_factors_count_once():
    # x^2 - 1 and x^2 - x share the root 1: 3 distinct roots everywhere
    obj = run_json(
        "check", "--form", "1,0,-1", "--form", "1,-1,0", "--to", "1000"
    )
    assert obj["exact_min_roots"] == 3
    assert obj["min_roots_observed"] == 3
    assert obj["real_root_count"] == 3
    assert obj["verdict"] == "consistent"
    half = {"num": 1, "den": 2, "decimal": "0.500000"}
    for second in ("1,0,1", "2,0,2"):
        obj = run_json("density", "--form", "1,0,1", "--form", second)
        assert obj["densities"] == {"0": half, "2": half}
        assert obj["rank"] == 1


def test_usage_errors_exit_2():
    _, err = run_cli("scan", "--poly", "x^2+", "--to", "100", expect=2)
    assert err.startswith("error:")
    run_cli("scan", "--poly", "[1,0,1]", "--to", "2000000", expect=2)
    run_cli("scan", "--poly", "[5]", "--to", "100", expect=2)
    run_cli("cover", expect=2)
    run_cli("cover", "--form", "0,0,0", expect=2)
    run_cli("check", "--to", "100", expect=2)
    run_cli("check", "--poly", "x^2-2", "--form", "1,0,1", "--to", "100", expect=2)
    run_cli("density", "--form", "1,2", expect=2)
    run_cli("cover", "--forms-file", "/no/such/file", expect=2)


def test_malformed_thread_count_names_the_variable(monkeypatch):
    for value in ("abc", "0"):
        monkeypatch.setenv("INTERSECTIVE_THREADS", value)
        out, err = run_cli("scan", "--poly", "x^2+1", "--to", "1000", expect=2)
        assert out == ""
        assert err == ("error: INTERSECTIVE_THREADS must be a positive integer, "
                       f"got '{value}'\n")


def test_cap_can_be_raised():
    obj = run_json(
        "scan", "--poly", "[1,0,1]", "--to", "1100000", "--cap", "1100000"
    )
    assert obj["range"]["hi"] == 1100000


def test_degree_beyond_exact_int64_exits_2():
    # 922 * p**2 < 2**63 <= 923 * p**2 at p = 99999989, the window's largest prime
    window = ("--from", "99999900", "--to", "100000000", "--cap", "100000000")
    for command in ("scan", "census"):
        out, err = run_cli(command, "--poly", "x^923-2", *window, expect=2)
        assert out == ""
        assert err == ("error: degree 923 at p=99999989 is beyond exact int64 "
                       "arithmetic (needs deg * p**2 < 2**63)\n")
    out, _ = run_cli("scan", "--poly", "x^922-2", *window)
    assert json.loads(out)["good_prime_count"] == 5


def test_check_of_constant_forms_exits_2_before_the_scan():
    out, err = run_cli("check", "--form", "0,0,1", "--to", "100", expect=2)
    assert out == ""
    assert err == ("error: the forms multiply to the constant 1; check needs a "
                   "form with a or b nonzero\n")
    _, err = run_cli("check", "--form", "0,0,-3", "--form", "0,0,2", "--to", "100",
                     expect=2)
    assert "the constant -6;" in err
    obj = run_json("check", "--form", "0,0,1", "--form", "1,0,1", "--to", "100")
    assert obj["verdict"] == "consistent" and obj["exact_min_roots"] == 0


def test_coefficients_beyond_4300_digits_answer():
    # Python converts at most 4300 digits between int and str by default
    proc = run_entry("realroots", "--poly", "2^20000x-1")
    assert (proc.returncode, proc.stderr) == (0, b"")
    obj = json.loads(proc.stdout)
    assert obj["count"] == 1
    assert obj["polynomial"] == [-1, 2**20000]
    proc = run_entry("realroots", "--poly", f"[-1,{10**5000}]", "--format", "text")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert f"{10**5000}x-1" in proc.stdout.decode()


def test_tsv_is_offered_by_scan_and_census_only():
    with pytest.raises(SystemExit) as exc:
        main(["cover", "--form", "1,0,1", "--format", "tsv"])
    assert exc.value.code == 2
    for command in ("realroots --poly x^2-2", "density --form 1,0,1",
                    "check --poly x^2-2 --to 100"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command.split(), "--format", "tsv"])
    out, _ = run_cli("census", "--poly", "x^3-2", "--to", "100", "--format", "tsv")
    assert out.splitlines()[0] == "root_count\tprimes"


def test_internal_check_failure_exits_3(monkeypatch):
    # cycle type (1, 1) at every prime: the parts miss the degree 3
    monkeypatch.setattr(scanner_mod, "census_block", lambda f, primes: np.tile(
        [2, 0, 0], (primes.size, 1)))
    _, err = run_cli("census", "--poly", "x^3-2", "--to", "100", expect=3)
    assert err.startswith("internal check failed:")
    assert "p=5 " in err


def test_no_check_is_a_bare_assert():
    # python -O strips assert statements; a check must raise AssertionError itself
    for path in sorted((SRC / "intersective").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name} lines {asserts}"


def test_isolation_checks_run_under_optimization():
    code = (
        "from intersective import sturm\n"
        "from intersective.intpoly import IntPoly\n"
        "sturm._refine = lambda *args: (0, 5, 6)\n"
        "try:\n"
        "    sturm.isolate_real_roots(IntPoly((-2, 0, 1)))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get(
        "PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "an isolating interval has no sign change\n"


def test_huge_exponent_exits_2_without_building_the_power():
    start = time.perf_counter()
    proc = run_entry("realroots", "--poly", "x^100000000")
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: exponent 100000000 exceeds 1000000\n"


def test_census_breaking_stickelberger_exits_3(monkeypatch):
    # type (1, 1, 1) with 3 roots at every prime: only the parity of
    # (-108 | p) = -1 at p = 5 shows that x^3 - 2 does not split there
    monkeypatch.setattr(scanner_mod, "census_block", lambda f, primes: np.tile(
        [3, 0, 0], (primes.size, 1)))
    _, err = run_cli("census", "--poly", "x^3-2", "--to", "100", expect=3)
    assert err.startswith("internal check failed:")
    assert "p=5 " in err and "Stickelberger" in err


def test_check_with_a_root_count_of_no_class_exits_3(monkeypatch):
    # Euler's criterion made to call every quadratic factor inert: 0 roots
    # at every good prime, where the classes of the triple give 2 or 6
    monkeypatch.setattr(scanner_mod, "_nonresidue", lambda d, p: np.ones(p.size, dtype=bool))
    out, err = run_cli("check", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2",
                       "--to", "1000", expect=3)
    assert out == ""
    assert err == ("internal check failed: x^6+x^4-4x^2-4 has 0 roots mod p=5, a count "
                   "no Frobenius class of the forms gives (exact counts [2, 6])\n")


def test_check_poly_with_a_root_count_of_no_class_exits_3(monkeypatch):
    # a distribution made to give 6 roots on every class: the scan's
    # least prime with 2 roots is 5
    monkeypatch.setattr(scanner_mod, "exact_root_distribution",
                        lambda forms: RootDistribution({6: Fraction(1)}, 6, 0))
    out, err = run_cli("check", "--poly", "(x^2+1)*(x^2+2)*(x^2-2)", "--to", "1000",
                       expect=3)
    assert out == ""
    assert err == ("internal check failed: x^6+x^4-4x^2-4 has 2 roots mod p=5, a count "
                   "no Frobenius class of the forms gives (exact counts [6])\n")


def test_a_stray_count_first_seen_in_a_later_block_names_its_least_prime(monkeypatch):
    # every quadratic factor reads inert above 267144, inside the second
    # block: 0 roots there, a count no class gives, first at p = 267167
    nonresidue = scanner_mod._nonresidue
    monkeypatch.setattr(scanner_mod, "_nonresidue", lambda d, p: np.where(
        p > 267144, True, nonresidue(d, p)))
    for w in ("1", "2", "8"):
        monkeypatch.setenv("INTERSECTIVE_THREADS", w)
        out, err = run_cli("check", "--form", "1,0,1", "--form", "1,0,2",
                           "--form", "1,0,-2", "--to", "600000", expect=3)
        assert out == ""
        assert err == ("internal check failed: x^6+x^4-4x^2-4 has 0 roots mod "
                       "p=267167, a count no Frobenius class of the forms gives "
                       "(exact counts [2, 6])\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_a_failing_scan_worker_exits_3_as_on_one_thread(monkeypatch):
    # the middle of three blocks fails: on two workers, in the second child
    count = scanner_mod.count_roots_block

    def patched(f, primes):
        if scanner_mod.BLOCK_SPAN < primes[0] < 2 * scanner_mod.BLOCK_SPAN:
            raise InvariantViolation(f"no roots counted from p={int(primes[0])}")
        return count(f, primes)

    monkeypatch.setattr(scanner_mod, "count_roots_block", patched)
    errs = []
    for w in ("1", "2", "8"):
        monkeypatch.setenv("INTERSECTIVE_THREADS", w)
        # x^3-x-1 has no factor of degree <= 2: its roots come from the kernel
        out, err = run_cli("scan", "--poly", "x^3-x-1", "--to", "600000", expect=3)
        assert out == ""
        errs.append(err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert errs == ["internal check failed: no roots counted from p=262147\n"] * 3


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.hook = lambda: None


def raise_unpicklable():
    raise Unpicklable


@pytest.mark.parametrize("death, errors", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), {
        "2": "error: scan worker 0 of 2 (blocks [2, 262143], [524288, 600000]) "
             "exited without a result: killed by signal 9\n",
        "8": "error: scan worker 0 of 3 (blocks [2, 262143]) "
             "exited without a result: killed by signal 9\n",
    }),
    (raise_unpicklable, {
        w: "error: scan worker 0 could not send Unpicklable('unpicklable'): "
        for w in ("2", "8")
    }),
])
def test_a_lost_scan_worker_exits_4(monkeypatch, death, errors):
    # every block fails in its worker; the test process must never run one
    parent = os.getpid()

    def patched(f, primes):
        if os.getpid() != parent:
            death()
        raise AssertionError("a block ran in the test process")

    monkeypatch.setattr(scanner_mod, "count_roots_block", patched)
    for w, expected in errors.items():
        monkeypatch.setenv("INTERSECTIVE_THREADS", w)
        out, err = run_cli("scan", "--poly", "x^3-x-1", "--to", "600000", expect=4)
        assert out == ""
        assert err.startswith(expected) and err.count("\n") == 1
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_census_with_a_negative_factor_count_exits_3(monkeypatch):
    # D_1 = 6 and D_2 = D_3 = 0 for x^6 - x - 1: the kernel's sign test
    # names the prime, so no negative count reaches the histogram; lane j
    # of the one stacked gcd call gives D_(j // n + 1)
    monkeypatch.setattr(modular_mod, "_gcd_degrees", lambda p, G, h: np.where(
        np.arange(h.shape[1]) < p.size, 6, 0))
    _, err = run_cli("census", "--poly", "x^6-x-1", "--from", "101", "--to", "101",
                     expect=3)
    assert err.startswith("internal check failed:")
    assert "p=101 " in err

def test_closed_stdout_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get(
        "PYTHONPATH", ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "intersective.cli", "census", "--poly",
             "x^3-2", "--to", "20000", "--format", "text"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr.decode()
    assert proc.returncode == 1


def run_entry(*argv):
    """One `python -m intersective.cli` run with stdout and stderr on
    pipes and PYTHONUNBUFFERED removed, so a missing flush would lose
    output."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get(
        "PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "intersective.cli", *argv],
                          capture_output=True, env=env, timeout=120)


def test_the_cli_entry_flushes_before_it_exits(monkeypatch):
    # Wilkinson-20 at 2^-3000 prints about 73 KiB, more than a pipe holds
    wilkinson = "*".join(f"(x-{k})" for k in range(1, 21))
    jobs = [("realroots", "--poly", wilkinson, "--precision", "3000"),
            ("census", "--poly", "x^3-2", "--to", "600000")]
    monkeypatch.setenv("INTERSECTIVE_THREADS", "2")  # the census forks
    sizes = []
    for argv in jobs:
        out, _ = run_cli(*argv)
        proc = run_entry(*argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.encode()
        sizes.append(len(proc.stdout))
    assert sizes[0] > 1 << 16

    proc = run_entry("scan", "--poly", "x^2+", "--to", "100")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: polynomial expression ended unexpectedly\n"
    # argparse's usage errors take Python's own exit
    proc = run_entry("scan", "--poly", "x^2+1")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"usage: intersective scan")


def test_missing_subcommand_is_argparse_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scan", "--poly", "[1,0,1]"])  # no --to


def test_negative_leading_poly_via_equals_syntax():
    obj = run_json("realroots", "--poly=-x^2+3")
    assert obj["count"] == 2
