"""numpy loads only where a prime-array kernel runs, sturm only where real
roots are counted, and dataclasses, inspect and pathlib never on the CLI's
own paths.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FORMS_20 = [f"1,0,{-p}" for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 47, 53, 59, 61, 67, 71)]


def run_python(code, flags=(), **env_overrides):
    """Run code in a new interpreter, started with the given flags, with
    the package on the path and return the last line it prints, parsed as
    JSON.  An override of None removes that variable from the child's
    environment."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get(
        "PYTHONPATH", ""))
    for name, value in env_overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_loads_numpy(*argv):
    """(exit code, stdout, whether numpy was imported) of one CLI run."""
    return run_python(
        "import contextlib, io, json, sys\n"
        "from intersective.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({list(argv)!r})\n"
        "print(json.dumps([code, out.getvalue(), 'numpy' in sys.modules]))\n"
    )


def modules_after(commands, modules):
    """Import the CLI in a new interpreter and run each command in turn;
    return which of modules are loaded after the import and after each
    command."""
    return run_python(
        "import contextlib, io, json, sys\n"
        f"modules = {list(modules)!r}\n"
        "seen = []\n"
        "def record():\n"
        "    seen.append([m for m in modules if m in sys.modules])\n"
        "from intersective.cli import main\n"
        "record()\n"
        f"for argv in {list(commands)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    record()\n"
        "print(json.dumps(seen))\n"
    )


def test_imports_do_not_load_numpy():
    for module in ("intersective", "intersective.cli"):
        loaded = run_python(
            f"import json, sys, {module}\nprint(json.dumps('numpy' in sys.modules))"
        )
        assert loaded is False, module


def test_cli_import_without_site_hooks_leaves_pathlib_unloaded():
    # python -S skips the site hooks, which load pathlib on some installs,
    # so only the CLI's own imports count; --forms-file reads with open()
    loaded = run_python(
        "import json, sys, intersective.cli\n"
        "print(json.dumps([m for m in ('pathlib', 'urllib.parse') if m in sys.modules]))",
        flags=("-S",),
    )
    assert loaded == []


def test_integer_subcommands_run_without_numpy():
    density = ["density"]
    for form in FORMS_20:
        density += ["--form", form]
    for argv in (
        ["realroots", "--poly", "x^2-2"],
        ["cover", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2"],
        density,
    ):
        code, out, loaded = cli_loads_numpy(*argv)
        assert code == 0 and out, argv
        assert loaded is False, argv
    assert json.loads(out)["rank"] == 20  # the density ran last


def test_integer_subcommands_load_neither_dataclasses_nor_inspect():
    # numpy loads inspect, so only the numpy-free jobs can check it
    seen = modules_after(
        [
            ["realroots", "--poly", "x^2-2"],
            ["density", "--form", "1,0,1", "--form", "1,0,2"],
            ["cover", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2"],
        ],
        ["dataclasses", "inspect"],
    )
    assert seen == [[]] * 4


def test_only_real_root_counts_load_sturm():
    seen = modules_after(
        [
            ["scan", "--poly", "x^2+1", "--to", "100"],
            ["census", "--poly", "x^3-2", "--to", "100"],
            ["cover", "--form", "1,0,1", "--form", "1,0,2", "--form", "1,0,-2"],
            ["cover", "--form", "1,0,1"],
            ["density", "--form", "1,0,1", "--form", "1,0,2"],
            ["check", "--form", "1,0,1", "--to", "100"],
        ],
        ["intersective.sturm"],
    )
    assert seen == [[]] * 6 + [["intersective.sturm"]]


def test_prime_array_subcommands_load_numpy():
    code, out, loaded = cli_loads_numpy("cover", "--form", "1,0,1")
    assert code == 0 and loaded
    assert json.loads(out)["example_prime"] == 3
    code, out, loaded = cli_loads_numpy("scan", "--poly", "x^2+1", "--to", "100")
    assert code == 0 and loaded
    assert json.loads(out)["histogram"] == {"0": 13, "2": 11}


def test_only_multi_block_scans_fork_workers():
    # a census to 10^5 is one scan block and forks nothing, while a scan
    # over three blocks on two workers forks exactly two children; no
    # job loads a thread pool
    forks = run_python(
        "import contextlib, io, json, os, sys\n"
        "from intersective.cli import main\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(os.getpid()))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['census', '--poly', 'x^5-x-1', '--to', '100000']) == 0\n"
        "census = len(forks)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['scan', '--poly', 'x^2+1', '--to', '600000']) == 0\n"
        "print(json.dumps([census, len(forks), 'concurrent.futures' in sys.modules]))\n",
        INTERSECTIVE_THREADS="2",
    )
    assert forks == [0, 2, False]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
def test_cli_runs_numpy_jobs_on_one_thread():
    # the pin keeps OpenBLAS from starting its worker thread, and a scan
    # forks worker processes rather than starting threads.  The
    # test process may hold the pin already (other tests import the CLI),
    # so the child starts without it.
    threads = run_python(
        "import contextlib, io, json\n"
        "from intersective.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['census', '--poly', 'x^5-x-1', '--to', '100000']) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(json.dumps(int(status.split('Threads:')[1].split()[0])))\n",
        OPENBLAS_NUM_THREADS=None,
    )
    assert threads == 1


def test_blas_thread_pin_leaves_callers_alone():
    # an explicit setting wins over the CLI's default
    assert run_python(
        "import json, os, intersective.cli\n"
        "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))\n",
        OPENBLAS_NUM_THREADS="2",
    ) == "2"
    # the library, numpy kernels included, never touches the environment
    assert run_python(
        "import json, os, intersective\n"
        "intersective.scan(intersective.IntPoly((1, 0, 1)),"
        " intersective.PrimeRange(2, 1000))\n"
        "print(json.dumps('OPENBLAS_NUM_THREADS' in os.environ))\n",
        OPENBLAS_NUM_THREADS=None,
    ) is False


def test_every_export_resolves():
    missing = run_python(
        "import json, intersective\n"
        "print(json.dumps([n for n in intersective.__all__"
        " if not hasattr(intersective, n)]))"
    )
    assert missing == []
    assert run_python(
        "import json, intersective\n"
        "from intersective.scanner import InvariantViolation\n"
        "print(json.dumps(intersective.InvariantViolation is InvariantViolation))"
    )
