"""Start-up: ``import romanoff_lab`` loads no submodule, each CLI call loads
only the modules its subcommand runs (numpy only with ``sieve``, where a table
is built or read), and every public name resolves on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import romanoff_lab

SRC = Path(__file__).resolve().parents[1] / "src"
ALWAYS = {"cli", "errors"}
SUBCOMMANDS = ("sieve", "moments", "extremal", "elliptic", "romanoff", "lemmas", "verify-all")


def run_python(args, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "ROMANOFF_LAB_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )


def loaded_modules(argv, tmp_path, code=0) -> set[str]:
    """The romanoff_lab submodules, and ``numpy`` if it is loaded, by the end of
    ``python -m romanoff_lab ARGV``, listed on stderr at exit; the call must
    exit with ``code``."""
    probe = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sorted(m for m in sys.modules\n"
        "    if m.startswith('romanoff_lab.') or m == 'numpy'), file=sys.stderr))\n"
        "sys.argv[0] = 'romanoff_lab'\n"
        "runpy.run_module('romanoff_lab', run_name='__main__', alter_sys=True)\n"
    )
    proc = run_python(["-c", probe, *argv], tmp_path)
    assert proc.returncode == code, proc.stderr[-2000:]
    return {n.split(".", 1)[-1] for n in proc.stderr.splitlines()[-1].split()}


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["--help"], set()),
        (["sieve", "--limit", "1000"], {"sieve", "numpy"}),
        (["lemmas", "--gamma"], {"lemmas"}),
        (
            ["moments", "--report", "poly", "--poly", "1,0,0", "--z", "30"],
            {"moments", "exact", "sieve", "numpy"},
        ),
        (
            ["romanoff", "--report", "theorem9", "--x", "4096"],
            {"romanoff", "sequences", "moments", "exact", "sieve", "numpy"},
        ),
    ],
)
def test_call_loads_only_its_modules(argv, extra, tmp_path):
    modules = loaded_modules(argv, tmp_path)
    assert modules == ALWAYS | extra
    assert not modules & {"verify", "elliptic"}


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        *(([command, "--help"], 0) for command in SUBCOMMANDS),
        (["moments", "--report", "theorem1"], 2),  # refused before any table
        (["lemmas", "--gamma", "--s-max", "6", "--abel", "--seed", "1"], 0),
        (["romanoff", "--report", "theorem9", "--P", "0"], 2),  # a flag theorem9 does not read
        # a value below its flag's bound in cli.REPORT_FLAGS
        (["elliptic", "--curve", "1,1", "--x", "1.5"], 2),
        (["elliptic", "--curve", "1,1", "--x", "100", "--s", "0"], 2),
        (["elliptic", "--curve", "1,1", "--x", "100", "--census-mod", "0"], 2),
        (["romanoff", "--report", "order-sum", "--P", "1"], 2),
        (["lemmas", "--gamma", "--s-max", "0"], 2),
    ],
)
def test_call_that_computes_no_table_loads_no_numpy(argv, code, tmp_path):
    assert "numpy" not in loaded_modules(argv, tmp_path, code)


def test_import_loads_no_submodule(tmp_path):
    probe = (
        "import sys, romanoff_lab as rl\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "    if m.startswith('romanoff_lab.') or m == 'numpy')\n"
        "assert loaded() == [], loaded()\n"
        "assert 'build_sieve' not in vars(rl) and 'CapacityError' not in vars(rl)\n"
        "assert rl.CapacityError is sys.modules['romanoff_lab.errors'].CapacityError\n"
        "assert 'numpy' not in sys.modules and 'CapacityError' in vars(rl)\n"
        "assert rl.elliptic is sys.modules['romanoff_lab.elliptic']\n"
        "assert rl.theorem6_report is sys.modules['romanoff_lab.romanoff'].theorem6_report\n"
        "assert 'theorem6_report' in vars(rl)\n"
    )
    proc = run_python(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestNamespace:
    def test_every_public_name_resolves(self):
        assert len(romanoff_lab.__all__) == len(set(romanoff_lab.__all__)) == 76
        for name in romanoff_lab.__all__:
            value = getattr(romanoff_lab, name)
            owners = [m for k, m in sys.modules.items() if k.startswith("romanoff_lab.")]
            assert any(vars(m).get(name) is value for m in owners), name

    def test_star_import(self):
        namespace = {}
        exec("from romanoff_lab import *", namespace)
        assert set(romanoff_lab.__all__) <= set(namespace)
        assert namespace["order_sequence"] is romanoff_lab.elliptic.order_sequence

    def test_dir_lists_lazy_names(self):
        listed = set(dir(romanoff_lab))
        assert set(romanoff_lab.__all__) <= listed
        assert {"elliptic", "verify", "cli", "__version__"} <= listed

    def test_submodule_resolves(self):
        assert romanoff_lab.elliptic is sys.modules["romanoff_lab.elliptic"]
        assert romanoff_lab.verify.verify_all is romanoff_lab.verify_all

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            romanoff_lab.no_such_name
