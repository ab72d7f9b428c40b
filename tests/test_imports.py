"""What each entry point imports, checked in fresh interpreters.

`import dilogeq` loads no submodule, and each subcommand loads only the
modules it runs.  In this test process earlier tests have already loaded
every module, so the import checks run in a subprocess with the package
on `PYTHONPATH`, as a one-shot command starts.
"""

import importlib

import pytest

import dilogeq
from dilogeq import cli, numerics
from helpers import ROOT, fresh

FIVE_DOC = """\
dilog-identity v1
variables: x, y
term: 1 [x]
term: 1 [y]
term: 1 [(1 - x)/(1 - x*y)]
term: 1 [1 - x*y]
term: 1 [(1 - y)/(1 - x*y)]
"""

# prints the loaded dilogeq modules as the last line of stdout
LOADED = (
    "\nimport json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dilogeq'))))\n"
)


def run_main(argv: list[str]) -> str:
    """Code that runs `cli.main(argv)` with its output swallowed, checks
    its exit code, and then prints the loaded modules."""
    return (
        "import contextlib, io\n"
        "from dilogeq import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code\n" + LOADED
    )


# -- module-set gate ------------------------------------------------------------------


def test_bare_import_loads_no_submodule():
    assert fresh("import dilogeq" + LOADED) == ["dilogeq"]


def test_blochfq_loads_only_its_own_modules():
    loaded = fresh(run_main(["blochfq", "5", "--json"]))
    expected = ["dilogeq"] + [f"dilogeq.{m}" for m in ("blochfq", "cli", "intmat", "primes", "scalars")]
    assert loaded == expected


@pytest.mark.parametrize(
    "flags, present, absent",
    [
        ([], ["wedge", "document", "numerics"], ["padic", "blochfq", "intmat"]),
        (["--padic", "5"], ["wedge", "padic"], ["blochfq", "intmat"]),
    ],
)
def test_check_loads_padic_only_with_padic(tmp_path, flags, present, absent):
    doc = tmp_path / "five.txt"
    doc.write_text(FIVE_DOC)
    loaded = set(fresh(run_main(["check", str(doc), *flags])))
    assert {f"dilogeq.{m}" for m in present} <= loaded
    assert not {f"dilogeq.{m}" for m in absent} & loaded


# -- hooks at dilogeq.cli before any document command -----------------------------------


def test_a_stub_set_before_the_first_document_command_is_called(tmp_path):
    # a name set at dilogeq.cli before the document names are bound is the
    # one main calls: binding them never replaces a name already set
    doc = tmp_path / "five.txt"
    doc.write_text(FIVE_DOC)
    code = (
        "import contextlib, io, json, sys\n"
        "from dilogeq import cli\n"
        "from dilogeq.wedge import check_constant\n"
        "seen = []\n"
        "def stub(alpha):\n"
        "    seen.append(alpha)\n"
        "    return check_constant(alpha)\n"
        "cli.check_constant = stub\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check', sys.argv[1]])\n"
        "print(json.dumps([code, len(seen), cli.check_constant is stub]))\n"
    )
    assert fresh(code, str(doc)) == [0, 1, True]


def test_tracer_wrappers_take_effect_when_only_cli_is_imported(tmp_path):
    # a traced bloch-fq run installs the tracer after importing only
    # dilogeq.cli and running blochfq: every name must still resolve, and
    # a later document command must call the wrappers
    doc = tmp_path / "five.txt"
    doc.write_text(FIVE_DOC)
    code = (
        "import contextlib, importlib, importlib.util, io, json, sys\n"
        "import dilogeq.cli as cli\n"
        "spec = importlib.util.spec_from_file_location('bench_tracer', sys.argv[1])\n"
        "tracer_mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer_mod)\n"
        "tracer = tracer_mod.Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check', sys.argv[2], '--probe', '5'])\n"
        "tracer.uninstall()\n"
        "from dilogeq import wedge\n"
        "print(json.dumps([code, sorted(tracer.calls), cli.check_constant is wedge.check_constant]))\n"
    )
    code, calls, restored = fresh(code, str(ROOT / "bench" / "tracer.py"), str(doc))
    assert code == 0 and restored
    for name in ("wedge.check", "document.load", "specialize.eval_point", "numerics.probe"):
        assert name in calls


def test_cli_resolves_a_document_name_on_first_read():
    assert fresh(
        "import json\nimport dilogeq.cli as cli\n"
        "from dilogeq.document import load_document\n"
        "print(json.dumps(cli.load_document is load_document))\n"
    )
    with pytest.raises(AttributeError):
        cli.no_such_name


# -- the package namespace ---------------------------------------------------------------


def test_every_exported_name_is_its_defining_module_object():
    for name in dilogeq.__all__:
        owner = importlib.import_module(f"dilogeq.{dilogeq._ORIGIN[name]}")
        assert getattr(dilogeq, name) is getattr(owner, name), name


def test_star_import_and_dir_list_every_exported_name():
    star, listed = fresh(
        "import json\nimport dilogeq\n"
        "names = {}\n"
        "exec('from dilogeq import *', names)\n"
        "print(json.dumps([sorted(names), dir(dilogeq)]))\n"
    )
    assert set(dilogeq.__all__) <= set(star)
    assert set(dilogeq.__all__) <= set(listed)
    assert "coprime" in listed


def test_submodule_resolves_after_a_bare_import():
    # the benchmark's tests read dilogeq.coprime.poly_gcd after `import dilogeq`
    assert fresh(
        "import json\nimport dilogeq\n"
        "print(json.dumps(callable(dilogeq.coprime.poly_gcd)))\n"
    )


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dilogeq.no_such_name
    assert not hasattr(dilogeq, "no_such_name")


# -- probe --domain ------------------------------------------------------------------------


def test_probe_domain_choices_match_numerics():
    assert cli.PROBE_DOMAINS == numerics.PROBE_DOMAINS
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    domain = next(a for a in sub.choices["probe"]._actions if a.dest == "domain")
    assert tuple(domain.choices) == numerics.PROBE_DOMAINS
