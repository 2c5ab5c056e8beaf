"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import importlib.util
import inspect
import re
from functools import reduce
from pathlib import Path

import pytest

import superfs

MODULES = ["catalog", "cli", "errors", "gauge", "groups", "superalg", "surfaces",
           "twists"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"superfs.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_public_names():
    # each name superfs/__init__ imports from a module is in that module's
    # __all__ and resolves on the package
    tree = ast.parse(Path(superfs.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"superfs.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(superfs, alias.asname or alias.name) is getattr(module, alias.name)


# per-call settings that are module constants, SUPERFS_BUDGET or read off the
# inputs instead; a setting has a default, which tells it from an input of
# the same name (the ungraded irreducibles are an input: the character table
# assemble_supermodules pairs, which its stack then carries)
SETTINGS = {"tol", "cluster_tol", "max_rounds", "budget", "cap", "max_order", "strict",
            "irreps"}


def _functions(module):
    """(name, function) for each function in the module's __all__ and each
    method, classmethod and staticmethod of each class in it."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_exported_functions_take_no_settings(name):
    # every result is a function of the inputs and the seed: no exported
    # function takes a tolerance, round count, budget or mode switch
    module = importlib.import_module(f"superfs.{name}")
    functions = list(_functions(module))
    assert functions
    assert [(f, p.name) for f, fn in functions
            for p in inspect.signature(fn).parameters.values()
            if p.name in SETTINGS and p.default is not p.empty] == []


ROOT = Path(__file__).resolve().parents[1]


def _bench_spans():
    """bench/spans.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # bench/spans.py wraps each (module, dotted attribute) of TARGETS when the
    # benchmark runs with --trace 1; a renamed or deleted target breaks it
    spans = _bench_spans()
    assert spans.TARGETS
    for module, attribute, _ in spans.TARGETS:
        target = reduce(getattr, attribute.split("."),
                        importlib.import_module(f"superfs.{module}"))
        assert callable(target), (module, attribute)


def test_benchmark_span_sizers_read_their_arguments(capsys):
    # each sizer reads |G|, the surface or the result off the arguments of
    # the call it wraps; a signature it no longer fits would fail only under
    # --trace 1, so run one command of each kind under the recorder
    import superfs.cli

    spans = _bench_spans()
    twist = str(ROOT / "tests" / "golden" / "clifford2.twist.json")
    recorder = spans.Recorder()
    recorder.install()
    try:
        for argv in (["classify", "--clifford", "3"], ["verify", "--clifford", "2"],
                     ["sweep", "--groups", "z2,d4"],
                     ["partition", "--group", "z2xz2", "--phi", twist, "--alpha", twist,
                      "--family", "pin-", "--surface", "nonorientable:2"],
                     ["classify", "--group", "z2xz2", "--alpha", twist]):
            recorder.command += 1
            assert superfs.cli.main(argv) == 0, argv
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert all(not hasattr(fn, "__wrapped__") for fn in (
        superfs.cli.main, superfs.twists.validate_twist, superfs.gauge.crosscheck))
    assert recorder.spans and [span for span in recorder.spans if span[5] is None] == []
    metrics = recorder.metrics()
    assert [name for name in ("twists.validate_twist", "twists.Twist.from_fractions",
                              "twists.h2_representatives", "superalg.decompose_regular",
                              "gauge.crosscheck")
            if not metrics[f"{name}.calls"]] == []


def _resolves(name: str, owners: list) -> bool:
    for owner in owners:
        try:
            reduce(getattr, name.split("."), owner)
        except AttributeError:
            continue
        return True
    return False


def test_readme_entry_points_resolve():
    # every backticked ASCII identifier in README's "Key entry points" list
    # (dotted names through getattr) resolves on superfs or one of its
    # modules, so the docs cannot name a deleted function
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("Key entry points:", 1)[1].strip().split("\n\n", 1)[0]
    names = [span for span in re.findall(r"`([^`]+)`", section)
             if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span, flags=re.ASCII)]
    assert len(names) >= 30
    owners = [superfs, *(importlib.import_module(f"superfs.{m}") for m in MODULES)]
    assert [name for name in names if not _resolves(name, owners)] == []
