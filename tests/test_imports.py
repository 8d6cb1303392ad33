import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# together these added about half a second to every cold start while the
# package called one function from them (fftconvolve, norm.cdf/pdf);
# scipy.fft and scipy.special give the same values.  scipy.optimize (with
# the scipy.linalg, scipy.sparse and scipy.spatial it loads) cost about
# 0.14 s and 23 MB of every start for one L-BFGS driver, now in
# rate_functions
HEAVY = (
    "scipy.signal",
    "scipy.stats",
    "scipy.interpolate",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.spatial",
)


def test_package_import_loads_no_heavy_scipy_subpackage():
    code = (
        "import sys\n"
        "import volterra_deviations, volterra_deviations.cli\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_no_module_imports_a_private_name_of_another():
    # a helper another module needs is part of its owner's interface: give
    # it a public name or move it, rather than reach into the owner
    import ast

    paths = sorted((SRC / "volterra_deviations").glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                offenders += [
                    f"{path.name}: from .{node.module} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []


def test_only_kernels_differences_the_kernel_moments():
    # cell integrals come from conv_weights(...).cells; a module that takes
    # its own differences of moment0/moment1 is a second quadrature core
    import ast

    uses = set()
    for path in sorted((SRC / "volterra_deviations").glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first: the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        uses |= {
            (path.name, owner.get(node, "<module>"), node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("moment0", "moment1")
        }
    # the constant-control fallback of an importance-sampling tilt needs
    # int_0^T K once, not a cell integral
    assert uses == {("mc_verify.py", "build_is_control", "moment0")}


def test_the_chunk_loop_names_no_model_class():
    # every chunk reaches its reducer through one _volatility call, which
    # dispatches on the model; a model check in the loop is a second route
    # past it
    import ast

    tree = ast.parse((SRC / "volterra_deviations" / "sve_sim.py").read_text())
    (loop,) = [
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "_simulate_chunk"
    ]
    names = [node.id for node in ast.walk(loop) if isinstance(node, ast.Name)]
    names += [node.attr for node in ast.walk(loop) if isinstance(node, ast.Attribute)]
    models = {"RoughHeston", "RoughSteinStein", "RoughBergomi", "MultiRoughBergomi"}
    assert models.isdisjoint(names)
    assert names.count("_volatility") == 1


def test_every_cli_option_is_read_by_its_handler():
    # a flag the parser accepts but no handler reads is parsed and dropped
    # without a word: every option of a leaf subcommand must be read as
    # args.<dest> in its handler, and a parser with subcommands takes none
    # (the subcommand's defaults would overwrite it)
    import argparse
    import ast
    import inspect
    import textwrap

    from volterra_deviations.cli import _build_parser

    def options(parser):
        return [a for a in parser._actions if a.option_strings and a.dest != "help"]

    unread, parsers = [], [_build_parser()]
    while parsers:
        parser = parsers.pop()
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if subs:
            unread += [f"{parser.prog} {a.option_strings[0]}" for a in options(parser)]
            parsers += [p for action in subs for p in action.choices.values()]
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("fn"))))
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        unread += [f"{parser.prog} {a.option_strings[0]}" for a in options(parser) if a.dest not in read]
    assert unread == []


def test_the_package_exports_exactly_its_modules_all():
    # the public names are stated once, in each module's __all__; the
    # package re-exports them and nothing else, so a name added to a module's
    # __all__ is public and one left out of it is not; ``cli`` is the
    # command line, not part of the library
    import importlib
    import types

    import volterra_deviations as pkg

    declared = set()
    for path in sorted((SRC / "volterra_deviations").glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"volterra_deviations.{path.stem}")
        assert hasattr(module, "__all__"), path.name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], path.name
        declared |= set(module.__all__)
    public = {
        name
        for name, obj in vars(pkg).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == declared
    # the function, not its module, as the name says
    assert callable(pkg.implied_vol)
