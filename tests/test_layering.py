import ast
import sys
from pathlib import Path

import fpkit

SRC = Path(fpkit.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def test_thread_pool_lives_in_the_shared_runner_alone():
    # every thread of the package comes from parallel's one pool
    holders = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            names = ({alias.name for alias in node.names}
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else
                     {getattr(node, "id", None), getattr(node, "attr", None)})
            if any(n and n.split(".")[-1] == "ThreadPoolExecutor" for n in names):
                holders.add(path.name)
    assert holders == {"parallel.py"}


def test_verify_imports_nothing_from_montecarlo():
    # the deterministic checks do not depend on the stochastic module
    imported = []
    for node in ast.walk(_tree("verify.py")):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported if "montecarlo" in name.split(".")]


def _functions(name: str):
    return [node for node in _tree(name).body if isinstance(node, ast.FunctionDef)]


def test_one_overflow_rule_for_the_closed_forms():
    # NumericalError is raised in the one helper that closed_form returns
    # through, and every public function of solutions is a closed form or
    # returns one's value as it is (closed_w, the family at Gamma = (1,))
    raisers = set()
    for name in ("kernels.py", "solutions.py"):
        for fn in _functions(name):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Raise) and node.exc is not None
                        and "NumericalError" in ast.unparse(node.exc)):
                    raisers.add((name, fn.name))
    assert raisers == {("kernels.py", "_finite")}
    forms = {fn.name for fn in _functions("solutions.py")
             if [ast.unparse(d) for d in fn.decorator_list] == ["closed_form"]}
    for fn in _functions("solutions.py"):
        if not fn.name.startswith("_") and fn.name not in forms:
            assert not fn.decorator_list, fn.name
            docstring, body = fn.body[0], fn.body[1:]
            assert isinstance(docstring, ast.Expr) and len(body) == 1, fn.name
            assert isinstance(body[0], ast.Return) and isinstance(body[0].value, ast.Call)
            assert ast.unparse(body[0].value.func) in forms, fn.name
    assert "closed_w_gamma" in forms


def test_kernels_take_one_gaussian():
    # one function of kernels calls np.exp: kernel_n, the heat kernel's one form
    callers = {fn.name for fn in _functions("kernels.py") for node in ast.walk(fn)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp"}
    assert callers == {"kernel_n"}


def test_montecarlo_draws_only_numpy_samplers():
    # normals and exponentials come from the Generator's own samplers, so
    # no hand-made transform of uniforms (Box-Muller, -log(1 - U)) returns
    calls = {ast.unparse(node.func) for node in ast.walk(_tree("montecarlo.py"))
             if isinstance(node, ast.Call)}
    assert not calls & {"np.sin", "np.cos", "np.log1p"}


def test_package_imports_numpy_and_the_standard_library_alone():
    # pyproject.toml's one dependency is numpy; scipy and the rest are test-only
    imported = set()  # (file, top-level module) of every absolute import
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported |= {(path.name, name.split(".")[0]) for name in names}
    assert ("verify.py", "numpy") in imported
    assert not {(file, root) for file, root in imported
                if root != "numpy" and root not in sys.stdlib_module_names}
