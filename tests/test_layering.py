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


def test_kappa_has_one_definition():
    # outside kernels, only solutions.kappa takes the heat kernel: the kappa
    # of kappa.csv and of comparison.csv is one function
    callers = {(path.name, fn.name) for path in SRC.glob("*.py") if path.name != "kernels.py"
               for fn in _functions(path.name) for node in ast.walk(fn)
               if isinstance(node, (ast.Name, ast.Attribute))
               and ast.unparse(node).split(".")[-1] == "heat_kernel"}
    assert callers == {("solutions.py", "kappa")}


def test_montecarlo_draws_only_numpy_samplers():
    # normals and exponentials come from the Generator's own samplers, so
    # no hand-made transform of uniforms (Box-Muller, -log(1 - U)) returns
    calls = {ast.unparse(node.func) for node in ast.walk(_tree("montecarlo.py"))
             if isinstance(node, ast.Call)}
    assert not calls & {"np.sin", "np.cos", "np.log1p"}


#: expression nodes of slice bookkeeping: names, constants, attributes,
#: subscripts, slices, tuples, and integer + and -
_BOOKKEEPING = (ast.Name, ast.Constant, ast.Attribute, ast.Subscript, ast.Slice, ast.Tuple,
                ast.Load, ast.Store, ast.BinOp, ast.Add, ast.Sub)


def _bookkeeping(node: ast.AST) -> bool:
    return all(isinstance(n, _BOOKKEEPING) for n in ast.walk(node))


def _draw(node: ast.AST) -> bool:
    # a call on the block's generator, with bookkeeping arguments
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) == "rng"
            and all(map(_bookkeeping, node.args + [k.value for k in node.keywords])))


def _draw_or_bookkeeping(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Expr):
        return _draw(stmt.value)
    if isinstance(stmt, ast.Assign) and all(map(_bookkeeping, stmt.targets)):
        return _draw(stmt.value) or (
            _bookkeeping(stmt.value)
            and all(isinstance(n, (ast.Name, ast.Tuple, ast.Store)) for target in stmt.targets
                    for n in ast.walk(target)))
    return False


def test_montecarlo_blocks_draw_and_runs_compute():
    # a loop over the blocks' generators only draws: the arithmetic on the
    # draws (crossing times, histograms, sums) runs once per unit or run of
    # whole blocks' paths, never once per block
    bodies = [(fn.name, stmt) for fn in _functions("montecarlo.py") for node in ast.walk(fn)
              if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
              and ast.unparse(node.target.elts[0]) == "rng"
              for stmt in node.body + node.orelse]
    assert {name for name, _ in bodies} == {"first_passage_histogram", "bessel_bridge_fk"}
    for name, stmt in bodies:
        assert _draw_or_bookkeeping(stmt), (name, ast.unparse(stmt))


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


#: numpy names that hand their work to the BLAS
_BLAS = {"np.dot", "np.vdot", "np.inner", "np.matmul", "np.tensordot", "np.einsum", "np.linalg"}


def test_package_calls_no_blas():
    # reductions are np.sum and np.mean.  FK's three sums of products, taken
    # by `@` (OpenBLAS ddot) in a prototype, slowed the fastest in-process
    # 50,000-path simulate op (2 threads, 2-core host) from 13.2-14.0 ms to
    # 18.6-21.2 ms in 4 of 4 alternating 4 s pairs; by np.sum it read
    # 14.3-15.7 ms.  OpenBLAS's own threads contending with the workers are
    # the likely cause, not confirmed
    found = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.MatMult):
                found.append((path.name, "@"))
            elif isinstance(node, ast.Attribute) and ast.unparse(node) in _BLAS:
                found.append((path.name, ast.unparse(node)))
            elif isinstance(node, ast.ImportFrom) and node.module and "numpy" in node.module:
                found += [(path.name, alias.name) for alias in node.names
                          if "np." + alias.name in _BLAS or "linalg" in node.module]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names
                          if "linalg" in alias.name]
    assert not found
