import ast
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
