"""Every name the benchmark reads from cbre2 still exists.

`bench/spans.py` looks its targets up by name, and the workloads import
or call cbre2 names directly, so a deletion or a rename in cbre2 would
otherwise break `bench/run.py` with no failing test.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_targets_resolve():
    spans = _load_spans()
    missing = []
    for modname, attr, _layer in spans.TRACED:
        mod = importlib.import_module(modname)
        if "." in attr:  # "Class.method": the tracer patches the class's own method
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            target = vars(cls).get(meth) if cls is not None else None
        else:
            target = getattr(mod, attr, None)
        if not callable(target):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"bench/spans.py traces names cbre2 no longer has: {missing}"


def test_positional_reads_match_signatures():
    """`_count_annealed` and `_count_batch` in bench/spans.py read these arguments by
    position, and bench/run.py and bench/workloads.py pass the others positionally."""
    from cbre2.env import sample_env_path
    from cbre2.fmoment import f_moment_verdict
    from cbre2.moments import annealed_laplace_mc, moment_table, quenched_laplace
    from cbre2.simulate import scenario_states, simulate_states

    annealed = list(inspect.signature(annealed_laplace_mc).parameters)
    assert annealed[4:7] == ["t", "n_env_paths", "step"]
    batch = list(inspect.signature(scenario_states).parameters)
    assert (batch[1], batch[4]) == ("n_paths", "predicates")
    calls = [  # (function, positional arguments, keywords) as the bench calls it
        (simulate_states, 7, ["record_times"]),
        (sample_env_path, 4, []),
        (quenched_laplace, 4, []),
        (moment_table, 5, []),
        (f_moment_verdict, 4, []),
    ]
    for f, n_args, keywords in calls:
        inspect.signature(f).bind(*[None] * n_args, **dict.fromkeys(keywords))  # TypeError if not


def _resolves(modname, name):
    mod = importlib.import_module(modname)
    if hasattr(mod, name):
        return True
    try:  # a submodule, as in `from cbre2 import cli`
        importlib.import_module(f"{modname}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_direct_names_resolve():
    """Each `from cbre2... import X` and each `cbre2.X` in bench/*.py names something."""
    used = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cbre2":
                used.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cbre2"
            ):
                used.add(("cbre2", node.attr))
    assert ("cbre2", "moment_table") in used  # the walk sees the workloads' calls
    missing = sorted(f"{mod}.{name}" for mod, name in used if not _resolves(mod, name))
    assert not missing, f"bench/ reads names cbre2 no longer has: {missing}"
