"""The settable surface: every config field and parameter a caller can set
on the training, optimizer, rendering and data paths. A value with one
setting in use is a module constant, not a knob; this pins that."""

import ast
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from latopt import autodiff, cli, data, harness, metrics, model, optim, quadratic, render, training

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _names(fn):
    return list(inspect.signature(fn).parameters)


def test_settable_surface_is_pinned():
    assert [f.name for f in fields(training.TrainingConfig)] == ["lr", "gamma"]
    assert [f.name for f in fields(optim.AdamState) if f.init] == []
    assert [f.name for f in fields(training.EpochReport)] == [
        "epoch", "strategy", "losses", "lr", "lam", "wall_ms", "aux_state_scalars"
    ]
    assert [f.name for f in fields(training.LatentPair)] == [
        "z_s", "z_t", "z_s_prime", "z_t_prime", "id_s_prime", "id_t_prime"
    ]
    signatures = {
        optim.adam_step: ["state", "params", "grads", "lr"],
        training.batch_schedule: ["source", "target", "batch_size", "epochs", "seed"],
        training.train_run: ["strategy", "params", "schedule", "dev", "config", "run_log"],
        render.render_trajectory: ["trajectories", "q"],
        render.write_outputs: ["trajectories", "q", "svg_path", "csv_path"],
        render._auto_bounds: ["points"],
        model.predict: ["params", "sequences", "domain"],
        model.grl_weight: ["progress"],
        model.onehot: ["labels"],
        model.domain_loss_on_tape: ["tape", "p", "u_s", "u_t"],
        data.prepare_transfer_pair: ["config", "max_len"],
        data.split_dev: ["dataset", "seed"],
        data.unigram_counts: ["dataset", "splits"],
        metrics.f_score: ["predictions", "labels"],
        quadratic.measure_mode_decay: ["q", "traj", "min_amp"],
        quadratic.Trajectory.steps_to: ["self"],
    }
    assert {fn.__name__: _names(fn) for fn in signatures} == {fn.__name__: names for fn, names in signatures.items()}
    assert [f.name for f in fields(training.RunResult)] == [
        "strategy", "selected", "epoch", "epoch_reports", "dev_f", "wall_ms", "peak_aux"
    ]
    assert [f.name for f in fields(training.Strategy)] == ["base", "disc", "lookahead", "domains", "phases"]
    gone = [
        (render, "ContourGrid"),
        (harness, "data_problem"),
        (data, "UnigramModel"),
        (data, "unigram_model"),
        (harness, "select_model"),
        (training, "mtl_lo_step"),
        (training, "lookahead_joint_grads"),
        (model, "encode"),
        (model, "task_loss"),
        (model, "domain_loss"),
        (metrics, "spearman_rank_correlation"),
        (model.ModelParams, "size_of"),
        (optim.AdamState, "state_scalars"),
        (optim.AdamState, "fuse"),
        (harness.ExperimentSpec, "to_json"),
        (model.GraphRefs, "value"),
        (training.EpochReport, "runlog_entry"),
        (harness.MetricsReport, "to_json"),
        (harness, "_grid_search"),
        (harness, "_run_strategy"),
        (training, "train_epoch"),
        (model.GraphRefs, "logits_s"),
        (model.GraphRefs, "logits_t"),
        (cli, "_out_ok"),
        (training, "_base"),
        (harness, "sequential_finetune"),
        (training.Strategy, "domain"),
        (harness, "SUMMARY_COLUMNS"),
    ]
    assert [f"{m.__name__}.{name}" for m, name in gone if hasattr(m, name)] == []


def test_tape_node_attributes_are_pinned():
    # the benchmark reads ``tape.nodes[i].inputs``; slots keep a node small
    assert [f.name for f in fields(autodiff.Node)] == ["op", "inputs", "value", "meta"]
    tape = autodiff.Tape()
    x = tape.leaf([1.0, 2.0])
    node = tape.nodes[tape.scale(x, 3.0)]
    assert (node.op, node.inputs, node.value.tolist(), node.meta) == ("scale", (x,), [3.0, 6.0], {"factor": 3.0})
    assert not hasattr(node, "__dict__")


def test_an_example_has_slots_and_no_dict():
    # the ``score`` corpus holds 16,384 examples; a per-instance dict costs about 1 MB of its set-up
    assert data.Example.__slots__ == ("tokens", "label", "split")
    assert not hasattr(data.Example((1, 2), 0, "train"), "__dict__")


def test_every_differentiable_op_stays_under_the_finite_difference_gate():
    # criterion 2 checks each op of this tuple, so a dropped op would go unchecked
    assert autodiff.DIFFERENTIABLE_OPS == (
        "add", "matmul", "dense", "scale", "negate", "concat", "tanh", "relu",
        "log", "softmax", "reduce_sum", "embedding_mean", "softmax_cross_entropy", "grl",
    )


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_attribute_the_benchmark_tracer_wraps_exists():
    # the tracer skips a missing attribute, so a rename would zero a metric silently
    spans = _bench_module("spans")
    missing = []
    for owner_path, attr, _, _ in spans.WRAPS:
        owner = spans._resolve(owner_path)
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{owner_path}.{attr}")
    assert missing == []


def _latopt_attributes(name):
    """(module alias, attribute) for every ``<latopt module>.<attribute>``
    that ``bench/<name>.py`` reads, and each alias's module."""
    tree = ast.parse((BENCH / f"{name}.py").read_text())
    imported = {
        alias.asname or alias.name: importlib.import_module(f"latopt.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "latopt"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in imported
    }
    return used, imported


def test_every_name_the_benchmark_reference_calls_exists():
    used, imported = _latopt_attributes("reference")
    assert {"strategy_forward", "backward", "domain_loss_graph", "maml_lookahead_step"} <= {a for _, a in used}
    assert sorted(f"{m}.{a}" for m, a in used if not hasattr(imported[m], a)) == []


def test_every_name_the_benchmark_workloads_use_exists():
    # the workloads build Adam's state and swap adam_step and latent_step for probes
    used, imported = _latopt_attributes("workloads")
    assert {("optim", "AdamState"), ("optim", "adam_step"), ("training", "latent_step")} <= used
    assert sorted(f"{m}.{a}" for m, a in used if not hasattr(imported[m], a)) == []


def test_no_function_in_training_imports():
    # training calls optim.adam_step, model.predict and metrics.f_score
    # through their modules, which the benchmark patches, so it needs no
    # import inside a function; its imports stay where a reader looks
    tree = ast.parse(Path(training.__file__).read_text())
    found = [
        f"{fn.name}: line {node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def _latopt_functions_with(match) -> set[str]:
    """``module.function`` (``module.<module>`` at top level) of every node
    in ``src/latopt`` that ``match`` accepts."""
    found = set()
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # breadth first, so the innermost function wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), fn.name) for node in ast.walk(fn))
        found |= {f"{path.stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree) if match(node)}
    return found


def test_only_a_pool_worker_tunes_the_allocator():
    # importing latopt or running anything in the calling process must leave
    # its allocator as it is; the forked workers' initializer alone sets it
    found = _latopt_functions_with(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "mallopt")
        or (isinstance(node, ast.Name) and node.id == "mallopt")
        or (isinstance(node, ast.Constant) and node.value == "mallopt")
    )
    assert found == {"harness._init_worker"}


# numpy's set routines: each imports numpy.ma on first use (numpy 2.4.6),
# where np.isin, np.sort and np.searchsorted do not
_SET_ROUTINES = frozenset({"unique", "union1d", "intersect1d", "setdiff1d", "setxor1d"})


def test_latopt_calls_no_numpy_set_routine():
    found = _latopt_functions_with(
        lambda node: (isinstance(node, ast.Attribute) and node.attr in _SET_ROUTINES)
        or (isinstance(node, ast.alias) and node.name in _SET_ROUTINES)
    )
    assert found == set()


def _compares_with_one_of(node, names) -> bool:
    """Whether ``node`` compares a value (``==``, ``!=``, ``in``, ``not in``)
    with a string constant in ``names``, alone or in a tuple."""
    if not isinstance(node, ast.Compare):
        return False
    constants = {
        c.value for side in (node.left, *node.comparators) for c in ast.walk(side) if isinstance(c, ast.Constant)
    }
    equality = any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops)
    return equality and any(isinstance(c, str) and c in names for c in constants)


def _tests_a_strategy_name(node) -> bool:
    """Whether ``node`` compares a value with a strategy-name string constant
    (see ``_compares_with_one_of``), or calls ``split``, ``startswith`` or
    ``endswith`` on a strategy name or with a piece of one."""
    names = training.TABLE
    if isinstance(node, ast.Compare):
        return _compares_with_one_of(node, names)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr not in ("split", "startswith", "endswith"):
            return False
        pieces = [a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        return "strateg" in ast.unparse(node.func.value) or any(p and p in n for p in pieces for n in names)
    return False


def test_no_function_reads_a_strategy_name_apart_from_the_table():
    # what a strategy name means is read from its row of training.TABLE
    assert _latopt_functions_with(_tests_a_strategy_name) == set()


def test_every_phase_of_a_row_is_a_single_domain_row():
    # a phase trains one domain from the previous phase's selection
    phases = [p for row in training.TABLE.values() for p in row.phases]
    assert phases and [p for p in phases if p not in training.TABLE or len(training.TABLE[p].domains) != 1] == []
    # a row's domains say what it trains: a phased row's are its phases', in order, without repeats
    for row in training.TABLE.values():
        if row.phases:
            assert row.domains == tuple(dict.fromkeys(d for p in row.phases for d in training.TABLE[p].domains))
    assert (training.TABLE["seq"].domains, training.TABLE["tgt"].domains) == (("source", "target"), ("target",))
    # analyze's reference is the one spec strategy that trains a single domain
    assert [s for s in harness.SPEC_STRATEGIES if len(training.TABLE[s].domains) == 1] == ["tgt"]


def test_the_strategy_name_check_sees_each_way_of_reading_a_name():
    def found(source):
        nodes = ast.walk(ast.parse(source))
        return [_tests_a_strategy_name(node) for node in nodes if isinstance(node, (ast.Compare, ast.Call))]

    assert found('strategy == "adv+maml"') == [True]
    assert found('"seq" not in spec.strategies') == [True]
    assert found('s in ("single:source", "single:target")') == [True]
    assert found('strategy.endswith("+lo")') == [True]
    assert found('name.split("+")') == [True]
    assert found('train_run("single:source", params)') == [False]  # calling a row by name
    assert found('ds.split("train")') == [False]
    assert found('domain == "source"') == [False]


def _compares_a_domain_name(node) -> bool:
    return _compares_with_one_of(node, model.DOMAINS)


def test_no_function_in_model_training_or_harness_compares_a_domain_name():
    # a domain's head is read from model.HEADS and the domains a run trains
    # from its row; the generator's per-domain settings in data are not heads
    found = _latopt_functions_with(_compares_a_domain_name)
    assert {f for f in found if f.split(".")[0] in ("model", "training", "harness")} == set()


def test_the_domain_name_check_sees_each_way_of_comparing_one():
    def found(source):
        nodes = ast.walk(ast.parse(source))
        return [_compares_a_domain_name(node) for node in nodes if isinstance(node, (ast.Compare, ast.Call))]

    assert found('domain == "source"') == [True]
    assert found('"target" != row.domain') == [True]
    assert found('d in ("source", "target")') == [True]
    assert found('("phi_t" if domain == "source" else "phi_s") == group') == [True, True]
    assert found('domain not in DOMAINS') == [False]
    assert found('z.get("source", -1)') == [False]  # reading a domain's entry
    assert found('strategy == "adv"') == [False]
    assert found('len(row.domains) > 1') == [False, False]


# the trajectory recurrence and its step rules (each closure is ``step``)
_TRAJECTORY_LOOP = frozenset({"_run", "_descent", "step", "eg_first_order_trajectory", "eg_full_hessian_trajectory"})


def test_the_quad_trajectory_loop_takes_its_products_through_dot():
    # ndarray.dot gives @'s bits at about half the dispatch cost per call
    tree = ast.parse(Path(quadratic.__file__).read_text())
    assert _TRAJECTORY_LOOP <= {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    found = _latopt_functions_with(
        lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )
    assert {"quadratic.f", "quadratic._f_rows"} <= found  # the matcher sees @ outside the loop
    assert found & {f"quadratic.{name}" for name in _TRAJECTORY_LOOP} == set()


def _is_run_failed_line(node) -> bool:
    """Whether ``node`` is ``print(f"run failed: ...", ...)``: an aborted
    run, not a refusal."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and bool(node.args)
        and isinstance(node.args[0], ast.JoinedStr)
        and isinstance(node.args[0].values[0], ast.Constant)
        and node.args[0].values[0].value.startswith("run failed: ")
    )


def test_only_cli_main_turns_a_refusal_into_exit_2():
    # a command raises cli.Refusal; main alone prints it and returns 2, so
    # the exit-2 policy is written once
    tree = ast.parse(Path(cli.__file__).read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        exempt = {id(n) for call in ast.walk(fn) if _is_run_failed_line(call) for n in ast.walk(call)}
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2:
                found.append(f"{fn.name}: line {node.lineno} returns 2")
            elif isinstance(node, ast.Raise) and node.exc is not None and "SystemExit" in ast.unparse(node.exc):
                found.append(f"{fn.name}: line {node.lineno} raises SystemExit")
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stderr" and id(node) not in exempt:
                found.append(f"{fn.name}: line {node.lineno} writes to sys.stderr")
    assert [f for f in found if not f.startswith("main:")] == []
    assert sorted(f.split()[-1] for f in found) == ["2", "sys.stderr"]  # main's one refusal


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, imported as ``bench/run.py`` imports it, with
    ``bench/`` first on ``sys.path``; its modules are dropped afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)


def test_the_benchmark_workloads_pass_their_checks_at_seed_0(workloads, tmp_path):
    # a refactor that hides a call from the census probes (a name imported
    # past a patch, a gradient adam_probe cannot read) reads 0 there
    checks, passes = [], []
    for name in ("train-steps", "score", "quad"):
        wl = workloads.WORKLOADS[name]
        state = wl.setup(0, tmp_path)
        checks.extend(wl.checks(state))
        if name == "score":
            continue
        result = wl.run_pass(state)
        if result.verify is not None:
            result.verify()
        passes.append((name, result.attempted, result.failed, result.problems))
        if name == "train-steps":
            census = wl.census(state)
        if name == "quad":
            quad_digest = result.digest
    assert [c for c in checks if not c[1]] == []
    assert len(checks) == 5 + 5  # train-steps' five strategies; score's round trip and four batches
    assert [(n, f, p) for n, a, f, p in passes if f or p or not a] == []
    assert census["optim.adam_rows_touched"] == 160
    assert census["autodiff.inner_visited_nodes"] > 0
    # every quad figure's SVG and CSV bytes; the figures are hashed in sorted
    # order, so the seed's sweep order leaves this as it is
    assert quad_digest == "7470a2db0d7c9766e405164d047fd7e1fd4b24ed0e9dc457080f5b4be6fe68e9"
