"""The four benchmark workloads.

Each is a closed loop with one client on one thread: the next operation
starts when the previous one has returned. A workload sets up its inputs
from the seed, checks the program outside the timed region, and then runs
*passes*, each a fixed amount of work whose result digest must be the same
every time. Operations call the public functions of ``latopt`` through the
module attribute (``training.training_step``), so the tracer can wrap them.

``train-steps``  ``training.training_step`` for all five strategies
``protocol``     ``cli.main(["compare", ...])`` on dataset files
``score``        ``model.predict`` over a long-sequence corpus
``quad``         the (eta, gamma) sweep of the quadratic playground
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from latopt import autodiff, cli, data, model, optim, quadratic, render, training

import reference

clock = time.perf_counter


@dataclass
class PassResult:
    """One pass: under ``samples["op"]`` one entry per op, each a list of
    the (start, end) clock intervals the op ran in (and any breakdown under
    other keys), the result digest, operation counts, and a check to run
    once the pass clock has stopped."""

    samples: dict
    digest: str
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    verify: object = None


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


# --- train-steps ---------------------------------------------------------------


class TrainSteps:
    """Steady-state ``training_step`` for every strategy at B=128, gamma=0.25,
    lr=1e-3 with the reversal-weight ramp, on the default generator's paired
    batches. Each strategy has its own params and ``AdamState`` from one
    shared init; strategies take turns in epoch-sized blocks, in an order
    that rotates every epoch, so drift on the machine hits all of them. One
    op is a *round*: one step of each strategy on the same batch."""

    name = "train-steps"
    STRATEGIES = ("mtl", "mtl+lo", "adv", "adv+lo", "adv+maml")
    EPOCHS = 2
    BATCH = 128
    GAMMA = 0.25
    LR = 1e-3
    warmup_passes = 1
    min_passes = 1

    def setup(self, seed, workdir):
        source, target = data.prepare_transfer_pair(data.GeneratorConfig(seed=seed))
        init = model.init_params(model.ModelConfig(), seed)
        rng = np.random.default_rng(seed)
        epochs = [
            training.paired_batches(source.pairs("train"), target.pairs("train"), self.BATCH, rng)
            for _ in range(self.EPOCHS)
        ]
        return {"seed": seed, "init": init, "epochs": epochs}

    def checks(self, state):
        """Directional central-difference check of each strategy's
        objective on the first batch."""
        rng = np.random.default_rng(state["seed"])
        batch_s, batch_t = state["epochs"][0][0]
        lam = model.grl_weight(0.5)
        out = []
        for s in self.STRATEGIES:
            try:
                err = reference.objective_check(s, state["init"], batch_s, batch_t, lam, self.GAMMA, rng)
            except autodiff.NonFiniteError as e:
                out.append((f"fd.{s}", False, str(e)))
                continue
            out.append((f"fd.{s}", err < reference.FD_TOL, f"max error {err:.2e} of |grad|/sqrt(n)"))
        return out

    def run_pass(self, state) -> PassResult:
        init, epochs = state["init"], state["epochs"]
        total = sum(len(b) for b in epochs)
        params = {s: init.copy() for s in self.STRATEGIES}
        opt = {s: optim.AdamState() for s in self.STRATEGIES}
        losses = {s: [] for s in self.STRATEGIES}
        steps = {s: [] for s in self.STRATEGIES}
        rounds = [[] for _ in range(total)]
        failed, problems = 0, []
        offset = 0
        for e, batches in enumerate(epochs):
            k = e % len(self.STRATEGIES)
            for s in self.STRATEGIES[k:] + self.STRATEGIES[:k]:
                for i, (batch_s, batch_t) in enumerate(batches):
                    lam = model.grl_weight((offset + i) / total)
                    t0 = clock()
                    try:
                        record, _ = training.training_step(
                            s, params[s], opt[s], batch_s, batch_t, self.LR, lam, self.GAMMA
                        )
                    except (autodiff.NonFiniteError, training.TrainingAborted) as exc:
                        failed += 1
                        problems.append(f"{s} step {offset + i}: {exc}")
                        continue
                    span = (t0, clock())
                    steps[s].append([span])
                    rounds[offset + i].append(span)
                    vals = [record[key] for key in ("L_s", "L_t", "L_d", "joint")]
                    if any(v is not None and not math.isfinite(v) for v in vals):
                        failed += 1
                        problems.append(f"{s} step {offset + i}: non-finite loss {vals}")
                    losses[s].append([math.nan if v is None else v for v in vals])
            offset += len(batches)
        chunks = []
        for s in self.STRATEGIES:
            chunks.append(np.asarray(losses[s], dtype=np.float64).tobytes())
            chunks.extend(params[s].tensors[k].tobytes() for k in sorted(params[s].tensors))
        samples = {"op": rounds, **{f"step.{s}": v for s, v in steps.items()}}
        attempted = total * len(self.STRATEGIES)
        return PassResult(samples, _sha(*chunks), attempted, failed, problems)

    def census(self, state) -> dict:
        """Exact counts from one untimed pass: the share of tape nodes the
        inner lookahead backward needs, and the embedding rows Adam touches."""
        useful = visited = 0
        rows = np.zeros(state["init"].config.vocab_size, dtype=bool)
        orig_latent, orig_adam = training.latent_step, optim.adam_step

        def latent_probe(tape, z_s, z_t, loss, *args, **kwargs):
            nonlocal useful, visited
            u, v = inner_useful_nodes(tape, (z_s, z_t), loss)
            useful += u
            visited += v
            return orig_latent(tape, z_s, z_t, loss, *args, **kwargs)

        def adam_probe(opt_state, params, grads, *args, **kwargs):
            if "embedding" in grads:
                rows[np.any(grads["embedding"] != 0.0, axis=1)] = True
            return orig_adam(opt_state, params, grads, *args, **kwargs)

        training.latent_step, optim.adam_step = latent_probe, adam_probe
        try:
            self.run_pass(state)
        finally:
            training.latent_step, optim.adam_step = orig_latent, orig_adam
        return {
            "autodiff.inner_useful_ratio": useful / visited if visited else 0.0,
            "autodiff.inner_useful_nodes": useful,
            "autodiff.inner_visited_nodes": visited,
            "optim.adam_rows_touched": int(rows.sum()),
            "optim.adam_rows_touched_ratio": float(rows.mean()),
        }


def inner_useful_nodes(tape, sources, loss) -> tuple[int, int]:
    """(nodes on a path from any source to ``loss``, nodes up to the loss).

    A full ``backward`` from ``loss`` visits every node up to it; only the
    nodes between the latents and the loss carry the gradient the lookahead
    reads."""
    nodes = tape.nodes
    reach = set(sources)
    for nid in range(min(sources), loss + 1):
        if any(i in reach for i in nodes[nid].inputs):
            reach.add(nid)
    need = {loss}
    for nid in range(loss, -1, -1):
        if nid in need:
            need.update(nodes[nid].inputs)
    return len(reach & need), loss + 1


# --- protocol ------------------------------------------------------------------


class Protocol:
    """``latopt compare`` in-process: 2 seeds x {mtl, mtl+lo, adv, adv+lo},
    the default 3-rate grid and 5 epochs, on dataset files written at
    set-up. One op is one compare."""

    name = "protocol"
    STRATEGIES = ("mtl", "mtl+lo", "adv", "adv+lo")
    warmup_passes = 0
    min_passes = 2

    def setup(self, seed, workdir):
        source, target = data.prepare_transfer_pair(data.GeneratorConfig(seed=seed))
        src_path, tgt_path = workdir / "source.jsonl", workdir / "target.jsonl"
        data.save_dataset(source, src_path)
        data.save_dataset(target, tgt_path)
        spec = {
            "strategies": list(self.STRATEGIES),
            "seeds": [seed, seed + 1],
            "epochs": 5,
            "source_path": str(src_path),
            "target_path": str(tgt_path),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        return {"spec": spec, "spec_path": spec_path, "workdir": workdir, "n": 0}

    def checks(self, state):
        return []

    def run_pass(self, state) -> PassResult:
        out = state["workdir"] / f"out-{state['n']}"
        state["n"] += 1
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["compare", "--spec", str(state["spec_path"]), "--out", str(out)])
        result = PassResult({"op": [[(t0, clock())]]}, "", attempted=1)

        def verify():
            path = out / "reports.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()] if path.is_file() else []
            problems = self._verify(state["spec"], rc, out, rows)
            timeless = [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
            result.digest = _sha(json.dumps(timeless, sort_keys=True).encode())
            shutil.rmtree(out, ignore_errors=True)
            result.problems.extend(problems)
            result.failed = 1 if problems else 0

        result.verify = verify
        return result

    @staticmethod
    def _verify(spec, rc, out: Path, rows: list) -> list:
        problems = []
        if rc != 0:
            problems.append(f"compare exit code {rc}")
        summary_path = out / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.is_file() else {}
        if summary.get("n_failed") != 0:
            problems.append(f"n_failed = {summary.get('n_failed')}")
        cells = sorted((r["strategy"], r["seed"]) for r in rows)
        if cells != sorted(itertools.product(spec["strategies"], spec["seeds"])):
            problems.append(f"reports cover {cells}")
        for r in rows:
            p, rec, f = r["test_p"], r["test_r"], r["test_f"]
            want = 2.0 * p * rec / (p + rec) if p + rec else 0.0
            if abs(f - want) > 1e-12:
                problems.append(f"{r['strategy']} seed {r['seed']}: F {f} is not the harmonic mean {want}")
        return problems


# --- score -----------------------------------------------------------------------


class Score:
    """Forward-only scoring: a checkpoint written with ``save_checkpoint``
    and read with ``load_checkpoint``, then ``model.predict`` in batches of
    256 over about 16k target sequences of 40-100 tokens (mean about 70,
    against about 21 in the default corpus). One op is one batch."""

    name = "score"
    BATCH = 256
    CORPUS = 16384
    warmup_passes = 1
    min_passes = 1

    def setup(self, seed, workdir):
        cfg = data.GeneratorConfig(
            seed=seed,
            min_len=40,
            max_len=100,
            source_train_size=1,
            target_train_size=self.CORPUS - 512,
            test_size=512,
        )
        _, target = data.generate_domain_pair(cfg)
        sequences = [e.tokens for e in target.examples]
        saved = model.init_params(model.ModelConfig(), seed)
        path = workdir / "model.json"
        model.save_checkpoint(saved, path)
        params = model.load_checkpoint(path)
        return {"seed": seed, "sequences": sequences, "params": params, "saved": saved}

    def checks(self, state):
        params, saved = state["params"], state["saved"]
        same = all(np.array_equal(params.tensors[k], saved.tensors[k]) for k in saved.tensors)
        out = [("checkpoint.round_trip", same and params.tensors.keys() == saved.tensors.keys(), "")]
        seqs = state["sequences"]
        rng = np.random.default_rng(state["seed"])
        for start in sorted(rng.choice(len(seqs) // self.BATCH, size=4, replace=False) * self.BATCH):
            batch = seqs[start : start + self.BATCH]
            got = model.predict(params, batch, "target")
            want = reference.predict(params.tensors, batch, "target")
            differ = int((got != want).sum())
            out.append((f"predict.batch{start}", differ == 0, f"{differ} of {len(batch)} differ"))
        return out

    def run_pass(self, state) -> PassResult:
        params, seqs = state["params"], state["sequences"]
        times, preds = [], []
        for start in range(0, len(seqs), self.BATCH):
            t0 = clock()
            p = model.predict(params, seqs[start : start + self.BATCH], "target")
            times.append([(t0, clock())])
            preds.append(p)
        digest = _sha(np.concatenate(preds).astype(np.int64).tobytes())
        return PassResult({"op": times}, digest, attempted=len(times))


# --- quad ----------------------------------------------------------------------


class Quad:
    """The quadratic playground: a fixed (eta, gamma) grid, each point one
    figure with gd, eg1 and eg2 run 200 steps from ``DEFAULT_START``, their
    per-mode decay measured, and all three rendered to SVG and CSV. The seed
    only shuffles the sweep order. One op is one figure."""

    name = "quad"
    ETAS = (0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05)
    GAMMAS = (0.0025, 0.005, 0.0075, 0.01, 0.0125)
    STEPS = 200
    DECAY_TOL = 1e-9
    # A mode's measured ratio carries a rounding error of about
    # 1e-16 * |w - w*| / amplitude. Above this amplitude, and with eta at most
    # 0.05 (a diverging steep mode swamps the flat one beyond that), it stays
    # well below DECAY_TOL.
    MIN_AMP = 1e-5
    warmup_passes = 1
    min_passes = 1

    def setup(self, seed, workdir):
        q = quadratic.default_quadratic()
        grid = list(itertools.product(self.ETAS, self.GAMMAS))
        order = np.random.default_rng(seed).permutation(len(grid))
        return {"q": q, "grid": [grid[i] for i in order]}

    def checks(self, state):
        return []

    def run_pass(self, state) -> PassResult:
        q, start = state["q"], quadratic.DEFAULT_START
        times, figures, decays = [], {}, []
        svg_bytes = 0
        for eta, gamma in state["grid"]:
            t0 = clock()
            trajs = (
                quadratic.gd_trajectory(q, start, eta, self.STEPS),
                quadratic.eg_first_order_trajectory(q, start, eta, gamma, self.STEPS),
                quadratic.eg_full_hessian_trajectory(q, start, eta, gamma, self.STEPS),
            )
            measured = [quadratic.measure_mode_decay(q, t, min_amp=self.MIN_AMP) for t in trajs]
            svg, csv = render.render_trajectory(list(trajs), q)
            times.append([(t0, clock())])
            svg_data = svg.encode()
            figures[(eta, gamma)] = _sha(svg_data, csv.encode())
            svg_bytes += len(svg_data)
            decays.append((eta, gamma, measured))
        digest = _sha(*(figures[k].encode() for k in sorted(figures)))
        result = PassResult({"op": times}, digest, len(times), extra={"render.svg_bytes": svg_bytes})

        def verify():
            for eta, gamma, measured in decays:
                factors = (
                    lambda lam: quadratic.gd_mode_factor(lam, eta),
                    lambda lam: quadratic.eg_mode_factor(lam, eta, gamma),
                    lambda lam: quadratic.eg_mode_factor(lam, eta, gamma),
                )
                err = 0.0
                for factor, (lam, ratios) in zip(factors, measured):
                    for mode in range(2):
                        err = max([err] + [abs(r - factor(lam[mode])) for r in ratios[mode]])
                if not err < self.DECAY_TOL:
                    result.failed += 1
                    result.problems.append(f"eta={eta} gamma={gamma}: decay factor error {err:.2e}")

        result.verify = verify
        return result


WORKLOADS = {w.name: w for w in (TrainSteps(), Protocol(), Score(), Quad())}
