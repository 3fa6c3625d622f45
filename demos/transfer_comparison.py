#!/usr/bin/env python3
"""Strategy comparison at reduced scale: multi-task vs adversarial
training and their latent-lookahead variants, with the dev-set
learning-rate protocol (base strategies are tuned, lookahead variants
inherit the winning rate)."""

from latopt.data import GeneratorConfig
from latopt.harness import ExperimentSpec, format_summary, run_experiment

# a faster cousin of the default experiment; drop seeds/sizes for a quick look
spec = ExperimentSpec(
    strategies=["mtl", "mtl+lo", "adv", "adv+lo", "adv+maml"],
    seeds=[0, 1, 2],
    lr_grid=[1e-3, 3e-3],
    gamma=0.25,
    epochs=3,
    generator=GeneratorConfig(source_train_size=1024, target_train_size=512, test_size=256),
)

print(f"strategies: {spec.strategies}")
print(f"seeds: {spec.seeds}, lr grid: {spec.lr_grid}, lookahead gamma: {spec.gamma}")
print()

reports, analysis = run_experiment(spec, out_dir="comparison_out")
print(format_summary(analysis))
print()
print(f"{'strategy':<10} {'seed':>4} {'testF':>7} {'lr':>7} {'aux state':>10} {'wall ms':>8}")
for r in reports:
    print(f"{r.strategy:<10} {r.seed:>4} {r.test_f:>7.3f} {r.lr:>7} {r.aux_state:>10} {r.wall_ms:>8.0f}")
print()
print(f"ran in {analysis['wall_s']:.0f}s; full outputs in comparison_out/")
