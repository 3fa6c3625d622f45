#!/usr/bin/env python3
"""Synthetic two-domain corpora: the preprocessing pipeline and the
unigram KL divergence as a divergence dial."""

from latopt.data import SPLITS, GeneratorConfig, generate_domain_pair, prepare_transfer_pair, unigram_kl

cfg = GeneratorConfig()
source, target = prepare_transfer_pair(cfg)

print("prepared pair (trim + dedup + dev carve + target upsampling):")
for ds in (source, target):
    counts = {s: len(ds.split(s)) for s in SPLITS}
    rates = {s: round(ds.positive_rate(s), 3) for s in counts}
    print(f"  {ds.domain:<6} sizes={counts} positive rates={rates}")
print("  target train is rebalanced by upsampling; its test split keeps the")
print(f"  natural imbalance ({target.positive_rate('test'):.2%} positive).")

print()
print(f"unigram KL(target || source) over the overlapped vocabulary, train splits: "
      f"{unigram_kl(source, target, ('train',)):.4f}")

print()
print("the cue share dials domain divergence:")
print(f"{'cue share':>10} {'KL(t||s)':>10}")
for share in (0.0, 0.05, 0.10, 0.15, 0.20, 0.25):
    s, t = generate_domain_pair(GeneratorConfig(cue_rate=share, seed=11))
    print(f"{share:>10} {unigram_kl(s, t, ('train',)):>10.4f}")

print()
print("with no cues and equal class balance the domains are exchangeable:")
s, t = generate_domain_pair(GeneratorConfig(n_cues=0, target_positive_rate=0.5, seed=11))
print(f"  KL = {unigram_kl(s, t):.5f} (sampling noise only)")
