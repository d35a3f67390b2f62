"""Finite-blocklength wiretap codes: decoding error and secrecy, measured.

The simulator is purely classical — a triple p(b,e|a) — so every piece of
the construction is checkable at small n: typical-set-pruned random
codebooks, the index one-time pad on the private message, ML decoding,
exact secrecy distances by enumerating Eve's outcomes, and expurgation.
"""

import numpy as np

from pubpriv.wiretap import (
    ClassicalWiretap,
    CodeConfig,
    bsc,
    estimate_error,
    expurgate,
    generate_codebook,
    noiseless,
    per_message_errors,
    pruned_distribution,
    security_distance,
)

# Pruned codeword source: i.i.d. p conditioned on the entropy-typical set.
pd = pruned_distribution([0.9, 0.1], 20, 0.1)
print(f"pruned(0.9/0.1, n=20, δ=0.1): acceptance {pd.acceptance[0]:.4f}, "
      f"entropy {pd.entropy[0]:.4f} bits/symbol")

# Main channel BSC(0.05) (capacity ≈ 0.71), Eve gets a noisier copy.
ch = ClassicalWiretap.from_marginals(bsc(0.05), bsc(0.25))

print("\ndecoding error vs block length at private rate 0.3:")
for n in (16, 24, 32, 40):
    m = max(2, round(2 ** (0.3 * n)))
    cfg = CodeConfig(n=n, M=m, S=1, delta=0.2, seed=1, decoder="ML", trials=400)
    cb = generate_codebook(cfg, ch, [0.5, 0.5])
    est = estimate_error(cfg, ch, cb)
    print(f"  n={n:2d} M={m:5d}: error {est.error:.3f}  (95% CI {est.ci_low:.3f}-{est.ci_high:.3f})")

# Secrecy: with a full-rate key the pad sweeps every codeword uniformly,
# so Eve's view is independent of the message — exactly, at finite n.
ch_leaky = ClassicalWiretap.from_marginals(bsc(0.05), noiseless(2))
for s_count in (1, 2, 8):
    cfg = CodeConfig(n=8, M=8, S=s_count, delta=0.5, seed=3)
    cb = generate_codebook(cfg, ch_leaky, [0.5, 0.5])
    rep = security_distance(cb, cfg, ch_leaky, mode="exact")
    print(f"\n  S={s_count}: message secrecy {rep.message_secrecy:.4f}, "
          f"full criterion {rep.full_criterion:.4f}")
print("  (the full criterion keeps the key register: an index pad cannot"
      "\n   hide the key itself from an Eve who already knows the message)")

# Two-layer code pasting with expurgation of the worst public messages.
law = (np.array([0.5, 0.5]), np.array([[0.85, 0.15], [0.15, 0.85]]))
cfg = CodeConfig(n=12, M=4, S=2, K_pub=4, delta=0.6, seed=5, trials=100)
cb = generate_codebook(cfg, ch, law)
pub, priv = per_message_errors(cfg, ch, cb)
print("\ntwo-layer code, per-public-message error (pub, priv):")
for k in range(4):
    print(f"  k={k}: {pub[k]:.3f}, {priv[k]:.3f}")
kept = expurgate(cb, pub + priv)
print("expurgation kept:", kept.record.expurgation["kept"],
      f"(public rate loss {kept.record.expurgation['rate_loss_public']:.4f} bits/use)")
