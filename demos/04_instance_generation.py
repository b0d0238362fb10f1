#!/usr/bin/env python3
# Reproducible test instances: banded draws, scrambled affirmative cases,
# and bounds-evasive negative cases, plus the on-disk edge-list format.

from bandrec import (
    GenParams,
    Layout,
    bandwidth_bounds,
    generate_affirmative_case,
    generate_negative_case,
    layout_bandwidth,
    random_banded_matrix,
    recognize,
    write_graph_text,
)
from bandrec.baselines import bandwidth_at_most

# A banded draw keeps every edge within distance psi of the diagonal and
# tops up any unused distance in 1..psi, so bandwidth <= psi by construction.
g = random_banded_matrix(GenParams(n=10, psi=3, p=0.4, seed=7))
print("banded draw edges:", list(g.edges))
print("identity bandwidth:", layout_bandwidth(g, Layout.identity(10)), "(psi = 3)")

# The same seed reproduces the same graph, byte for byte through the file
# format; that is what makes benchmark runs repeatable.
again = random_banded_matrix(GenParams(n=10, psi=3, p=0.4, seed=7))
print("seed-stable:", write_graph_text(g) == write_graph_text(again))
print(write_graph_text(g), end="")

# Affirmative cases hide the witness: the graph has bandwidth <= k, but its
# labels are scrambled until the identity layout stops proving it.
aff, meta = generate_affirmative_case(n=12, k=8, seed=21)
print("\naffirmative case: identity bandwidth", meta["identity_bandwidth"], "> k = 8")
print("  recognizer still finds a layout:", recognize(aff, 8).verdict)

# Negative cases are rejection-sampled so that neither lower bound exceeds k
# (no cheap dismissal) yet the true bandwidth does, as decided by the
# deadline-search oracle, not by the recognizer: the recognizer has to
# exhaust the whole enumeration to say no.
neg, meta = generate_negative_case(n=12, k=8, seed=21)
print("\nnegative case: bounds", bandwidth_bounds(neg), "<= k = 8")
print("  oracle: bandwidth <= 8 is", bandwidth_at_most(neg, 8))
result = recognize(neg, 8)
print("  verdict:", result.verdict, "| reason:", result.negative_reason)
