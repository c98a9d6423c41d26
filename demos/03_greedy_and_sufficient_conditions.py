"""The degree-ordered greedy and the paper's two per-clique conditions.

Core vertices are colored in non-increasing clique degree.  When every clique
has at most sqrt(n) shared vertices, or at most ceil(n/d) of degree at least
d for every d, the greedy finishes within n colors on every cover the tests
draw.  The paper's statement bound ceil((n+d-1)/d), which check_sy2 uses by
default, is one looser at d = 2 and does not suffice for the greedy: it
holds on tests/data/sy2_statement_n6.efl, where the greedy fails.
"""

from efl import (
    check_sy1,
    check_sy2,
    check_sy2_all,
    example_instance,
    gen_dense,
    gen_random,
    run_greedy,
    verify_proper,
)


def show(report, title):
    print(f"{title} [{report.parameter}]: {'holds' if report.holds else 'fails'}")
    for row in report.per_clique:
        mark = "ok " if row.ok else "BAD"
        print(f"  clique {row.clique}: {row.count} vs bound {row.bound}  {mark}")


inst = example_instance()
show(check_sy1(inst), "sqrt-n condition on the example")
show(check_sy2(inst, 2), "degree>=2 condition on the example")
print()

# The sqrt-n condition fails on the example (three cliques hold 3 > sqrt(6)
# shared vertices), yet greedy still succeeds here:
result = run_greedy(inst)
report = verify_proper(inst, result.coloring)
print("greedy on the example:", result.status, "- colors used:", report.colors_used)
print()

# Dense covers break both conditions, and greedy can genuinely fail on them:
dense = gen_dense(5)
print("dense(5) sy2(all d):", "holds" if check_sy2_all(dense).holds else "fails")
print("greedy on dense(5):", run_greedy(dense).status, run_greedy(dense).reason)
print()

# Sparse random covers usually satisfy the conditions and greedy sails through.
rand = gen_random(8, merges=6, seed=123)
print("random(8, merges=6) sy1:", "holds" if check_sy1(rand).holds else "fails")
print("greedy on it:", run_greedy(rand).status)
