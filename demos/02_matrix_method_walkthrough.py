"""Watch the intersection-matrix method color the bundled example step by step.

Every assignment writes one color into the whole cell block of a shared
vertex; the snapshots, replayed from the event trace, show the matrix growing
toward its final state.
"""

from efl import (
    Assigned,
    EngineConfig,
    example_instance,
    gen_dense,
    initial_matrix,
    matrix_to_coloring,
    render_trace,
    replay_trace,
    run_matrix_method,
    verify_proper,
)

inst = example_instance()
print("initial intersection matrix ('.' disjoint, '?' unassigned):")
print(initial_matrix(inst).render())
print()

result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
for k, event in enumerate(result.trace):
    if isinstance(event, Assigned):
        print(f"assign color {event.color} to {event.vertex}:")
        print(replay_trace(inst, result.trace[: k + 1], initial_matrix(inst)).render())
        print()

core = matrix_to_coloring(inst, result.final_matrix)
print("core coloring read off the matrix:", core)
total = result.coloring
print("after extension, all", len(total), "vertices are colored;")
print("proper:", verify_proper(inst, total).proper)
print()

# On tight instances the method gets stuck and repairs earlier choices.
# The dense 5-clique cover needs three recolors; the trace shows them.
dense = gen_dense(5)
repair_run = run_matrix_method(dense, EngineConfig(trace_enabled=True))
print("dense(5) event log:")
print(render_trace(repair_run.trace))
print("proper:", verify_proper(dense, repair_run.coloring).proper)
