#!/usr/bin/env python3
"""A tour of the uniform rank-4 world on 8 elements.

The flip graph of these oriented matroids is connected with 2628
classes (the full closure runs in the acceptance suite; here we walk a
budgeted neighborhood). Non-Euclidean classes sit a few flips from the
cyclic polytope, each one flip from a Euclidean mutant, which the
Mandel pipeline turns into an extension witnessing that all programs
with it are Euclidean.
"""

import omforge as f

seed = f.om_from_points([[t**k for k in range(4)] for t in range(1, 9)])
graph = f.mutation_graph_bfs(seed, max_nodes=120)
print("budgeted BFS:", len(graph.nodes), "classes; budget exhausted:",
      graph.exhausted_budget)

depth_hist = {}
for node in graph.nodes.values():
    depth_hist[node.depth] = depth_hist.get(node.depth, 0) + 1
print("depth histogram:", dict(sorted(depth_hist.items())))

# a known non-Euclidean class (flip distance ~8 from the seed)
bad = f.cocircuits_from_chirotope(f.Chirotope.from_string(
    4, 8,
    "---+++++++++++-+++++++++++++++++++++++++++++++++++++++++++++++++-+++--",
))
print("\nnon-Euclidean class: distance to a Euclidean mutant:",
      f.flip_distance_to_euclidean(bad, radius=1))

report = f.classify(bad)
print("classification:", {
    "las_vergnas": report.las_vergnas,
    "euclidean_all_programs": report.euclidean_all_programs,
    "totally_non_euclidean": report.totally_non_euclidean,
    "L": report.L,
    "mandel_witness": report.mandel_witness.kind if report.mandel_witness else None,
})

# run the pipeline by hand: pick a mutation whose flip is Euclidean
for order in f.mutation_bases(bad):
    if f.all_programs_euclidean(f.flip_basis(bad, order)):
        g = next(e for e in range(8) if e not in order)
        result = f.mandel_from_euclidean_mutant(bad, order, g)
        print("\npipeline on mutation", order, "with g =", g)
        print("  deleting the new element recovers the input:",
              result.deletion_ok)
        print("  programs (result, e, f') Euclidean for every e:",
              all(result.program_verdicts.values()))
        break
