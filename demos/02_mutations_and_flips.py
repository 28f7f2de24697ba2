#!/usr/bin/env python3
"""Simplicial topes, mutation certificates, and mutation flips.

A tope is simplicial iff it has exactly rank-many adjacent cocircuits,
iff some basis has pairwise-conformal base cocircuits. Flipping the
chirotope sign of a mutation basis produces a new oriented matroid
(the mutant); flips generate the mutation graph.
"""

import omforge as f

om = f.om_from_points([[t**k for k in range(4)] for t in range(1, 9)])

certs = f.mutations(om)
print("mutations of cyclic C(4,8):", [c.basis for c in certs])
print("per-element adjacency:", f.mutation_adjacency(om))
print("L = min adjacency:", f.min_adjacent_mutations(om),
      "(Shannon: rank for realizable arrangements; tight here)")

cert = f.mutation_from_basis(om, (0, 1, 2, 3))
print("\ncertificate for the consecutive basis:")
print("  tope:", cert.tope.to_string())
for e, x in cert.base_cocircuits:
    print(f"  base cocircuit at {e}: {x.to_string()}")

# flip: negate that one basis orientation (by certificate or by basis)
mutant = f.flip(om, cert)
print("\nflip changes exactly one basis sign:",
      sum(mutant.chirotope.basis_sign(b) != om.chirotope.basis_sign(b)
          for b in __import__("itertools").combinations(range(8), 4)))
print("flip twice returns the original:",
      f.flip_basis(mutant, cert.basis) == om)

# canonical keys tell classes apart under relabeling + reorientation
print("\ncanonical keys differ:",
      f.canonical_form(om) != f.canonical_form(mutant))

# a small breadth-first walk in the mutation graph
graph = f.mutation_graph_bfs(om, max_nodes=25)
print("BFS found", len(graph.nodes), "classes (budget 25);",
      "budget exhausted:", graph.exhausted_budget)

# direct sums multiply mutation counts: W3 + W3 has 3*3 of them
w3 = f.om_from_points([[1, 1], [1, 2], [1, 3]])
s = w3.direct_sum(w3)
print("\nW3 + W3 mutations:", len(f.mutations(s)),
      "| adjacency per element:", f.mutation_adjacency(s))
