"""Reproduction of *DomainNet: Homograph Detection for Data Lake
Disambiguation* (Leventidis et al., EDBT 2021) on PySpark.

Packages:

- ``repro.core``      — DomainNet itself: bipartite graph, LCC, BC, pipeline.
- ``repro.graph``     — graph-engine substrate: CSR adjacency, union-find.
- ``repro.lakes``     — data-lake substrate and benchmark generators
                        (SB, TUS-lite, TUS-I injection, NYC-scale).
- ``repro.baselines`` — the D4 domain-discovery baseline (D4-lite).
- ``repro.eval``      — precision/recall/F1 and top-k curve metrics.
"""
