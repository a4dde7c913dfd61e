"""D4-lite: unsupervised domain discovery baseline (Ota et al., PVLDB'20)
— the paper's only competitor (§5 "Comparison to a baseline", §5.5).

The original D4 builds per-value context signatures, prunes them into
robust signatures, expands columns, clusters each column's values into
*local domains*, and keeps *strong domains* supported by several
columns; it operates on string columns only. D4-lite keeps exactly the
mechanisms the paper's comparison exercises (DESIGN.md substitution 6):

1. **String columns only** — a column whose values look mostly numeric
   is skipped (hence no coverage of numeric homographs).
2. **Local domains**: within each column, values are clustered by the
   evidence of their *other* column memberships — two values belong to
   the same local domain iff they are connected through shared foreign
   columns. A homograph whose foreign columns are alien to the rest of
   the column splinters into its own local domain.
3. **Expansion**: values occurring nowhere else join the column's
   dominant local domain (D4's signature-based expansion analogue).
4. **Strong domains**: local domains are merged across columns when
   their value sets agree (Jaccard ≥ ``MERGE_THRESHOLD``); merged groups
   need support from ≥ ``MIN_SUPPORT`` columns and internal agreement
   (mean pairwise Jaccard ≥ ``ROBUSTNESS``) to survive. Columns of
   large open vocabularies rarely agree → D4's coverage gap.

Homograph detection à la the paper: a value assigned to ≥2 strong
domains is reported as a homograph.

:func:`discover_domains` takes the lake's collected incidences
(:func:`repro.core.graph.incidences`) and runs no Spark: everything
above is pandas and Python over them, sorted by ``(attr, value)`` so
that the domains do not depend on lake row order.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd

from repro.core.normalize import ATTR_COL, VALUE_COL
from repro.graph.unionfind import UnionFind

_NUMERIC_RE = r"^[0-9.,\-+ %$]*[0-9][0-9.,\-+ %$]*$"
#: a column whose numeric-looking share reaches this is not a string column.
NUMERIC_CUTOFF = 0.5
#: signature Jaccard at which two value classes join one local domain.
SIG_THRESHOLD = 0.4
#: value-set Jaccard at which two local domains merge.
MERGE_THRESHOLD = 0.5
#: columns a merged domain needs to become a strong domain.
MIN_SUPPORT = 2
#: mean pairwise Jaccard a merged domain's local domains need.
ROBUSTNESS = 0.25
#: seed of the ≤200-pair sample behind the robustness check.
SAMPLE_SEED = 0


@dataclass(frozen=True)
class D4Result:
    """Discovered strong domains and their column assignments."""

    #: domain_id → frozenset of values.
    domains: dict[int, frozenset] = field(repr=False)
    #: (attr, domain_id) — one row per column ↦ strong-domain assignment.
    column_domains: pd.DataFrame = field(repr=False)
    #: attrs considered (string columns); coverage = assigned/considered.
    string_attrs: list[str] = field(repr=False)

    @property
    def n_domains(self) -> int:
        return len(self.domains)

    def homographs(self) -> list[str]:
        """Values assigned to ≥2 strong domains (paper's D4 adaptation)."""
        counts = Counter(v for vals in self.domains.values() for v in vals)
        return sorted(v for v, c in counts.items() if c >= 2)

    def domains_per_column(self) -> tuple[int, float]:
        """(max, avg) strong domains assigned per covered column —
        the §5.5 D4 output statistics."""
        if self.column_domains.empty:
            return 0, 0.0
        per_col = self.column_domains.groupby("attr")["domain_id"].nunique()
        return int(per_col.max()), float(per_col.mean())


def discover_domains(inc: pd.DataFrame) -> D4Result:
    """Run D4-lite over a lake's collected incidences, on the driver (the
    original D4 is a single-node Java program)."""
    # Sorted so grouping, tie-breaks and the robustness sample below do
    # not follow lake row order.
    inc = inc.sort_values([ATTR_COL, VALUE_COL], ignore_index=True)
    numeric = inc[VALUE_COL].str.contains(_NUMERIC_RE)
    numeric_frac = numeric.groupby(inc[ATTR_COL]).mean()
    string_attrs = sorted(numeric_frac.index[numeric_frac < NUMERIC_CUTOFF])
    memb = inc[inc[ATTR_COL].isin(string_attrs)]

    # value → frozenset of string columns containing it (its "context
    # signature" at column granularity — D4's equivalence classes).
    cols_of = {
        v: frozenset(g) for v, g in memb.groupby(VALUE_COL)[ATTR_COL].agg(list).items()
    }
    by_col = memb.groupby(ATTR_COL)[VALUE_COL].agg(list)

    # --- step 2+3: local domains per column ---------------------------
    # Values of a column are first grouped into equivalence classes by
    # identical column-membership signature; classes are then clustered
    # single-link by signature Jaccard ≥ ``SIG_THRESHOLD`` (each class is
    # compared against the largest already-seen classes — D4's robust-
    # signature pruning analogue). A homograph whose signature mixes
    # foreign columns into the column's core fails the threshold and
    # splinters into its own local domain.
    local_domains: list[tuple[str, frozenset]] = []  # (attr, values)
    for attr, values in by_col.items():
        classes: dict[frozenset, list[str]] = {}
        singles: list[str] = []
        for v in values:
            sig = cols_of[v]
            if len(sig) == 1:
                singles.append(v)  # column-local value: expansion below
            else:
                classes.setdefault(sig, []).append(v)
        sigs = sorted(classes, key=lambda s: -len(classes[s]))
        uf = UnionFind()
        anchors: list[frozenset] = []
        for sig in sigs:
            for other in anchors[:30]:  # compare against dominant classes
                inter = len(sig & other)
                if inter and inter / len(sig | other) >= SIG_THRESHOLD:
                    uf.union(sig, other)
            anchors.append(sig)
        comp_vals = [
            frozenset(v for s in group for v in classes[s])
            for group in uf.groups(sigs).values()
        ]
        if comp_vals:
            # expansion: column-local values join the dominant local domain.
            largest = max(range(len(comp_vals)), key=lambda i: len(comp_vals[i]))
            comp_vals[largest] = comp_vals[largest] | frozenset(singles)
        local_domains.extend((attr, c) for c in comp_vals)

    # --- step 4: merge into strong domains ----------------------------
    uf = UnionFind()
    inverted: dict[str, list[int]] = {}
    for i, (_, vals) in enumerate(local_domains):
        for v in vals:
            inverted.setdefault(v, []).append(i)
    pairs = set()
    for ids in inverted.values():
        # cap hub values' pair fan-out at their 50 lowest ids
        pairs.update(combinations(sorted(ids)[:50], 2))
    for i, j in pairs:
        a, b = local_domains[i][1], local_domains[j][1]
        inter = len(a & b)
        if inter and inter / (len(a) + len(b) - inter) >= MERGE_THRESHOLD:
            uf.union(i, j)

    rng = np.random.default_rng(SAMPLE_SEED)
    domains: dict[int, frozenset] = {}
    assign_rows = []
    next_id = 0
    for members in uf.groups(range(len(local_domains))).values():
        attrs = {local_domains[i][0] for i in members}
        if len(attrs) < MIN_SUPPORT:
            continue
        # ≥ MIN_SUPPORT columns, so ≥2 local domains: ``cand`` is never empty.
        sets = [local_domains[i][1] for i in members]
        cand = list(combinations(range(len(sets)), 2))
        if len(cand) > 200:
            idx = rng.choice(len(cand), size=200, replace=False)
            cand = [cand[i] for i in idx]
        jac = [len(sets[i] & sets[j]) / len(sets[i] | sets[j]) for i, j in cand]
        if float(np.mean(jac)) < ROBUSTNESS:
            continue
        domain_vals = frozenset().union(*sets)
        domains[next_id] = domain_vals
        assign_rows.extend((a, next_id) for a in sorted(attrs))
        next_id += 1

    return D4Result(
        domains=domains,
        column_domains=pd.DataFrame(assign_rows, columns=["attr", "domain_id"]),
        string_attrs=string_attrs,
    )
