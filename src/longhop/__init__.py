"""Cayley-graph interconnect toolkit over Z_2^d.

Exact bisection analysis of XOR-hop networks, translation to and from
binary linear codes, deterministic constructions, and deployment
artifacts (solution records, wiring tables, topology comparisons).
Import what you need from the submodules, e.g.
`from longhop.bisection import bisection_fwht`; importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
