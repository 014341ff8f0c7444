"""Exact-arithmetic workbench for sl2 weight modules and related algebra.

Modules:

- ``exactla``    exact scalars and sparse linear algebra (the oracle layer)
- ``sl2mod``     truncated sl2-modules with exact action matrices, the
                 weight slices of Ln (x) V0, and T_r from its generator
- ``enright``    index sets, highest weight vectors, projective generators,
                 decomposition and Casimir audits
- ``hecke``      affine Hecke relations in faithful finite representations
- ``heisenberg`` integral Heisenberg algebra normal forms
- ``adelman``    abelianization of the category of rational matrix objects
- ``cli``        batch verification front end

The sl2 modules import one way: ``exactla`` <- ``sl2mod`` <- ``enright``
<- ``cli``.
"""

__version__ = "0.1.0"
