"""Placeholder that perfbench imports: the f64 matvec is ``reduceat`` or BLAS in linalg."""

USING_NUMBA = False
