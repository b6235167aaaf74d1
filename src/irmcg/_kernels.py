"""Placeholder: the f64 matvec is ``A @ v`` in linalg; perfbench still imports this module."""

USING_NUMBA = False
