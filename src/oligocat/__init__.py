"""Exact measures, integration and rigid tensor categories for concrete
oligomorphic groups: the infinite symmetric group, the order-preserving
self-maps of the line, the infinite linear groups at the measure level, and
Fraisse classes of finite structures."""

from .scalar import (EvalPoint, Poly, TruncatedSeries, binomial_poly, binom_of,
                     binomial_series, evaluate, falling_factorial)
from .setexpr import SetExpr, empty, inj, one, power, product, sub, union
from .symcontext import SymContext, SymPattern
from .ordercontext import (OrderContext, OrderPattern, Symbol, ruffle_product,
                           single_color_symbols, verify_symbol)
from .glqmeasure import QContext, count_subspaces
from .integration import (GSetMap, SchwartzFunction, change_level, integrate,
                          projection_square, pullback, pushforward)
from .matrixalg import (EndAlgebra, InvariantMatrix, char_series, higher_trace,
                        jordan_split, matmul, min_poly, trace, trace_pairing,
                        is_semisimple_end)
from .category import (FrobeniusData, PermObject, categorical_dimension,
                       categorical_trace, duality_data, frobenius,
                       graph_matrices, hom_basis, idempotent_decompose,
                       identity_morphism, tensor, zigzag)
from . import fraisse

__all__ = [name for name in dir() if not name.startswith("_")]
