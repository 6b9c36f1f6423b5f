"""Workbench for well-founded and recursive coalgebras of finite set functors."""

from .errors import (CapExceeded, CarrierMismatch, FunctorMismatch,
                     IncompatibleQuotient, InternalConsistencyError,
                     MalformedValue, NotAHomomorphism, NotWellFounded,
                     WfcoalgError)
from .finset import Carrier, FinMap, Subobject, all_subsets, element_key
from .functor import (Const, Exp, FunctorExpr, Id, PowFin, Prod, RFunctor, Sum,
                      eval_map, eval_obj, preserves_inverse_images, support)
from .coalgebra import (Algebra, CanonicalGraph, Coalgebra, canonical_graph,
                        enumerate_homs, induced_subcoalgebra, is_cartesian,
                        is_coalgebra_hom, is_subcoalgebra, next_time, paired, quotient)
from .wellfounded import WfPartResult, coreflect, is_wellfounded, wf_part
from .recursion import (InitialChain, OracleVerdict, OracleWitness,
                        UnfoldResult, find_homs, hylo, initial_chain,
                        para_hylo, parametric_oracle, recursive_oracle,
                        unfold_to_mu)
from .textform import (ParseError, SpecDocument, parse_functor, parse_spec,
                       parse_value, render_functor, render_spec, render_value)

__version__ = "0.1.0"
