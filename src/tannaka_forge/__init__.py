"""Exact algebra over finite chain rings: Galois-ring arithmetic, Smith-style
normal forms, finitely presented modules, coalgebras and comodules over a base
algebra, coend computation for concrete diagram categories, and the filtered
F-module pipeline, with a CLI that emits structured reports."""

from .rings import RingSpec, ring_make, NonUnitError
from .linalg import (Matrix, SmithForm, smith, kernel, solve,
                     is_invertible, howell)
from .modules import (FinModule, ModuleMap, module_from_presentation,
                      hom_module, tensor_with_data, map_kernel, map_cokernel,
                      direct_sum)
from .algebra import (AlgebraSpec, BModule, BBBimodule, free_bmodule,
                      regular_bimodule, as_b_module, is_b_free)
from .coalgebra import (Coalgebra, Comodule, coalgebra_check, comodule_check,
                        comodule_hom, comodule_hom_span, cofree, AxiomError)
from .tannaka import (DiagObject, DiagramCategory, hom_closure, coend,
                      CoendResult, lift_coaction, unit_fully_faithful_check,
                      counit_map, flatness_check, recognition_check,
                      RecognitionReport, DiagramNotClosed)
from .mf import (FilteredFModule, mf_make, mbar, is_mf_fl, mf_hom,
                 mf_direct_sum, mf_to_diagram, tate_object, MFError)

__all__ = [
    "RingSpec", "ring_make", "NonUnitError",
    "Matrix", "SmithForm", "smith", "kernel", "solve",
    "is_invertible", "howell",
    "FinModule", "ModuleMap", "module_from_presentation", "hom_module",
    "tensor_with_data", "map_kernel", "map_cokernel", "direct_sum",
    "AlgebraSpec", "BModule", "BBBimodule", "free_bmodule",
    "regular_bimodule", "as_b_module", "is_b_free",
    "Coalgebra", "Comodule", "coalgebra_check", "comodule_check",
    "comodule_hom", "comodule_hom_span", "cofree", "AxiomError",
    "DiagObject", "DiagramCategory", "hom_closure", "coend", "CoendResult",
    "lift_coaction", "unit_fully_faithful_check", "counit_map",
    "flatness_check", "recognition_check", "RecognitionReport",
    "DiagramNotClosed",
    "FilteredFModule", "mf_make", "mbar", "is_mf_fl", "mf_hom",
    "mf_direct_sum", "mf_to_diagram", "tate_object", "MFError",
]
