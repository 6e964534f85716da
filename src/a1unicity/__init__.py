"""Jordan-type calculus for order-p unipotent elements of SL2-modules and
unicity tests for A1-overgroups in simple algebraic groups.

Importing the package loads none of its modules.  `a1unicity.<name>`
imports the module that defines <name> and reads the name there on every
access, so nothing is cached here; `import a1unicity.<module>` loads only
what that module needs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "atlas": "AtlasVerdict ExceptionalGroup ExceptionalType group known_labels "
    "list_unique verdict",
    "classical": "Family GroupFamily Partition SL SO Sp Verdict is_order_p "
    "unicity_verdict validate witnesses",
    "enumerator": "EmbeddingClass EnumerationResult canonicalize dn_partition_list "
    "enumerate_embeddings jordan_menu",
    "errors": "VerdictKind",
    "ffmatrix": "PrimeField",
    "jordan": "JordanType jordan_type_of_unipotent summand_profile tensor "
    "tensor_multi tensor_pair tensor_pair_oracle",
    "sl2modules": "Doubled FormType Irr IrreducibleDescriptor IrreducibleFactor "
    "ModuleDescriptor Tilting Trivial Weyl admits_form check_realizable dimension "
    "form_type format_descriptor jordan_type parse_descriptor realize",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
