import ast
import re
import types
from pathlib import Path

import bentkit

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "bentkit"

# The public API, sorted.  A change here is a change to the API: record it
# in CHANGES.md.
EXPORTS = [
    "CensusReport",
    "CharSumReport",
    "DEFAULT_POLYS",
    "DistributionRow",
    "Duality",
    "DualityClass",
    "GF2k",
    "MetricIdentity",
    "NotBentError",
    "ReduciblePolynomialError",
    "SingularMatrixError",
    "SpreadLine",
    "SpreadSelection",
    "SymmetricRecord",
    "TruthTable",
    "WalshSpectrum",
    "affine_transform",
    "anti_selfdual_check",
    "balanced_g_functions",
    "census",
    "desarguesian",
    "dist_formula_general",
    "dist_formula_ps_minus",
    "dist_formula_ps_plus",
    "dist_to_dual",
    "distribution_table",
    "dual",
    "duality_class",
    "hamming_dist",
    "intersection_index",
    "is_bent",
    "is_orthogonal",
    "is_selfdual_selection",
    "kloosterman_sum",
    "line_dual",
    "line_points",
    "metric_identity_check",
    "mm_bent",
    "mm_dual",
    "nf_formula",
    "nonlinearity",
    "ps_general",
    "ps_minus",
    "ps_plus",
    "psap_from_g",
    "rayleigh",
    "rayleigh_quotient",
    "rayleigh_vs_charsum",
    "run_verification_suite",
    "selection",
    "selection_from_g",
    "selfdual_counts",
    "subspace_indicator",
    "subspace_span",
    "symmetric_bent",
    "symmetric_report",
    "symmetric_value_pattern",
    "wht",
]


def test_all_is_every_public_name_the_package_binds():
    names = bentkit.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(bentkit, name) for name in names)
    # submodules are bound too (by the package's own imports and by any
    # `import bentkit.x`), but are not exports
    public = {
        name for name, value in vars(bentkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_all_is_the_pinned_export_list():
    assert sorted(bentkit.__all__) == EXPORTS == sorted(EXPORTS)


def test_every_public_definition_is_exported_or_used():
    # a public top-level def or class that is neither in __all__ nor named
    # by other src code serves no caller: export it, use it, or delete it
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = path.name
                names.discard(stmt.name)
            used |= names
    orphans = {
        name: module for name, module in defined.items()
        if not name.startswith("_") and name not in bentkit.__all__ and name not in used
    }
    assert orphans == {}


def test_every_public_method_has_a_caller():
    # a public attribute of an exported class that no library or bench code
    # reads or names (perfbench/tracer.py patches by strings such as
    # "GF2k.gram_map"), and that no README example shows, only restates
    # another call: use it or delete it
    named = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                    named.update(node.value.split("."))
    for block in re.findall(r"```[^\n]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        named.update(re.findall(r"\w+", block))
    exported = [getattr(bentkit, name) for name in bentkit.__all__]
    uncalled = [
        f"{cls.__name__}.{attr}"
        for cls in exported if isinstance(cls, type)
        for attr in vars(cls)
        if not attr.startswith("_") and attr not in named
    ]
    assert uncalled == []


def test_vectors_are_checked_at_one_boundary():
    # whether a value is a vector of F_2^w is decided by boolfun._vectors
    # alone: no other function raises a range, sign or integer message of
    # its own.  TruthTable.__getitem__ keeps its IndexError, which ends
    # iteration over a table by the sequence protocol.
    phrases = re.compile(r"out of range|is negative|is not an integer")
    allowed = {("boolfun.py", "_vectors"), ("boolfun.py", "__getitem__")}
    own = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [
            (node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in allowed
        ]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            text = "".join(
                part.value for part in ast.walk(node.exc)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if phrases.search(text) and not any(a <= node.lineno <= b for a, b in spans):
                own.append(f"{path.name}:{node.lineno}")
    assert own == []
