"""Static checks on the library source."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ertl"
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """'name (line n)' for each name an import binds that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_unused_imports_finds_unread_name():
    source = "import math\nimport os.path\nfrom json import dumps as d\nos.path.sep\n"
    assert unused_imports(source) == ["d (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source):
    """'module.name (line n)' for each underscore name imported from another ertl module.

    Relative imports and imports from the ``ertl`` package count; a dunder
    such as ``__version__`` is not private.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "ertl":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{module}.{name} (line {node.lineno})")
    return sorted(found)


def test_private_imports_finds_sibling_underscore_name():
    source = ("from . import __version__\nfrom .a import b, _c\n"
              "from ertl.d import _e as e\nfrom numpy import _globals\n")
    assert private_imports(source) == ["a._c (line 2)", "ertl.d._e (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def _np_call(node, names):
    """True when ``node`` calls ``np.<one of names>``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in names and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


def own_number_checks(source):
    """'idiom (line n)' for each place a function decides for itself what a number is.

    Two idioms count: a test of ``.dtype.kind``, and ``np.isfinite`` of the
    function's own arguments (``self`` included), directly or as an
    ``np.array(...)``/``np.asarray(...)`` of them, inline or bound to a name
    first.  ``measures`` holds the one rule (``require_finite`` and
    ``finite_array``); values a function computes may be tested freely, an
    argument rebound to one included.
    """
    found = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "kind"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"):
            found.add(f".dtype.kind (line {node.lineno})")
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        own = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}

        def of_own(expr):  # an argument, or np.array / np.asarray of an expression reading one
            if isinstance(expr, ast.Name):
                return expr.id in own
            return _np_call(expr, ("array", "asarray")) and any(
                isinstance(n, ast.Name) and n.id in own for n in ast.walk(expr))

        for node in ast.walk(func):  # names bound to arrays of the arguments, or not
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    for t, v in pairs:
                        if isinstance(t, ast.Name):
                            array = (isinstance(node, ast.Assign)
                                     and _np_call(v, ("array", "asarray")) and of_own(v))
                            (own.add if array else own.discard)(t.id)
        for node in ast.walk(func):
            if _np_call(node, ("isfinite",)) and node.args and of_own(node.args[0]):
                found.add(f"np.isfinite (line {node.lineno})")
    return sorted(found)


def test_own_number_checks_finds_both_idioms():
    source = ("def f(x, w):\n"
              "    if not np.isfinite(x).all():\n"
              "        raise ValueError(x)\n"
              "    y = np.array((*x, *w), dtype=complex)\n"
              "    if not np.isfinite(y).all():\n"
              "        raise ValueError(y)\n"
              "    if np.asarray(w).dtype.kind != 'f':\n"
              "        raise ValueError(w)\n"
              "    z, u = np.exp(x), np.asarray(w)\n"
              "    return np.isfinite(z).all() and np.isfinite(u).all()\n"
              "\n\n"
              "class S:\n"
              "    def check(self):\n"
              "        return np.isfinite(np.asarray(self.c)).all()\n"
              "\n\n"
              "def g(n, z):\n"
              "    z = z - 1\n"
              "    return np.isfinite(np.arange(n)).all() and np.isfinite(z).all()\n")
    assert own_number_checks(source) == [".dtype.kind (line 7)", "np.isfinite (line 10)",
                                         "np.isfinite (line 15)", "np.isfinite (line 2)",
                                         "np.isfinite (line 5)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "measures.py"],
                         ids=lambda p: p.name)
def test_only_measures_decides_what_a_number_is(path):
    assert own_number_checks(path.read_text()) == []


def module_definitions(source):
    """(name, node) for each function, class and assigned name at module level."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def dead_names(modules, texts, exported):
    """'module.name' for each module-level definition nothing else names.

    ``texts`` maps each file to its source, and ``modules`` lists the files
    whose definitions are checked.  A definition is dead when ``exported``
    lacks its name and no line of any text, outside the definition's own
    lines, holds the name as a word.
    """
    where = {}
    for path, text in texts.items():
        for line, row in enumerate(text.splitlines(), start=1):
            for word in set(re.findall(r"[A-Za-z_]\w*", row)):
                where.setdefault(word, []).append((path, line))
    dead = []
    for path in modules:
        for name, node in module_definitions(texts[path]):
            if name in exported:
                continue
            if all(p == path and node.lineno <= line <= node.end_lineno
                   for p, line in where[name]):
                dead.append(f"{Path(path).stem}.{name}")
    return sorted(dead)


def test_dead_names_finds_unnamed_definition():
    module = ("def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n"
              "\n\nclass Shape:\n    pass\n\n\nEXPORTED = 2\nDEAD = used()\n")
    texts = {"a.py": module, "b.py": "from a import Shape\n"}
    assert dead_names(["a.py"], texts, {"EXPORTED"}) == ["a.DEAD", "a.recursive"]


def test_no_dead_module_level_names():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    texts = {path: path.read_text() for top in ("src", "tests", "perfbench")
             for path in (ROOT / top).rglob("*.py")}
    assert dead_names(sorted(SRC.glob("*.py")), texts, exported) == []


def undocumented(init_source, sources):
    """'module.name' for each function or class ``init_source`` re-exports without a docstring.

    ``sources`` maps a module name to its text.  An exported name its module
    does not define at top level is reported too, so no export escapes.
    """
    missing = []
    for node in ast.parse(init_source).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        defs = dict(module_definitions(sources[node.module]))
        for alias in node.names:
            d = defs.get(alias.name)
            if d is None:
                missing.append(f"{node.module}.{alias.name} (not defined there)")
            elif (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not ast.get_docstring(d)):
                missing.append(f"{node.module}.{alias.name}")
    return sorted(missing)


def test_undocumented_finds_missing_docstrings():
    init = "from .a import f, g, C, K, gone\n"
    module = ("def f():\n    \"\"\"Doc.\"\"\"\n\n\ndef g():\n    pass\n\n\n"
              "class C:\n    \"\"\"\"\"\"\n\n\nK = 1\n\n\ndef h():\n    pass\n")
    assert undocumented(init, {"a": module}) == ["a.C", "a.g", "a.gone (not defined there)"]


def test_exports_have_docstrings():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert undocumented((SRC / "__init__.py").read_text(), sources) == []


#: the checks that decide a breakdown; they belong on accepted states only
BREAKDOWN_CHECKS = ("_check_betas", "_first_outside_disk", "_check_modulus",
                    "_first_outside_unit")


def impure_kernels(source):
    """'name (line n)' for each raise, or call of a breakdown check, in a ``_*_kernel`` function.

    A flow kernel is a pure array function: it is also evaluated off the
    trajectory (stage arguments, the start probe), where only the error test
    may judge it.  The walk covers the closures a kernel defines and returns
    (its bound evaluation), at any depth.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                and node.name.endswith("_kernel")):
            continue
        for inner in ast.walk(node):
            checks = (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                      and inner.func.id in BREAKDOWN_CHECKS)
            if checks or isinstance(inner, ast.Raise):
                found.append(f"{node.name} (line {inner.lineno})")
    return sorted(found)


def test_impure_kernels_finds_raise_and_check():
    source = ("def _a_kernel(b):\n    _check_betas(b[1:])\n    return b\n\n\n"
              "def _b_kernel(y):\n    if y:\n        raise ValueError(y)\n    return y\n\n\n"
              "def _c_kernel(y):\n    return abs(y)\n\n\n"
              "def validate(t, y):\n    _first_outside_disk(y)\n\n\n"
              "def _d_kernel(y, out):\n    def evaluate():\n        def inner():\n"
              "            _first_outside_disk(y)\n        out[:] = y\n"
              "    return evaluate\n\n\n"
              "def _e_kernel(y):\n    def evaluate():\n        if y:\n"
              "            raise ValueError(y)\n    return evaluate\n")
    assert impure_kernels(source) == ["_a_kernel (line 2)", "_b_kernel (line 8)",
                                      "_d_kernel (line 23)", "_e_kernel (line 31)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_flow_kernels_are_pure(path):
    assert impure_kernels(path.read_text()) == []


#: each flow kernel and the functions that share its one binding: its flow's
#: public right-hand side and its integrator (rhs_langmuir binds the ertl
#: kernel too, to check that the beta equation vanishes)
KERNEL_CALLERS = {"_ertl_kernel": {"rhs_ertl", "rhs_langmuir", "integrate"},
                  "_volterra_kernel": {"rhs_langmuir", "integrate"},
                  "_schur_kernel": {"rhs_schur", "integrate_schur"}}


def kernel_callers(source, wanted=lambda name: name.startswith("_") and name.endswith("_kernel")):
    """{name: {caller}} for each call of a ``wanted`` name, bare or as an attribute.

    ``wanted`` picks the ``_*_kernel`` names by default.  The caller is the
    module-level function or class the call sits in, at any depth, or
    "<module>" for a call at module level.
    """
    found = {}
    for top in ast.parse(source).body:
        caller = getattr(top, "name", "<module>")  # a def or class has a name
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if wanted(name):
                    found.setdefault(name, set()).add(caller)
    return found


def test_kernel_callers_finds_every_call_site():
    source = ("def _a_kernel(buf):\n    return buf\n\n\n"
              "def rhs_a(s):\n    return _a_kernel(s)()\n\n\n"
              "def integrate_a(s):\n    def bind():\n        return _a_kernel(s)\n"
              "    return bind()\n\n\n"
              "def _bind(s):\n    return m._b_kernel(s)\n\n\n"
              "class C:\n    def f(self):\n        return _a_kernel(self)\n\n\n"
              "X = _a_kernel([])\n")
    assert kernel_callers(source) == {"_a_kernel": {"rhs_a", "integrate_a", "C", "<module>"},
                                      "_b_kernel": {"_bind"}}


def test_each_kernel_is_bound_by_its_own_flow_only():
    # one binding per flow: no second layout, wrapper or module binds a kernel
    found = {}
    for path in MODULES:
        for kernel, callers in kernel_callers(path.read_text()).items():
            found.setdefault(kernel, set()).update(callers)
    assert found == KERNEL_CALLERS


#: the one map each way between a (c, d) chain and its ertl state at p = conj(q),
#: and the functions that call it: no public map, rate or flow keeps its own copy
MAP_CALLERS = {"_cd_to_ertl": {"map_beta_alpha_cd", "rhs_cd", "integrate_cd"},
               "_ertl_to_cd": {"map_cd_beta_alpha", "integrate_cd"}}


def test_each_cd_map_is_called_by_its_own_callers_only():
    found = {}
    for path in MODULES:
        for name, callers in kernel_callers(path.read_text(), MAP_CALLERS.__contains__).items():
            found.setdefault(name, set()).update(callers)
    assert found == MAP_CALLERS


#: each private snapshot constructor and the steppers that build states with
#: it: ``integrate_core`` accepts only finite states that passed ``validate``,
#: so the public constructors' checks would find nothing there
UNCHECKED_CALLERS = {"LatticeState._unchecked": {"integrate"},
                     "VerblunskySeq._unchecked": {"integrate_schur"}}


def unchecked_callers(source):
    """{"owner._unchecked": {caller}} for each reference to an ``_unchecked`` attribute.

    A reference counts, called or not, so an alias cannot hide a call.  The
    caller is found as by ``kernel_callers``.
    """
    found = {}
    for top in ast.parse(source).body:
        caller = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "_unchecked":
                found.setdefault(f"{ast.unparse(node.value)}._unchecked", set()).add(caller)
    return found


def test_unchecked_callers_finds_every_reference():
    source = ("class S:\n    @classmethod\n    def _unchecked(cls, x):\n        return cls()\n\n\n"
              "def integrate(x):\n    return [S._unchecked(v) for v in x]\n\n\n"
              "def sneaky(x):\n    make = m.S._unchecked\n    return make(x)\n\n\n"
              "Y = S._unchecked(1)\n")
    assert unchecked_callers(source) == {"S._unchecked": {"integrate", "<module>"},
                                         "m.S._unchecked": {"sneaky"}}


def test_unchecked_snapshots_are_built_by_their_steppers_only():
    found = {}
    for path in MODULES:
        for owner, callers in unchecked_callers(path.read_text()).items():
            found.setdefault(owner, set()).update(callers)
    assert found == UNCHECKED_CALLERS


def idle_errors(errors_source, sources, tests):
    """'Name (never raised)' or 'Name (named by no test)' for each ErtlError subclass.

    The subclasses are the classes of ``errors_source`` that derive from
    ``ErtlError``, directly or through another subclass.  One is raised when
    a ``raise`` statement of one of the ``sources`` raises it, called or by
    name, and tested when one of the ``tests`` holds its name as a word.
    """
    subclasses = {"ErtlError"}
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in subclasses for b in node.bases):
            subclasses.add(node.name)
    subclasses.discard("ErtlError")
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    named = {word for text in tests for word in re.findall(r"\w+", text)}
    return sorted([f"{name} (never raised)" for name in subclasses - raised]
                  + [f"{name} (named by no test)" for name in subclasses - named])


def test_idle_errors_finds_unraised_and_untested_subclass():
    errors = ("class ErtlError(Exception):\n    pass\n\n\n"
              "class A(ErtlError):\n    pass\n\n\nclass B(A, KeyError):\n    pass\n\n\n"
              "class C(ErtlError):\n    pass\n\n\nclass D(ErtlError):\n    pass\n\n\n"
              "class Other(Exception):\n    pass\n")
    sources = ["def f():\n    raise A('x')\n\n\ndef g():\n    raise B from None\n\n\n"
               "def h():\n    return D('built, not raised')\n\n\n"
               "def k():\n    raise Other()\n"]
    tests = ["with pytest.raises(A):\n    f()\n", "# B and D are named here\n"]
    assert idle_errors(errors, sources, tests) == ["C (named by no test)", "C (never raised)",
                                                   "D (never raised)"]


def test_every_error_is_raised_and_tested():
    # a type nothing raises is dead, and one no test names is a path the suite never checks
    tests = [p.read_text() for p in (ROOT / "tests").glob("test_*.py")
             if p.name != "test_source.py"]
    assert idle_errors((SRC / "errors.py").read_text(),
                       [p.read_text() for p in MODULES], tests) == []
