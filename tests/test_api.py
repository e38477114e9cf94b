"""Every public name, method and defaulted parameter of the package has a
caller outside tests, and every public attribute it assigns a reader."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pnphom")

# public names, methods (Class.method), defaulted parameters
# (function(param), Class(param) for the constructor, Class.method(param))
# and attributes (Class.attribute) whose only callers or readers are
# tests, each kept for a reason
ALLOWED = {
    # the sample-stage species corrector whose vanishing acceptance
    # criterion 06 checks
    "omega_stage_species",
    # counts the trend inversions that the acceptance trend checks assert on
    "count_error_inversions",
    # the exact inclusion area that the template's solid area is checked
    # against
    "UnitCellSpec.polygon_area",
    # the exact mean that the constant-coefficient oracles compare against
    "CoefficientField.mean_value",
    # the tests' check that a cell corrector is periodic
    "CellProblemSolution.periodicity_defect",
    # the tests' check that a cell corrector has weighted mean zero
    "CellProblemSolution.mean_defect",
    # the reader of the effective.json schema
    "EffectiveCoefficients.from_json",
    # lets tests run the command line with their own argv
    "main(argv)",
    # the exponent of the paper's L^p oscillation integrals
    "TestIntegrand(p)",
    # the stage-1 tensors per sample, which the acceptance checks compare
    # with the closed forms of a cell-layered coefficient
    "DielectricResult.theta_star",
    # the P1 gradient that the drift operator and the cell correctors'
    # fluxes are checked against
    "tri_gradient",
}


def _sources():
    """(module, source, in package) of the package and of the benchmark,
    without the benchmark's own tests."""
    bench = [path for path in glob.glob(os.path.join(ROOT, "bench", "*.py"))
             if not os.path.basename(path).startswith("test_")]
    paths = sorted(glob.glob(os.path.join(PACKAGE, "*.py"))) + sorted(bench)
    return [(os.path.basename(path)[:-3], open(path).read(),
             os.path.dirname(path) == PACKAGE) for path in paths]


def _names(nodes):
    """Names and attribute names in the statements."""
    names = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


class _Classes:
    """The package's classes, to resolve the receiver of an attribute.

    A receiver resolves to the classes whose methods it can reach:
    ``self``/``cls`` to the enclosing class with its bases and subclasses;
    a name every binding of which in the unit is ``x = Class(...)`` or
    ``x = module.Class(...)``, ``Class`` and ``module.Class`` to that
    class with its bases.  Any other receiver resolves to every class,
    which is matching by name.
    """

    def __init__(self, bases):
        self.bases = {c: [b for b in bs if b in bases]
                      for c, bs in bases.items()}

    def lineage(self, cls):
        """cls and its bases, transitively."""
        out = {cls}
        for base in self.bases[cls]:
            out |= self.lineage(base)
        return out

    def family(self, cls):
        """cls with its bases and its subclasses."""
        return self.lineage(cls) | {c for c in self.bases
                                    if cls in self.lineage(c)}

    def named(self, node):
        """The class a ``Class`` or ``module.Class`` expression names."""
        if isinstance(node, ast.Name) and node.id in self.bases:
            return node.id
        if (isinstance(node, ast.Attribute) and node.attr in self.bases
                and isinstance(node.value, ast.Name)):
            return node.attr
        return None

    def constructed(self, nodes):
        """Names that only ever hold instances of package classes:
        {name: classes} for the names every binding of which in the
        statements is a constructor call."""
        stores, built = {}, {}
        for stmt in nodes:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Store):
                    stores[node.id] = stores.get(node.id, 0) + 1
                elif isinstance(node, ast.arg):
                    stores[node.arg] = stores.get(node.arg, 0) + 1
                elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and isinstance(node.value, ast.Call)
                      and self.named(node.value.func)):
                    built.setdefault(node.targets[0].id, []).append(
                        self.named(node.value.func))
        return {name: set(classes) for name, classes in built.items()
                if len(classes) == stores[name]}

    def receiver(self, node, cls_name, bound):
        """The classes whose methods an attribute of node can reach."""
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls") and cls_name in self.bases:
                return self.family(cls_name)
            if node.id in bound:
                return set().union(*map(self.lineage, bound[node.id]))
        named = self.named(node)
        return self.lineage(named) if named else set(self.bases)


def _uses(nodes, classes, cls_name):
    """(method uses, calls) of the statements.

    Method uses are the (class, method) pairs the attributes can reach.
    Calls are (callee name, call, classes): the callee is the called name
    or attribute, and classes, for an attribute, the classes its receiver
    resolves to (None for a bare name); ``cls(...)`` counts as a call of
    the enclosing class ``cls_name``.
    """
    bound = classes.constructed(nodes)
    uses, calls = set(), []
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                uses |= {(c, node.attr) for c in classes.receiver(
                    node.value, cls_name, bound)}
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if name == "cls" and cls_name is not None:
                    name = cls_name
                calls.append((name, node, None))
            elif isinstance(func, ast.Attribute):
                calls.append((func.attr, node, classes.receiver(
                    func.value, cls_name, bound)))
    return uses, calls


class _Unit:
    """A piece of source whose uses count only while its owner is live.

    owner is None (always live), a top-level name, or (class, method).
    """

    def __init__(self, owner, nodes, classes, cls_name=None, discard=()):
        self.owner = owner
        self.uses = _names(nodes) - set(discard)
        self.method_uses, self.calls = _uses(nodes, classes, cls_name)
        self.method_uses.discard(owner)


class _Callable:
    """A public function, class constructor or method with its defaulted
    parameters: (name, positional index or None for keyword-only)."""

    def __init__(self, label, callee, owner, args, skip):
        self.label = label
        self.callee = callee
        self.owner = owner
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        self.params = [(a.arg, i) for i, a in enumerate(positional)
                       if i >= first]
        self.params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                      args.kw_defaults)
                        if d is not None]

    def reached_by(self, callee, classes):
        """Whether a call of callee on a receiver resolved to classes can
        call this: a method only through an attribute of its class."""
        if callee != self.callee:
            return False
        if isinstance(self.owner, tuple) and self.owner[1] == callee:
            return classes is not None and self.owner[0] in classes
        return True

    def passed(self, call, param, index):
        for kw in call.keywords:
            if kw.arg is None or kw.arg == param:
                return True
        if index is None:
            return False
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return index < len(call.args)


def _scan(sources):
    """(top-level definitions, methods, callables, units) of the sources."""
    trees = [(module, ast.parse(text, module), in_package)
             for module, text, in_package in sources]
    classes = _Classes({
        stmt.name: [ast.unparse(b).rsplit(".", 1)[-1] for b in stmt.bases]
        for _, tree, in_package in trees if in_package
        for stmt in tree.body if isinstance(stmt, ast.ClassDef)})
    definitions, methods, callables, units = {}, {}, [], []
    for module, tree, in_package in trees:
        for stmt in tree.body:
            if not in_package or not isinstance(stmt, (ast.FunctionDef,
                                                       ast.ClassDef)):
                units.append(_Unit(None, [stmt], classes))
                continue
            name = stmt.name
            public = not name.startswith("_")
            if public:
                definitions[name] = module
            if isinstance(stmt, ast.FunctionDef):
                units.append(_Unit(name, [stmt], classes, discard=[name]))
                if public:
                    callables.append(_Callable(
                        "%s.%s" % (module, name), name, name, stmt.args, 0))
                continue
            body = []
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef):
                    body.append(item)
                    continue
                owner = (name, item.name)
                units.append(_Unit(owner, [item], classes, cls_name=name,
                                   discard=[name, item.name]))
                decorators = {d.id for d in item.decorator_list
                              if isinstance(d, ast.Name)}
                skip = 0 if "staticmethod" in decorators else 1
                if item.name == "__init__" and public:
                    callables.append(_Callable(
                        "%s.%s" % (module, name), name, owner, item.args, 1))
                elif not item.name.startswith("_"):
                    methods[owner] = module
                    callables.append(_Callable(
                        "%s.%s.%s" % (module, name, item.name), item.name,
                        owner, item.args, skip))
            units.append(_Unit(name, body, classes, cls_name=name,
                               discard=[name]))
    return definitions, methods, callables, units


def _unread(sources, allowed):
    """Public attributes the package assigns on ``self`` that no source
    reads: no attribute load of the name and no string constant that
    ``getattr`` could use.  Labels are module.Class.attribute."""
    assigned, read = {}, set()
    for module, text, in_package in sources:
        tree = ast.parse(text, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
        if not in_package:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and not node.attr.startswith("_")):
                    assigned["%s.%s" % (cls.name, node.attr)] = module
    return sorted("%s.%s" % (module, key) for key, module in assigned.items()
                  if key.split(".")[1] not in read and key not in allowed)


def _allowed(label):
    """The allow-list key of a label: the module prefix dropped."""
    return label.split(".", 1)[1]


def _dead(owner, orphans):
    """Whether code owned by owner lies inside an orphan: an orphaned name,
    an orphaned method or any method of an orphaned class."""
    return owner in orphans or (isinstance(owner, tuple)
                                and owner[0] in orphans)


def _orphans(definitions, methods, units, allowed):
    """Public names no live unit uses, and public methods no live unit
    reaches through an attribute, to fixpoint: a name used only inside
    orphans is an orphan too."""
    orphans = set()
    while True:
        used, reached = set(), set()
        for unit in units:
            if _dead(unit.owner, orphans):
                continue
            used |= unit.uses
            reached |= unit.method_uses
        found = {n for n in definitions
                 if n not in used and n not in allowed}
        found |= {m for m in methods
                  if m not in reached and "%s.%s" % m not in allowed}
        if found == orphans:
            return orphans
        orphans = found


def _unpassed(callables, units, orphans, allowed):
    """Defaulted parameters that no call from a live unit passes."""
    missing = []
    for c in callables:
        key = _allowed(c.label)
        if _dead(c.owner, orphans) or key in allowed:
            continue
        calls = [call for unit in units
                 if unit.owner != c.owner and not _dead(unit.owner, orphans)
                 for callee, call, classes in unit.calls
                 if c.reached_by(callee, classes)]
        for param, index in c.params:
            if "%s(%s)" % (key, param) in allowed:
                continue
            if not any(c.passed(call, param, index) for call in calls):
                missing.append("%s(%s)" % (c.label, param))
    return missing


def _findings(allowed=ALLOWED, sources=None):
    """Labels of the orphaned names and methods, of the unpassed defaulted
    parameters and of the unread attributes of the sources (the package
    and the benchmark when None)."""
    sources = sources or _sources()
    definitions, methods, callables, units = _scan(sources)
    assert definitions, "no package sources found under %s" % PACKAGE
    orphans = _orphans(definitions, methods, units, allowed)
    labels = sorted("%s.%s" % (definitions[o], o) if isinstance(o, str)
                    else "%s.%s.%s" % (methods[o], o[0], o[1])
                    for o in orphans)
    return (labels, _unpassed(callables, units, orphans, allowed),
            _unread(sources, allowed))


def test_public_names_have_callers():
    orphans, _, _ = _findings()
    assert not orphans, "public names with no caller outside tests: %s" % (
        ", ".join(orphans))


def test_defaulted_parameters_are_passed():
    _, unpassed, _ = _findings()
    assert not unpassed, (
        "defaulted parameters no caller outside tests passes: %s"
        % ", ".join(unpassed))


def test_public_attributes_are_read():
    _, _, unread = _findings()
    assert not unread, (
        "public attributes nothing outside tests reads: %s"
        % ", ".join(unread))


ATTRIBUTES = """
class A:
    def __init__(self):
        self.loaded = 1
        self.named = 2
        self.written = 3
        self._private = 4

    def show(self):
        return self.loaded, getattr(self, "named")
"""


def test_attribute_read_by_load_or_getattr_name():
    sources = [("demo", ATTRIBUTES + "\nA().show()\n", True)]
    assert _findings(set(), sources)[2] == ["demo.A.written"]
    assert _findings({"A.written"}, sources)[2] == []


def test_allow_list_is_current():
    """Every allow-list entry names a definition that has no other caller."""
    for entry in sorted(ALLOWED):
        flagged = {_allowed(label)
                   for labels in _findings(ALLOWED - {entry})
                   for label in labels}
        assert entry in flagged, "stale allow-list entry %s" % entry


# two classes define m; main reaches one of them
TWO_CLASSES = """
class A:
    def m(self):
        return 1

    def run(self):
        return {reach_a}


class B:
    def m(self):
        return 2


def main(x):
{body}


main(None)
"""


@pytest.mark.parametrize("reach_a,body,flagged", [
    # through self: A.run reaches A.m only
    ("self.m()", "    return A().run(), B()", ["demo.B.m"]),
    # through a name bound by the constructor
    ("0", "    a = A()\n    return a.run(), a.m(), B()", ["demo.B.m"]),
    # a receiver that cannot be resolved reaches every m
    ("0", "    return A().run(), B(), x.m()", []),
], ids=["self", "constructor", "unresolved"])
def test_receiver_decides_which_method_is_reached(reach_a, body, flagged):
    source = TWO_CLASSES.format(reach_a=reach_a, body=body)
    orphans, unpassed, _ = _findings(set(), [("demo", source, True)])
    assert orphans == flagged
    assert unpassed == []
