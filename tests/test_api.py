"""Every public name, method and defaulted parameter of the package has a
caller outside tests."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pnphom")

# public names, methods (Class.method) and defaulted parameters
# (function(param), Class(param) for the constructor, Class.method(param))
# whose only callers are tests, each kept for a reason
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
}


def _sources():
    """The package and the benchmark, without the benchmark's own tests."""
    bench = [path for path in glob.glob(os.path.join(ROOT, "bench", "*.py"))
             if not os.path.basename(path).startswith("test_")]
    return sorted(glob.glob(os.path.join(PACKAGE, "*.py"))) + sorted(bench)


def _names(nodes):
    """(names and attribute names, attribute names) in the statements."""
    names, attributes = set(), set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names | attributes, attributes


def _calls(nodes, cls_name):
    """(callee name, call) for every call in the given statements.

    The callee is the called name or attribute; ``cls(...)`` counts as a
    call of the enclosing class ``cls_name``.
    """
    out = []
    for stmt in nodes:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if name == "cls" and cls_name is not None:
                    name = cls_name
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            out.append((name, node))
    return out


class _Unit:
    """A piece of source whose uses count only while its owner is live.

    owner is None (always live), a top-level name, or (class, method).
    """

    def __init__(self, owner, nodes, cls_name=None, discard=()):
        self.owner = owner
        uses, attributes = _names(nodes)
        self.uses = uses - set(discard)
        self.attribute_uses = attributes - set(discard)
        self.calls = _calls(nodes, cls_name)


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

    def passed(self, call, param, index):
        for kw in call.keywords:
            if kw.arg is None or kw.arg == param:
                return True
        if index is None:
            return False
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return index < len(call.args)


def _scan():
    """(top-level definitions, methods, callables, units) of the sources."""
    definitions, methods, callables, units = {}, {}, [], []
    for path in _sources():
        module = os.path.basename(path)[:-3]
        in_package = os.path.dirname(path) == PACKAGE
        for stmt in ast.parse(open(path).read(), path).body:
            if not in_package or not isinstance(stmt, (ast.FunctionDef,
                                                       ast.ClassDef)):
                units.append(_Unit(None, [stmt]))
                continue
            name = stmt.name
            public = not name.startswith("_")
            if public:
                definitions[name] = module
            if isinstance(stmt, ast.FunctionDef):
                units.append(_Unit(name, [stmt], discard=[name]))
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
                units.append(_Unit(owner, [item], cls_name=name,
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
            units.append(_Unit(name, body, cls_name=name, discard=[name]))
    return definitions, methods, callables, units


def _allowed(label):
    """The allow-list key of a label: the module prefix dropped."""
    return label.split(".", 1)[1]


def _dead(owner, orphans):
    """Whether code owned by owner lies inside an orphan: an orphaned name,
    an orphaned method or any method of an orphaned class."""
    return owner in orphans or (isinstance(owner, tuple)
                                and owner[0] in orphans)


def _orphans(definitions, methods, units, allowed):
    """Public names no live unit uses, and public methods no live unit uses
    as an attribute, to fixpoint: a name used only inside orphans is an
    orphan too."""
    orphans = set()
    while True:
        used, attributes = set(), set()
        for unit in units:
            if _dead(unit.owner, orphans):
                continue
            used |= unit.uses
            attributes |= unit.attribute_uses
        found = {n for n in definitions
                 if n not in used and n not in allowed}
        found |= {m for m in methods
                  if m[1] not in attributes and "%s.%s" % m not in allowed}
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
                 for callee, call in unit.calls if callee == c.callee]
        for param, index in c.params:
            if "%s(%s)" % (key, param) in allowed:
                continue
            if not any(c.passed(call, param, index) for call in calls):
                missing.append("%s(%s)" % (c.label, param))
    return missing


def _findings(allowed=ALLOWED):
    """Labels of the orphaned names and methods, and of the unpassed
    defaulted parameters."""
    definitions, methods, callables, units = _scan()
    assert definitions, "no package sources found under %s" % PACKAGE
    orphans = _orphans(definitions, methods, units, allowed)
    labels = sorted("%s.%s" % (definitions[o], o) if isinstance(o, str)
                    else "%s.%s.%s" % (methods[o], o[0], o[1])
                    for o in orphans)
    return labels, _unpassed(callables, units, orphans, allowed)


def test_public_names_have_callers():
    orphans, _ = _findings()
    assert not orphans, "public names with no caller outside tests: %s" % (
        ", ".join(orphans))


def test_defaulted_parameters_are_passed():
    _, unpassed = _findings()
    assert not unpassed, (
        "defaulted parameters no caller outside tests passes: %s"
        % ", ".join(unpassed))


def test_allow_list_is_current():
    """Every allow-list entry names a definition that has no other caller."""
    for entry in sorted(ALLOWED):
        orphans, unpassed = _findings(ALLOWED - {entry})
        flagged = {_allowed(label) for label in orphans + unpassed}
        assert entry in flagged, "stale allow-list entry %s" % entry
