"""Every public top-level name of the package has a caller outside tests."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pnphom")

# public names whose only callers are tests, each kept for a reason
ALLOWED = {
    # the sample-stage species corrector whose vanishing acceptance
    # criterion 06 checks
    "omega_stage_species",
    # counts the trend inversions that the acceptance trend checks assert on
    "count_error_inversions",
}


def _sources():
    return (sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
            + sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))))


def _top_level_uses():
    """(defined name, names used) for each top-level statement.

    A name counts as used when it appears as a name or an attribute; an
    import alone is not a use.  The defined name is the def/class of a
    package statement (None otherwise), and its own recursive uses do not
    count.
    """
    uses = []
    for path in _sources():
        in_package = os.path.dirname(path) == PACKAGE
        for stmt in ast.parse(open(path).read(), path).body:
            owner = None
            if in_package and isinstance(stmt, (ast.FunctionDef,
                                                ast.ClassDef)):
                owner = stmt.name
            used = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            used.discard(owner)
            uses.append((owner, used))
    return uses


def test_public_names_have_callers():
    definitions = {}
    for path in _sources():
        if os.path.dirname(path) != PACKAGE:
            continue
        for stmt in ast.parse(open(path).read(), path).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions[stmt.name] = os.path.basename(path)[:-3]
    assert definitions, "no package sources found under %s" % PACKAGE
    assert ALLOWED <= set(definitions), "stale allow-list entry"
    # a name used only inside orphans is an orphan too: iterate to fixpoint
    uses = _top_level_uses()
    orphans = set()
    while True:
        used = set()
        for owner, names in uses:
            if owner not in orphans:
                used |= names
        found = {name for name in definitions
                 if name not in used and name not in ALLOWED}
        if found == orphans:
            break
        orphans = found
    assert not orphans, "public names with no caller outside tests: %s" % (
        ", ".join(sorted("%s.%s" % (definitions[n], n) for n in orphans)))
