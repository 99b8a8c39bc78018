"""Module boundaries of `wellopt`, read from the sources with `ast`.

The run configuration lives in `config.py`, which imports none of the
modules that run it (`harness`, `ga`, `cli`), so the run loop can change
without touching how a config is parsed and checked. `harness.py` only
re-exports `RunConfig` and reads no private attribute of it.

Every public function, class, method and property is run by the library
itself: a name that only tests or the package `__init__` re-exports
reach is a second API to keep in step, so the tests keep such forms as
their own references instead. Likewise every dataclass field is read by
the library: state that nothing reads is kept in step for nothing.

A value is checked once, where it enters the program: every
`ValueError` outside `config.py` names the outside input it checks or
the run outcome it reports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wellopt"
CONFIG_NAMES = {"MIN_STEP_M", "TILT_RANGE", "DEFAULT_LAYOUT", "OPTIMIZERS",
                "PROBLEM_KEYS", "_check_keys", "_number", "_items",
                "_section", "_well_kwargs", "_benchmark_bounds", "RunConfig"}
# Public names no library module references, each with why it stays.
UNREFERENCED_ALLOWED: dict[str, str] = {}


def parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines: functions, classes and assigned globals."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of every module an import statement may load, e.g.
    `harness` for `from .harness import x` and for `from . import harness`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules.add(module)
            modules.update(f"{module}.{alias.name}".strip(".")
                           for alias in node.names)
    return modules


def test_config_imports_no_module_that_runs_it():
    parts = {part for module in imported_modules(parse("config.py"))
             for part in module.split(".")}
    assert not parts & {"harness", "ga", "cli"}


def test_config_names_are_defined_in_config_only():
    assert CONFIG_NAMES <= top_level_names(parse("config.py"))
    for path in SRC.rglob("*.py"):
        name = path.relative_to(SRC).as_posix()
        if name != "config.py":
            assert not CONFIG_NAMES & top_level_names(parse(name)), name


def test_harness_reads_no_private_config_attribute():
    private = [node.attr for node in ast.walk(parse("harness.py"))
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id == "config" and node.attr.startswith("_")]
    assert private == []


def public_definitions(tree: ast.Module) -> set[str]:
    """Public top-level functions and classes, and the public methods and
    properties of those classes as `Class.method`."""
    names = set()
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_"))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_run_by_the_library():
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    modules = {name: parse(name) for name in names}
    referenced = set().union(*(referenced_names(tree)
                               for name, tree in modules.items()
                               if not name.endswith("__init__.py")))
    unreferenced = {f"{name}:{definition}"
                    for name, tree in modules.items()
                    for definition in public_definitions(tree)
                    if definition.split(".")[-1] not in referenced}
    unexpected = sorted(unreferenced - set(UNREFERENCED_ALLOWED))
    assert not unexpected, f"run by no library module: {unexpected}"
    stale = sorted(set(UNREFERENCED_ALLOWED) - unreferenced)
    assert not stale, f"allowed but referenced or gone: {stale}"


# Dataclass fields no library module reads, each with its reader.
UNREAD_FIELDS_ALLOWED: dict[str, str] = {
    "harness.py:RunRecord.final_mean":
        "acceptance criterion 2 measures the final mean's distance from "
        "the constrained sphere's boundary optimum",
    "metamodel.py:LocalQuadraticModel.center":
        "the tests' full-basis `predict` (tests/reference_forms.py)",
    "metamodel.py:LocalQuadraticModel.scale":
        "the tests' full-basis `predict` (tests/reference_forms.py)",
    "metamodel.py:LocalQuadraticModel.bandwidth":
        "tests/test_metamodel.py checks the kernel bandwidth of a fit",
    "wells/geometry.py:Branch.start_arclength":
        "the tests' genome encoder (tests/test_wells.py)",
}


def dataclass_fields(tree: ast.Module):
    """`Class.field` of every field of every `@dataclass`; an `InitVar`
    or `ClassVar` annotation is no field."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and "dataclass" in decorator_names(node)):
            continue
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                continue
            annotation = item.annotation
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            if not (isinstance(annotation, ast.Name)
                    and annotation.id in {"InitVar", "ClassVar"}):
                yield f"{node.name}.{item.target.id}"


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names a module reads: `x.name` loaded, `getattr(x,
    "name")`, and `getattr(x, name)` in a `for name in (...)` loop over
    string constants."""
    looped: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            looped.setdefault(node.target.id, set()).update(
                e.value for e in node.iter.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1):
            name = node.args[1]
            if isinstance(name, ast.Constant):
                names.add(name.value)
            elif isinstance(name, ast.Name):
                names.update(looped.get(name.id, ()))
    return names


def test_every_dataclass_field_is_read_by_the_library():
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    modules = {name: parse(name) for name in names}
    read = set().union(*(read_attributes(tree)
                         for name, tree in modules.items()
                         if not name.endswith("__init__.py")))
    unread = {f"{name}:{field}" for name, tree in modules.items()
              for field in dataclass_fields(tree)
              if field.split(".")[-1] not in read}
    unexpected = sorted(unread - set(UNREAD_FIELDS_ALLOWED))
    assert not unexpected, f"fields no library module reads: {unexpected}"
    stale = sorted(set(UNREAD_FIELDS_ALLOWED) - unread)
    assert not stale, f"allowed but read or gone: {stale}"


# Parameter defaults that every library call site passes, or none does,
# each with why it stays.
DEFAULTS_ALLOWED: dict[str, str] = {
    "cli.py:main(argv)": "console entry point: None reads sys.argv",
    "harness.py:run_single(out_dir)": "a run without output files; the "
                                      "acceptance gates run this way",
    "harness.py:run_batch(out_dir)": "a run without output files; the "
                                     "acceptance gates run this way",
    "harness.py:compare_optimizers(out_dir)": "a run without output files; "
                                              "the acceptance gates run "
                                              "this way",
}


def defaulted_definitions(tree: ast.Module):
    """(callee name, parameters a call binds by position, defaulted
    parameter names) of every def with a default; an `__init__` is called
    by its class name, and a method's first parameter is bound by the
    instance."""
    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs,
                                                    args.kw_defaults)
                              if d is not None]
                static = "staticmethod" in decorator_names(node)
                if cls is not None and not static:
                    positional = positional[1:]
                name = (cls.name if cls is not None
                        and node.name == "__init__" else node.name)
                if defaulted:
                    yield name, positional, defaulted
                yield from visit(node.body, None)
    return visit(tree.body, None)


def decorator_names(node) -> set[str]:
    """Names of a def's or class's decorators: `dataclass` for both
    `@dataclass` and `@dataclass(frozen=True)`."""
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
    return names


def defaulted_fields(tree: ast.Module):
    """(class name, init fields in order, defaulted init fields) of every
    `@dataclass`; `field(default=...)` and `default_factory` are defaults,
    and a `field(init=False)` is no parameter."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and "dataclass" in decorator_names(node)):
            continue
        fields, defaulted = [], []
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                continue
            value, has_default = item.value, item.value is not None
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "field"):
                options = {k.arg: k.value for k in value.keywords}
                init = options.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                has_default = bool({"default", "default_factory"}
                                   & set(options))
            fields.append(item.target.id)
            if has_default:
                defaulted.append(item.target.id)
        if defaulted:
            yield node.name, fields, defaulted


def call_sites(tree: ast.Module) -> dict[str, list[ast.Call]]:
    """Calls by callee name; a `cls(...)` in a classmethod calls its
    class."""
    sites: dict[str, list[ast.Call]] = {}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef) and cls is not None:
            if "classmethod" not in decorator_names(node):
                cls = None
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else func.attr
                    if isinstance(func, ast.Attribute) else None)
            if name == "cls" and cls is not None:
                name = cls
            if name is not None:
                sites.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return sites


def test_no_default_the_library_never_varies():
    """A default is an option: it stands only where some library call
    passes the parameter and some call leaves it out. Dataclass fields
    are the parameters of their class."""
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    modules = {name: parse(name) for name in names}
    sites: dict[str, list[ast.Call]] = {}
    for name, tree in modules.items():
        if not name.endswith("__init__.py"):
            for callee, calls in call_sites(tree).items():
                sites.setdefault(callee, []).extend(calls)
    never_varied = set()
    for module, tree in modules.items():
        for callee, positional, defaulted in [
                *defaulted_definitions(tree), *defaulted_fields(tree)]:
            calls = sites.get(callee, [])
            if not calls or any(
                    isinstance(arg, ast.Starred) for call in calls
                    for arg in call.args) or any(
                    keyword.arg is None for call in calls
                    for keyword in call.keywords):
                continue
            for parameter in defaulted:
                passed = [
                    parameter in {k.arg for k in call.keywords}
                    or (parameter in positional
                        and positional.index(parameter) < len(call.args))
                    for call in calls]
                if all(passed) or not any(passed):
                    never_varied.add(f"{module}:{callee}({parameter})")
    unexpected = sorted(never_varied - set(DEFAULTS_ALLOWED))
    assert not unexpected, f"defaults no library call varies: {unexpected}"
    stale = sorted(set(DEFAULTS_ALLOWED) - never_varied)
    assert not stale, f"allowed but varied or gone: {stale}"


def optional_annotation(annotation) -> bool:
    """Whether an annotation reads `X | None` (or `None | X`)."""
    return (isinstance(annotation, ast.BinOp)
            and isinstance(annotation.op, ast.BitOr)
            and any(isinstance(side, ast.Constant) and side.value is None
                    for side in (annotation.left, annotation.right)))


def or_filled_parameters(tree: ast.Module):
    """`callee(parameter)` of every parameter annotated `... | None` that
    its def's body fills with `parameter or ...`; an `__init__` is named
    by its class."""
    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                optional = {a.arg for a in [*args.posonlyargs, *args.args,
                                            *args.kwonlyargs]
                            if optional_annotation(a.annotation)}
                filled = {sub.values[0].id for sub in ast.walk(node)
                          if isinstance(sub, ast.BoolOp)
                          and isinstance(sub.op, ast.Or)
                          and isinstance(sub.values[0], ast.Name)}
                name = (cls.name if cls is not None
                        and node.name == "__init__" else node.name)
                yield from (f"{name}({parameter})"
                            for parameter in sorted(optional & filled))
                yield from visit(node.body, None)
    return visit(tree.body, None)


def test_no_optional_parameter_filled_with_or():
    """A `| None` parameter that its body fills with `parameter or ...` is
    a default spelled twice: the callers pass the filled value instead."""
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    filled = sorted(f"{name}:{parameter}" for name in names
                    for parameter in or_filled_parameters(parse(name)))
    assert not filled, f"`| None` parameters filled with `or`: {filled}"


# Every `raise ValueError` outside config.py, by where it is raised: the
# outside input it checks, or the run outcome it reports. A value that a
# door (RunConfig, the grid loader, the CLI) already checked, or that the
# library built itself, is not checked again.
RAISES_ALLOWED: dict[str, str] = {
    "cma.py:SearchDistribution.__post_init__":
        "sigma0 from the config, and an updated sigma that is not shown "
        "to stay positive",
    "constraints.py:SumConstraint.__post_init__":
        "the config's `constraints` entries",
    "metamodel.py:SurrogateSettings.validate":
        "the config's `surrogate` section against the dimension",
    "harness.py:run_cma":
        "run outcome: stopped before the first generation",
    "harness.py:run_single": "a config without `optimizer` for one run",
    "harness.py:run_batch": "a config with too few seeds for a batch",
    "harness.py:compare_optimizers":
        "a config without the `optimizers` pair or with too few seeds "
        "to compare",
    "wells/grid.py:ReservoirGrid.__post_init__": "a grid file",
    "wells/grid.py:ReservoirGrid.from_json_dict": "a grid file",
    "wells/economics.py:EconomicParams.__post_init__":
        "the config's `economics` section",
    "wells/economics.py:ProductionProfile.__post_init__":
        "run outcome: a negative volume from the depletion recurrence, "
        "scored as a simulation failure",
    "wells/problem.py:WellLayout.__post_init__":
        "the config's `wells` entries",
    "wells/proxy.py:ProxyParams.__post_init__":
        "the config's `proxy` section",
}


def value_error_raises(tree: ast.Module):
    """`Class.method` or `function` (nested scopes joined by dots) of
    every `raise ValueError(...)` or `raise ValueError`."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield ".".join(scope) or "<module>"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, [])


def test_every_value_error_is_raised_where_input_enters():
    """A value is checked once, where it enters the program: config.py
    checks the config JSON, so a library `ValueError` stands only where
    RAISES_ALLOWED says what outside input or run outcome it reports."""
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    raised = {f"{name}:{where}" for name in names if name != "config.py"
              for where in value_error_raises(parse(name))}
    unexpected = sorted(raised - set(RAISES_ALLOWED))
    assert not unexpected, f"ValueErrors no outside input needs: {unexpected}"
    stale = sorted(set(RAISES_ALLOWED) - raised)
    assert not stale, f"allowed but raised nowhere: {stale}"


# `np.asarray` calls in the library, by where they are made, each with why
# the value is converted there. A value is converted once, where it enters
# the program: a genome is the float64 array that the sampler, the GA or
# the CLI made, and a decoded well is Python floats, so the library does
# not coerce what it built itself.
ASARRAY_ALLOWED: dict[str, str] = {
    "metamodel.py:TrainingArchive.as_arrays":
        "the archive's value list becomes the regression array",
}


def scoped_calls(tree: ast.Module, module: str, attribute: str):
    """`Class.method` or `function` (nested scopes joined by dots) of
    every call of `<module>.<attribute>(...)`."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == attribute
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == module):
            yield ".".join(scope) or "<module>"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, [])


def test_np_asarray_only_where_a_value_enters():
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    calls = [f"{name}:{where}" for name in names
             for where in scoped_calls(parse(name), "np", "asarray")]
    unexpected = sorted(set(calls) - set(ASARRAY_ALLOWED))
    assert not unexpected, f"np.asarray of built values: {unexpected}"
    stale = sorted(set(ASARRAY_ALLOWED) - set(calls))
    assert not stale, f"allowed but called nowhere: {stale}"


def unread_parameters(tree: ast.Module):
    """`Class.method(parameter)` or `function(parameter)` of every
    parameter its def's body never reads; a method's `self` or `cls`
    is not counted."""
    def visit(body, scope, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, [*scope, node.name], True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                parameters = [a.arg for a in [*args.posonlyargs, *args.args,
                                              *args.kwonlyargs]]
                parameters += [a.arg for a in (args.vararg, args.kwarg) if a]
                static = "staticmethod" in decorator_names(node)
                if cls and not static:
                    parameters = parameters[1:]
                read = {sub.id for statement in node.body
                        for sub in ast.walk(statement)
                        if isinstance(sub, ast.Name)}
                name = ".".join([*scope, node.name])
                yield from (f"{name}({parameter})" for parameter in parameters
                            if parameter not in read)
                yield from visit(node.body, [*scope, node.name], False)
    return visit(tree.body, [], False)


def test_every_parameter_is_read():
    """A parameter that its function never reads is an input no caller
    can vary: every call site passes it for nothing."""
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    unread = sorted(f"{name}:{parameter}" for name in names
                    for parameter in unread_parameters(parse(name)))
    assert not unread, f"parameters never read: {unread}"


def scipy_imports(tree: ast.Module):
    """`Class.method` or `function` (nested scopes joined by dots), or
    `<module>`, of every import statement that loads scipy."""
    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = [*scope, node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([alias.name for alias in node.names]
                       if isinstance(node, ast.Import)
                       else [node.module or ""] if node.level == 0 else [])
            if any(m.partition(".")[0] == "scipy" for m in modules):
                yield ".".join(scope) or "<module>"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return visit(tree, [])


def test_scipy_is_imported_only_where_a_fit_needs_it():
    """scipy loads on the first local fit, not with the package
    (`test_startup.py`), so its one import stands in the fit's LAPACK
    loader."""
    names = [path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")]
    importers = sorted(f"{name}:{where}" for name in names
                       for where in scipy_imports(parse(name)))
    assert importers == ["metamodel.py:_lapack"]
