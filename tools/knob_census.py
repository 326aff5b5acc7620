#!/usr/bin/env python3
"""Knob census: every settable value of ``src/`` and who sets it.

A knob is a public callable's keyword parameter with a default, a field
with a default on a config dataclass, or an ``os.environ`` read.  The
census parses every Python file of the repository with :mod:`ast` (it
imports nothing it scans), resolves each call to the callables it can
reach, and sorts each knob into one of three groups:

* ``set outside tests``: a call in ``src/``, ``tools/``, ``bench/``,
  ``benchmarks/`` or ``examples/`` sets it;
* ``set only by tests``: only calls under ``tests/`` set it;
* ``set by nobody``.

Resolution errs towards "set", so a knob some code sets is never reported
unset: names resolve through ``import ... as``, relative imports, the
packages' lazy export tables and module attributes; a method call on a
receiver of unknown type reaches every method of that name; a positional
argument sets the parameter at its index; ``*args`` sets every positional
parameter from its index on and ``**kwargs`` every parameter; a callable
passed as an argument (``functools.partial(f, ...)``, ``Job(f, ...)``,
``Job.call("mod:f", ...)``) receives the call's other arguments and the
keys of any dict it is given; ``dataclasses.replace`` sets the fields it
names on the dataclass it can infer.

Config dataclasses are the ones a caller builds to configure something:
names ending ``Config``/``Tuning``/``Timing``/``Params``, the ``Platform``
classes and the few named in ``CONFIG_CLASSES``.  Output records
(``*Report``, ``*Record``, ``*Result``, ...) hold state, not settings.

Usage: ``python tools/knob_census.py``.  It takes no flags and prints the
census of the repository it sits in.  ``tests/data/knob_census.txt`` lists
every knob of the last two groups with the reason it stays, and
``tests/test_knob_census.py`` fails when that file and the census disagree.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

CALLER_DIRS = ("src", "tools", "bench", "benchmarks", "examples")
TEST_DIR = "tests"
GROUPS = ("set outside tests", "set only by tests", "set by nobody")
CONFIG_SUFFIXES = ("Config", "Tuning", "Timing", "Params", "Platform")
CONFIG_CLASSES = {"Observability", "FaultPlan", "MemcellMapper", "ChipKitIntegration"}
ENV_SETTERS = {"setenv", "setdefault", "putenv"}


#: ``(name, has_default, positional, owner)``: ``owner`` is the key of the
#: callable or dataclass that declares the parameter, where its sets count.
Param = Tuple[str, bool, bool, str]


@dataclass
class Fn:
    """One callable the census can resolve a call to."""

    key: str  # knob-id prefix: ``mod.f``, ``mod.Cls`` (constructor), ``mod.Cls.m``
    params: List[Param]
    skip: int = 0  # leading parameters a call through an instance (or a constructor call) fills
    skip_class: int = 0  # ... and a call through the class (1 for a classmethod's ``cls``)
    knobs: bool = False  # its defaulted parameters are knobs
    field_style: bool = False  # knob ids read ``Cls.field``, not ``Cls(field=)``


@dataclass
class Cls:
    module: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # resolved ``mod.Name`` keys
    methods: Dict[str, Fn] = field(default_factory=dict)
    fields: List[Param] = field(default_factory=list)
    is_dataclass: bool = False


def _decorator_names(node) -> Set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _params(node: ast.FunctionDef, owner: str) -> List[Param]:
    args = node.args
    positional = args.posonlyargs + args.args
    n_plain = len(positional) - len(args.defaults)
    out = [(a.arg, i >= n_plain, True, owner) for i, a in enumerate(positional)]
    out += [(a.arg, d is not None, False, owner) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def _dataclass_field(stmt) -> Optional[Tuple[str, bool]]:
    """``(name, has_default)`` for a dataclass body statement, or ``None``."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", "")) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return None
        return stmt.target.id, "default" in kw or "default_factory" in kw
    return stmt.target.id, value is not None


def _is_config(name: str) -> bool:
    return name in CONFIG_CLASSES or name.endswith(CONFIG_SUFFIXES)


class Module:
    """What one file defines and binds, as far as the census needs."""

    def __init__(self, path: Path, name: str, tree: ast.Module, in_src: bool):
        self.path = path
        self.name = name
        self.in_src = in_src
        self.package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        self.defs: Dict[str, ast.AST] = {}
        self.consts: Dict[str, str] = {}
        self.lazy: Dict[str, str] = {}
        # alias -> list of ("mod", module) or ("sym", module, name)
        self.binds: Dict[str, List[Tuple[str, ...]]] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                target, value = stmt.targets[0].id, stmt.value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    self.consts[target] = value.value
                elif target == "_LAZY" and isinstance(value, ast.Dict):
                    self.lazy = {k.value: v.value for k, v in zip(value.keys, value.values)}
        self.calls: List[Tuple[Optional[str], ast.Call]] = []  # (enclosing class, call)
        self.subscripts: List[ast.Subscript] = []
        self.dicts: List[ast.Dict] = []
        self.assigned: Dict[str, ast.Call] = {}  # name -> the first call bound to it
        stack: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]
        while stack:
            node, cls = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = cls
                kind = type(child)
                if kind is ast.Call:
                    self.calls.append((cls, child))
                elif kind is ast.Subscript:
                    self.subscripts.append(child)
                elif kind is ast.Dict:
                    self.dicts.append(child)
                elif kind is ast.Assign and type(child.value) is ast.Call:
                    for t in child.targets:
                        if type(t) is ast.Name:
                            self.assigned.setdefault(t.id, child.value)
                elif kind is ast.ClassDef and node is tree:
                    inner = child.name
                elif kind is ast.Import:
                    for a in child.names:
                        if a.asname:
                            self._bind(a.asname, ("mod", a.name))
                        else:
                            head = a.name.split(".")[0]
                            self._bind(head, ("mod", head))
                elif kind is ast.ImportFrom:
                    base = self._absolute(child.module, child.level)
                    for a in child.names:
                        self._bind(a.asname or a.name, ("sym", base, a.name))
                stack.append((child, inner))

    def _bind(self, alias: str, target: Tuple[str, ...]) -> None:
        self.binds.setdefault(alias, []).append(target)

    def _absolute(self, module: Optional[str], level: int) -> str:
        if not level:
            return module or ""
        parts = self.package.split(".")
        base = ".".join(parts[: len(parts) - level + 1])
        return f"{base}.{module}" if module else base


@dataclass
class Census:
    """``groups[g]`` maps each knob id of group ``g`` to the files that set it."""

    groups: Dict[str, Dict[str, List[str]]]

    def unset(self) -> Dict[str, str]:
        """Knob id -> group for every knob no non-test code sets."""
        return {k: g for g in GROUPS[1:] for k in self.groups[g]}

    def render(self) -> str:
        counts = ", ".join(f"{len(self.groups[g])} {g}" for g in GROUPS)
        total = sum(len(v) for v in self.groups.values())
        lines = [f"knob census: {total} knobs; {counts}"]
        for g in GROUPS:
            lines += ["", f"[{g}] {len(self.groups[g])}"]
            for knob, setters in sorted(self.groups[g].items()):
                lines.append(f"{knob}  {' '.join(setters)}".rstrip())
        return "\n".join(lines) + "\n"


class _Scanner:
    def __init__(self, root: Path):
        self.modules: Dict[str, Module] = {}
        self.callers: List[Module] = []
        for top in CALLER_DIRS + (TEST_DIR,):
            base = root / top
            for path in sorted(base.rglob("*.py")) if base.is_dir() else ():
                rel = path.relative_to(root)
                if rel.parts[:2] == (TEST_DIR, "data"):
                    continue
                in_src = top == "src"
                name = ".".join((rel.relative_to("src") if in_src else rel).with_suffix("").parts)
                name = name[: -len(".__init__")] if name.endswith(".__init__") else name
                mod = Module(rel, name, ast.parse(path.read_text(), str(rel)), in_src)
                self.callers.append(mod)
                if in_src:
                    self.modules[name] = mod
        self.classes: Dict[str, Cls] = {}
        self.fns: Dict[str, Fn] = {}  # module-level functions
        self.ctors: Dict[str, Optional[Fn]] = {}  # class key -> its constructor
        self.methods_by_name: Dict[str, List[Fn]] = {}
        self.env: Dict[str, str] = {}  # variable -> knob id
        self.sets: Dict[Tuple[str, str], Set[str]] = {}  # (fn key, param) -> files
        self._index()

    # -- definitions -----------------------------------------------------

    def _index(self) -> None:
        for mod in self.modules.values():
            public_mod = not any(p.startswith("_") for p in mod.name.split("."))
            for name, node in mod.defs.items():
                key = f"{mod.name}.{name}"
                public = public_mod and not name.startswith("_")
                if isinstance(node, ast.ClassDef):
                    self.classes[key] = self._class(mod, node, public)
                else:
                    self.fns[key] = Fn(key, _params(node, key), knobs=public)
        for cls in self.classes.values():
            cls.bases = [k for base in cls.node.bases
                         for _kind, k in self._resolve(self.modules[cls.module], base) if k in self.classes]
        for mod in self.modules.values():
            for _cls, call in mod.calls:
                if self._attr(call.func) in {("os", "environ", "get"), ("os", "getenv")}:
                    self._env_read(mod, call.args[0] if call.args else None)
            for node in mod.subscripts:
                if isinstance(node.ctx, ast.Load) and self._attr(node.value) == ("os", "environ"):
                    self._env_read(mod, node.slice)

    def _class(self, mod: Module, node: ast.ClassDef, public: bool) -> Cls:
        key = f"{mod.name}.{node.name}"
        cls = Cls(mod.name, node, is_dataclass="dataclass" in _decorator_names(node))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decs = _decorator_names(stmt)
                if "property" in decs or "setter" in decs:
                    continue
                is_init = stmt.name == "__init__"
                fn_key = key if is_init else f"{key}.{stmt.name}"
                fn = Fn(
                    fn_key,
                    _params(stmt, fn_key),
                    skip=0 if "staticmethod" in decs else 1,
                    skip_class=1 if "classmethod" in decs else 0,
                    knobs=public and (is_init or stmt.name == "__call__" or not stmt.name.startswith("_")),
                )
                cls.methods[stmt.name] = fn
                self.methods_by_name.setdefault(stmt.name, []).append(fn)
            elif cls.is_dataclass:
                f = _dataclass_field(stmt)
                if f:
                    cls.fields.append((*f, True, key))
        return cls

    def _env_read(self, mod: Module, arg) -> None:
        name = self._string(mod, arg)
        if name:
            self.env[name] = f"env {name} ({mod.name})"

    def _mro(self, key: str) -> Iterator[Cls]:
        seen: Set[str] = set()
        todo = [key]
        while todo:
            k = todo.pop(0)
            if k in seen or k not in self.classes:
                continue
            seen.add(k)
            yield self.classes[k]
            todo += self.classes[k].bases

    def constructor(self, key: str) -> Optional[Fn]:
        """What ``Cls(...)`` calls: the first ``__init__`` up the MRO, or the
        ``__init__`` a dataclass synthesises from the fields of its MRO."""
        if key not in self.ctors:
            ctor = None
            for cls in self._mro(key):
                if "__init__" in cls.methods:
                    ctor = cls.methods["__init__"]
                    break
                if cls.is_dataclass:
                    fields = {f[0]: f for c in reversed(list(self._mro(key))) for f in c.fields}
                    public = not any(p.startswith("_") for p in key.split("."))
                    ctor = Fn(key, list(fields.values()), field_style=True,
                              knobs=public and _is_config(key.rpartition(".")[2]))
                    break
            self.ctors[key] = ctor
        return self.ctors[key]

    def _targets(self, key: str) -> List[Tuple[Fn, int]]:
        """``[(callable, parameters the call skips)]`` for ``key(...)``,
        empty when ``key`` is no callable of ``src/``."""
        if key in self.classes:
            ctor = self.constructor(key)
            return [(ctor, ctor.skip)] if ctor else []
        return [(self.fns[key], 0)] if key in self.fns else []

    # -- name resolution -------------------------------------------------

    @staticmethod
    def _attr(node) -> Optional[Tuple[str, ...]]:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            return (node.id, *reversed(parts))
        return None

    def _symbol(self, module: str, name: str, depth: int = 0) -> List[Tuple[str, str]]:
        """Targets ``("mod"|"def", key)`` that ``module.name`` may denote."""
        if depth > 8:
            return []
        if f"{module}.{name}" in self.modules:
            return [("mod", f"{module}.{name}")]
        mod = self.modules.get(module)
        if mod is None:
            return []
        if name in mod.defs:
            return [("def", f"{module}.{name}")]
        if name in mod.lazy:
            return self._symbol(mod.lazy[name], name, depth + 1)
        return [t for b in mod.binds.get(name, ()) for t in self._bound(b, depth + 1)]

    def _bound(self, bind: Tuple[str, ...], depth: int = 0) -> List[Tuple[str, str]]:
        if bind[0] == "mod":
            return [("mod", bind[1])]
        return self._symbol(bind[1], bind[2], depth)

    def _resolve(self, mod: Module, node) -> List[Tuple[str, str]]:
        """What a Name/Attribute chain may denote: modules and definitions."""
        chain = self._attr(node)
        if chain is None:
            return []
        head, rest = chain[0], chain[1:]
        if mod.in_src and head in mod.defs:
            current = [("def", f"{mod.name}.{head}")]
        else:
            current = [t for b in mod.binds.get(head, ()) for t in self._bound(b)]
        for part in rest:
            nxt = []
            for kind, key in current:
                if kind == "mod":
                    nxt += self._symbol(key, part)
                elif key in self.classes:
                    owners = [c for c in self._mro(key) if part in c.methods][:1]
                    nxt += [("meth", f"{c.module}.{c.node.name}.{part}") for c in owners]
            current = nxt
        return current

    def _callees(self, mod: Module, func, enclosing: Optional[str]) -> List[Tuple[Fn, int]]:
        """``(callable, parameters the call skips)`` for each callable a
        call of ``func`` may reach."""
        out: List[Tuple[Fn, int]] = []
        for kind, key in self._resolve(mod, func):
            if kind == "def":
                out += self._targets(key)
            elif kind == "meth":
                cls_key, _, name = key.rpartition(".")
                fn = next(c.methods[name] for c in self._mro(cls_key) if name in c.methods)
                out.append((fn, fn.skip_class))
        if out:
            return out
        if isinstance(func, ast.Name) and func.id == "cls" and enclosing:
            return self._targets(enclosing)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if func.attr == "__init__" and self._attr(getattr(receiver, "func", None)) == ("super",):
                bases = self.classes[enclosing].bases if enclosing else []
                return [t for b in bases for t in self._targets(b)][:1]
            if isinstance(receiver, ast.Name) and receiver.id in mod.binds and not self._resolve(mod, receiver):
                return []  # a module or name outside src/: nothing here to reach
            return [(fn, fn.skip) for fn in self.methods_by_name.get(func.attr, ())]
        return []

    def _string(self, mod: Module, node) -> Optional[str]:
        """The string a constant, or a module-level string constant, holds."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in mod.consts:
                return mod.consts[node.id]
            owners = [(b[1], b[2]) for b in mod.binds.get(node.id, ()) if b[0] == "sym"]
        elif isinstance(node, ast.Attribute):
            owners = [(key, node.attr) for kind, key in self._resolve(mod, node.value) if kind == "mod"]
        else:
            return None
        for owner, name in owners:
            if name in getattr(self.modules.get(owner), "consts", {}):
                return self.modules[owner].consts[name]
        return None

    # -- call sites ------------------------------------------------------

    def _set(self, param: Param, where: str) -> None:
        self.sets.setdefault((param[3], param[0]), set()).add(where)

    def _apply(self, fn: Fn, skip: int, args, keywords, dict_keys, where: str) -> None:
        params = fn.params[skip:]
        positional = [p for p in params if p[2]]
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                for p in positional[i:]:
                    self._set(p, where)
                break
            if i < len(positional):
                self._set(positional[i], where)
        by_name = {p[0]: p for p in params}
        for kw in keywords:
            if kw.arg is None:
                for p in params:
                    self._set(p, where)
            elif kw.arg in by_name:
                self._set(by_name[kw.arg], where)
        for key in dict_keys:
            if key in by_name:
                self._set(by_name[key], where)

    def _callable_ref(self, mod: Module, node) -> List[Tuple[Fn, int]]:
        text = self._string(mod, node)
        if text and ":" in text:
            targets = self._symbol(*text.split(":", 1))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            targets = self._resolve(mod, node)
        else:
            return []
        return [t for kind, key in targets if kind == "def" for t in self._targets(key)]

    def _scan(self, mod: Module) -> None:
        where = mod.path.as_posix()
        for cls, call in mod.calls:
            enclosing = f"{mod.name}.{cls}" if cls and mod.in_src else None
            keywords = call.keywords
            for fn, skip in self._callees(mod, call.func, enclosing):
                self._apply(fn, skip, call.args, keywords, (), where)
            if self._attr(call.func) in {("replace",), ("dataclasses", "replace")} and call.args:
                self._replace(mod, call, where)
            # A callable passed as an argument receives the call's other
            # arguments and the keys of every dict it is handed.
            values = list(call.args) + [k.value for k in keywords]
            dict_keys = [key for v in values for key in self._dict_keys(mod, v)]
            for i, arg in enumerate(call.args):
                for fn, skip in self._callable_ref(mod, arg):
                    self._apply(fn, skip, call.args[i + 1:], keywords, dict_keys, where)
            for kw in keywords:
                for fn, skip in self._callable_ref(mod, kw.value):
                    self._apply(fn, skip, (), [k for k in keywords if k is not kw], dict_keys, where)
        self._env_sets(mod, where)

    def _dict_keys(self, mod: Module, node) -> List[str]:
        if isinstance(node, ast.Dict):
            return [s for k in node.keys for s in [self._string(mod, k)] if s]
        if isinstance(node, ast.Call) and self._attr(node.func) == ("dict",):
            return [k.arg for k in node.keywords if k.arg]
        return []

    def _replace(self, mod: Module, call: ast.Call, where: str) -> None:
        """``dataclasses.replace(obj, f=...)`` sets ``f`` on ``obj``'s class:
        the class that built ``obj`` where the census can see it, else every
        dataclass that has all the fields the call names."""
        target = call.args[0]
        if isinstance(target, ast.Name):
            target = mod.assigned.get(target.id, target)
        classes: List[str] = []
        if isinstance(target, ast.Call):
            func = target.func
            if isinstance(func, ast.Name) and func.id in mod.defs and not mod.in_src:
                return  # a dataclass of the calling file, not of src/
            for _kind, key in self._resolve(mod, func):
                owner, _, name = key.rpartition(".")
                node = self.modules[owner].defs.get(name) if owner in self.modules else None
                if key in self.classes:
                    classes.append(key)
                elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                    returns = self._resolve(self.modules[owner], node.returns)
                    classes += [k for _kind, k in returns if k in self.classes]
        named = {k.arg for k in call.keywords if k.arg}
        spread = any(k.arg is None for k in call.keywords)
        for key in classes or list(self.classes):
            fn = self.constructor(key)
            fields = {p[0]: p for p in fn.params} if fn and fn.field_style else {}
            if fields and (classes or named <= fields.keys()):
                for name in fields if spread else named & fields.keys():
                    self._set(fields[name], where)

    def _env_sets(self, mod: Module, where: str) -> None:
        names: List[Optional[str]] = []
        for node in mod.subscripts:
            if isinstance(node.ctx, ast.Store):
                names.append(self._string(mod, node.slice))
        for _cls, call in mod.calls:
            if isinstance(call.func, ast.Attribute) and call.func.attr in ENV_SETTERS and call.args:
                names.append(self._string(mod, call.args[0]))
            if self._attr(call.func) == ("dict",):
                names += [k.arg for k in call.keywords]
        for node in mod.dicts:
            names += [self._string(mod, k) for k in node.keys if k is not None]
        for name in names:
            if name in self.env:
                self.sets.setdefault(("env", name), set()).add(where)

    # -- the census ------------------------------------------------------

    def knobs(self) -> Iterator[Tuple[str, Tuple[str, str]]]:
        """``(knob id, (owner, name))`` for every knob of ``src/``."""
        fns = list(self.fns.values())
        fns += [f for c in self.classes.values() for f in c.methods.values()]
        fns += [f for key in self.classes for f in [self.constructor(key)] if f and f.field_style]
        for fn in fns:
            if not fn.knobs:
                continue
            for name, default, _pos, owner in fn.params[fn.skip:]:
                if default and owner == fn.key:
                    yield (f"{owner}.{name}" if fn.field_style else f"{owner}({name}=)"), (owner, name)
        for name, knob in self.env.items():
            yield knob, ("env", name)

    def census(self) -> Census:
        for mod in self.callers:
            self._scan(mod)
        groups: Dict[str, Dict[str, List[str]]] = {g: {} for g in GROUPS}
        for knob, site in self.knobs():
            setters = sorted(self.sets.get(site, ()))
            outside = any(s.split("/")[0] in CALLER_DIRS for s in setters)
            group = GROUPS[0] if outside else GROUPS[1] if setters else GROUPS[2]
            groups[group][knob] = setters
        return Census(groups)


def census(root: Path) -> Census:
    """The census of the repository at ``root``."""
    return _Scanner(root).census()


def read_ratchet(text: str) -> Dict[str, Tuple[str, str]]:
    """``knob -> (group, reason)`` from a ratchet file: ``[group]`` headers,
    then one ``<knob> -- <reason>`` line per knob; ``#`` starts a comment."""
    listed: Dict[str, Tuple[str, str]] = {}
    group = ""
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            group = line[1:-1]
            continue
        knob, _, reason = line.partition(" -- ")
        listed[knob.strip()] = (group, reason.strip())
    return listed


def ratchet_problems(result: Census, text: str) -> List[str]:
    """Every way the ratchet file ``text`` and the census disagree."""
    listed = read_ratchet(text)
    unset = result.unset()
    problems = []
    for knob, group in sorted(unset.items()):
        if knob not in listed:
            problems.append(f"{knob} is {group} and not in the ratchet file: "
                            "give it a caller outside tests/, or list it with a reason")
        elif listed[knob][0] != group:
            problems.append(f"{knob} is listed under [{listed[knob][0]}] but is {group}")
    for knob, (_group, reason) in sorted(listed.items()):
        if knob not in unset:
            problems.append(f"{knob} is listed but is gone or set outside tests/: drop its line")
        elif not reason:
            problems.append(f"{knob} is listed without a reason")
    return problems


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("knob_census.py takes no arguments")
    sys.stdout.write(census(Path(__file__).resolve().parent.parent).render())
