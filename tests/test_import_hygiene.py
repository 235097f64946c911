"""Worker-module import hygiene: modules under rapidocr_ray/functions/
(pure worker-executed code: codecs, jpeg, pdf, webp, avi, imgproc, ...)
ship to Ray workers by reference when the session's workers import the
same package, and BY VALUE otherwise (util.ensure_worker_importable's
fallback, and every session's first execution).  Shipped by value, a
live ``import rapidocr_ray...`` inside a function body still fails
whenever the driver's CWD is not the repo (ModuleNotFoundError
mid-pipeline — found live via the driver simulator on the PDF filter
chains).  Package imports in these modules must be module-level, where
by-value pickling resolves them at registration time."""

import pathlib
import re

PKG = pathlib.Path(__file__).resolve().parent.parent / "rapidocr_ray"


def test_no_function_level_package_imports_in_worker_modules():
    bad = []
    for p in sorted((PKG / "functions").glob("*.py")) + [
        PKG / "glyphs.py",
        PKG / "sources" / "writers.py",
        PKG / "stages" / "tiered.py",
    ]:
        for i, line in enumerate(p.read_text().splitlines(), 1):
            if re.match(r"\s+(from|import)\s+rapidocr_ray", line):
                bad.append(f"{p.relative_to(PKG.parent)}:{i}: {line.strip()}")
    assert not bad, (
        "function-level package imports in worker-shipped modules "
        "(hoist to module level):\n" + "\n".join(bad)
    )


def test_no_sign_sentinel_row_kinds_in_queries():
    """Tagged unions in the query registry mark row kinds with an
    explicit kind column: a ``doc_id < 0`` / ``>= 0`` or ``event_id < 0``
    / ``>= 0`` comparison would drop real rows with negative ids."""
    path = PKG / "pipelines" / "queries.py"
    bad = [
        f"{path.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(doc_id|event_id)\s*(<|>=)\s*0\b", line)
    ]
    assert not bad, "sign-sentinel row kinds:\n" + "\n".join(bad)


def test_no_module_caches_actor_pools_or_worker_ray_get():
    """Per-process state lives in ``util.process_cache`` and broadcasts
    are read through ``util.broadcast_get``: a module-level ``_*CACHE``
    dict is a fresh copy in every task of code shipped by value, an
    actor pool (``concurrency=``, ``fn_constructor_kwargs``) is a plan
    the engine no longer has, and a ``ray.get`` inside a function that
    ``map_batches`` / ``map_groups`` runs re-reads its broadcast on every
    batch."""
    import ast

    bad = []
    for p in sorted(PKG.rglob("*.py")):
        rel = p.relative_to(PKG.parent)
        src = p.read_text()
        for i, line in enumerate(src.splitlines(), 1):
            if "concurrency=" in line or "fn_constructor_kwargs" in line:
                bad.append(f"{rel}:{i}: actor pool: {line.strip()}")
        tree = ast.parse(src)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                node.value, (ast.Dict, ast.Call)
            ):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and re.fullmatch(r"_\w*CACHE", t.id):
                        bad.append(f"{rel}:{node.lineno}: module cache dict {t.id}")
        mapped = {
            c.args[0].id
            for c in ast.walk(tree)
            if isinstance(c, ast.Call)
            and isinstance(c.func, ast.Attribute)
            and c.func.attr in ("map_batches", "map_groups")
            and c.args
            and isinstance(c.args[0], ast.Name)
        } | {  # tiered.by_key(inputs, key, fn) runs fn in map_groups
            c.args[2].id
            for c in ast.walk(tree)
            if isinstance(c, ast.Call)
            and getattr(c.func, "id", getattr(c.func, "attr", None)) == "by_key"
            and len(c.args) > 2
            and isinstance(c.args[2], ast.Name)
        }
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in mapped):
                continue
            for n in ast.walk(fn):
                if (
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "get"
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id in ("ray", "_ray")
                ):
                    bad.append(f"{rel}:{n.lineno}: ray.get in {fn.name}")
    assert not bad, "\n".join(sorted(set(bad)))


def test_every_parquet_read_goes_through_the_planned_reader():
    """Parquet tables are read by ``sources/parquet.py``, whose read
    tasks are planned from the footers and fuse into the first map; a
    ``read_parquet(`` call brings back Ray's default block count and
    its unfused ``ReadParquet->SplitBlocks`` operator."""
    bad = [
        f"{p.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for p in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "read_parquet(" in line
    ]
    assert not bad, "read_parquet outside the planned reader:\n" + "\n".join(bad)


def test_bucketed_groupbys_go_through_by_key():
    """``tiered.by_key`` owns the shuffle-key hash and the bucket count:
    outside ``stages/tiered.py`` no ``.groupby(`` names a column ending
    in ``bucket``."""
    bad = [
        f"{p.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for p in sorted(PKG.rglob("*.py"))
        if p != PKG / "stages" / "tiered.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if re.search(r"""\.groupby\(\s*\[?\s*["'][^"']*bucket["']""", line)
    ]
    assert not bad, "bucket groupbys outside tiered.by_key:\n" + "\n".join(bad)


def test_by_key_bucketing_map_fuses(ray_session):
    """The bucket column is added in a map that fuses into the input's
    last map: ``user_distinct_types`` runs the same three operators as
    when its partial map computed the bucket itself (read+partial map,
    sort, group map)."""
    from rapidocr_ray.pipelines.queries import QUERIES

    ds = QUERIES["user_distinct_types"]("/root/testdata/sf0.001").materialize()
    operators = [
        line for line in ds.stats().splitlines() if line.startswith("Operator ")
    ]
    assert len(operators) == 3, operators
    assert "ReadParquet->MapBatches(partial)->MapBatches(keyed)" in operators[0]
    assert "Sort" in operators[1]


def test_no_private_ray_access_or_ray_patches():
    """The engine uses only Ray's public surface: no read of a Dataset's
    private plan attributes (``_write_ds``, ``_plan``, ``_logical_plan``),
    no import of a ``ray.*._internal`` module, and no assignment to an
    attribute of anything imported from ``ray`` (a monkeypatch)."""
    import ast

    private = {"_write_ds", "_plan", "_logical_plan"}
    bad = []
    for p in sorted(PKG.rglob("*.py")):
        rel = p.relative_to(PKG.parent)
        tree = ast.parse(p.read_text())
        ray_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "ray" or a.name.startswith("ray."):
                        ray_names.add(a.asname or "ray")
                        if "._internal" in a.name:
                            bad.append(f"{rel}:{node.lineno}: imports {a.name}")
            elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "ray" or node.module.startswith("ray.")
            ):
                ray_names.update(a.asname or a.name for a in node.names)
                if "._internal" in node.module or any(a.name == "_internal" for a in node.names):
                    bad.append(f"{rel}:{node.lineno}: imports from {node.module}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private:
                bad.append(f"{rel}:{node.lineno}: reads .{node.attr}")
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                patched = [t for t in targets if isinstance(t, ast.Attribute)]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                patched = node.args[:1]
            else:
                patched = []
            for t in patched:
                base = t
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in ray_names:
                    bad.append(f"{rel}:{node.lineno}: assigns to {ast.unparse(t)}")
    assert not bad, "private Ray access or Ray patches:\n" + "\n".join(sorted(set(bad)))


def test_only_util_decides_how_code_ships():
    """``util.ensure_worker_importable`` is the one place that registers
    modules for by-value pickling or unregisters them."""
    bad = [
        f"{p.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for p in sorted(PKG.rglob("*.py"))
        if p != PKG / "util.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "register_pickle_by_value" in line
    ]
    assert not bad, "by-value registration outside util.py:\n" + "\n".join(bad)
