"""Worker-module import hygiene: modules under rapidocr_ray/functions/
(pure worker-executed code: codecs, jpeg, pdf, webp, avi, imgproc, ...)
ship to Ray workers BY VALUE (util.ensure_worker_importable), where a
live ``import rapidocr_ray...`` inside a function body fails whenever
the driver's CWD is not the repo (ModuleNotFoundError mid-pipeline —
found live via the driver simulator on the PDF filter chains).  Package
imports in these modules must be module-level, where by-value pickling
resolves them at registration time."""

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
