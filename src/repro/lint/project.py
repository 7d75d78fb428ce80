"""Parsed-source index shared by the lint rules.

:class:`Project` wraps one repository checkout (the directory that holds
``src/repro``, ``docs/`` and ``tests/``) and hands the rules lazily parsed
ASTs and raw source lines.  Everything is path-based -- rules never import
the code under analysis unless they opt into it explicitly (only the
cache-key purity rule does, and only when the linted tree *is* the live
``repro`` package) -- so the same rules run unchanged over the tiny fixture
trees in ``tests/lint_fixtures/``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List

#: Package sources live here, relative to the project root.
PACKAGE_REL = Path("src") / "repro"


class Project:
    """One checkout under lint: lazily read and parsed files."""

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self.package_root = self.root / PACKAGE_REL
        self._sources: Dict[Path, str] = {}
        self._lines: Dict[Path, List[str]] = {}
        self._trees: Dict[Path, ast.Module] = {}

    # ------------------------------------------------------------------
    def rel(self, path: Path) -> str:
        """Root-relative POSIX path (stable across machines, used in
        findings and baseline keys)."""
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return Path(path).as_posix()

    def exists(self, relpath: str) -> bool:
        return (self.root / relpath).is_file()

    def python_files(self) -> List[Path]:
        """Every package source file, in sorted (deterministic) order."""
        if not self.package_root.is_dir():
            return []
        return sorted(p for p in self.package_root.rglob("*.py")
                      if "__pycache__" not in p.parts)

    # ------------------------------------------------------------------
    def source(self, path: Path) -> str:
        path = Path(path)
        if path not in self._sources:
            self._sources[path] = path.read_text(encoding="utf-8")
        return self._sources[path]

    def lines(self, path: Path) -> List[str]:
        path = Path(path)
        if path not in self._lines:
            self._lines[path] = self.source(path).splitlines()
        return self._lines[path]

    def tree(self, path: Path) -> ast.Module:
        path = Path(path)
        if path not in self._trees:
            self._trees[path] = ast.parse(self.source(path),
                                          filename=str(path))
        return self._trees[path]
