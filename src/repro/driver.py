"""Front-end driver: source text → MIR program.

``compile_source`` / ``compile_file`` are the front-end entry points.
Analysis goes through the facade in :mod:`repro.api`::

    from repro import api
    report = api.analyze("fn main() { ... }")

or, for an already compiled program, ``AnalysisSession.analyze_compiled``.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro import obs
from repro.lang.lexer import Lexer
from repro.lang.parser import Parser
from repro.lang.source import SourceFile
from repro.mir.build import ProgramBuilder
from repro.hir.table import build_item_table
from repro.mir.nodes import Program


@dataclass
class CompiledProgram:
    """A fully lowered compilation unit plus its front-end artefacts."""

    source: SourceFile
    crate: object
    program: Program

    @property
    def functions(self):
        return self.program.functions

    @property
    def item_table(self):
        return self.program.item_table


def compile_source(text: str, name: str = "<input>",
                   emit_bounds_checks: bool = True) -> CompiledProgram:
    """Parse, resolve and lower MiniRust source to MIR.

    ``emit_bounds_checks=False`` compiles safe indexing without the
    bounds-check sequence (the §4.1 perf-comparison build).
    """
    source = SourceFile(name, text)
    with obs.span("compile", file=name):
        with obs.span("lex"):
            tokens = Lexer(source).tokenize()
        obs.count("compile.tokens", len(tokens))
        with obs.span("parse"):
            crate = Parser(source, tokens=tokens).parse_crate(name=name)
        # The parser was the tokens' last reader (the AST keeps only
        # spans): free them before the table and MIR are built.
        del tokens
        with obs.span("hir-table"):
            table = build_item_table(crate)
        with obs.span("mir-lower"):
            program = ProgramBuilder(
                table, source, emit_bounds_checks=emit_bounds_checks).build()
        obs.count("compile.functions", len(program.functions))
    return CompiledProgram(source=source, crate=crate, program=program)


def compile_file(path: str) -> CompiledProgram:
    with open(path, "r", encoding="utf-8") as f:
        return compile_source(f.read(), name=path)
