"""One frozen, validated configuration object for the whole pipeline.

:class:`AnalysisConfig` carries every knob — the ablation switches, the
detector selection, the cache settings and the ``jobs`` fan-out.  It is
constructed (and validated) in exactly one place and handed down
unchanged through :class:`AnalysisContext` and :class:`SummaryEngine`,
so a bad value fails fast at the API boundary instead of deep inside a
solve.

``jobs`` is the only parallelism knob: batch entry points fan whole
files out across that many worker processes, and the summary solve
itself always runs serially in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob of the analysis pipeline, validated once.

    * ``interprocedural`` — the ablation switch: ``False`` collapses every
      function summary to the bottom element.
    * ``detectors`` — detector names to run (``None`` = every detector
      but the ``interior-unsafe-audit`` census, which runs only when
      named); validated against the registry by the API layer.
    * ``jobs`` — worker processes for batch entry points
      (``AnalysisSession.analyze_sources`` and everything built on it):
      whole files fan out, one file per task.  Analyzing one program
      never starts a pool, and the summary solve is always serial.
      Findings are byte-identical at any ``jobs``.
    * ``cache_dir`` — the directory of the content-addressed on-disk
      caches; caching is on exactly when it is set (``--no-cache`` sets
      it to ``None``).
    * ``report_cache`` — the whole-file report tier above the summary
      cache (batch entry points only): an unchanged source skips
      compile + detectors entirely.  Needs ``cache_dir``.
    * ``unwind_edges`` — materialise unwind successor edges and
      landing-pad cleanup blocks on may-panic terminators (bounds
      checks, ``unwrap``, ``RefCell`` borrows, explicit ``panic!``,
      arithmetic guards) so dataflow and the detectors see panic paths.
      ``False`` is the ``--no-unwind-edges`` ablation: the CFG keeps the
      pre-unwind straight-line-success shape and the panic-path
      detectors go quiet.
    """

    interprocedural: bool = True
    detectors: Optional[Tuple[str, ...]] = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    report_cache: bool = True
    unwind_edges: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool) \
                or self.jobs < 1:
            raise ValueError(
                f"jobs must be a positive integer, got {self.jobs!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(
                f"cache_dir must be a string path or None, "
                f"got {type(self.cache_dir).__name__}")
        if self.detectors is not None:
            if isinstance(self.detectors, str):
                raise ValueError(
                    "detectors must be a sequence of names, not a string")
            # Freeze whatever sequence the caller handed us.
            object.__setattr__(self, "detectors", tuple(self.detectors))
            for name in self.detectors:
                if not isinstance(name, str) or not name:
                    raise ValueError(
                        f"detector names must be non-empty strings, "
                        f"got {name!r}")

    def with_(self, **changes) -> "AnalysisConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


def coerce_config(config: Optional[AnalysisConfig] = None
                  ) -> AnalysisConfig:
    """``config``, or the default config for ``None``; anything else
    is a :class:`TypeError`."""
    if config is not None and not isinstance(config, AnalysisConfig):
        raise TypeError(
            f"config must be an AnalysisConfig, "
            f"got {type(config).__name__}")
    return config or AnalysisConfig()
