"""Top-level experiment runner.

``run_experiment`` dispatches one named experiment; ``run_all`` regenerates
every table and figure of the paper and can persist the structured results
(JSON) plus a combined text report — the inputs to ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..registry import Registry
from ..utils.serialization import save_json
from .config import ExperimentConfig, ExperimentContext, fast_config, paper_scale_config, smoke_config
from .fig1_unfairness_landscape import render_fig1, run_fig1
from .fig2_single_attr_entanglement import render_fig2, run_fig2
from .fig3_disagreement import render_fig3, run_fig3
from .fig5_pareto_isic import render_fig5, run_fig5
from .fig6_muffin_site_detail import render_fig6, run_fig6
from .fig7_fitzpatrick import render_fig7, run_fig7
from .fig8_skin_tone_detail import render_fig8, run_fig8
from .fig9_ablations import render_fig9, run_fig9
from .table1_main_comparison import render_table1, run_table1

#: Registry of experiment id -> (runner, renderer, short description).
#: A :class:`~repro.registry.Registry` instance, so unknown ids fail with
#: did-you-mean suggestions and extension experiments can register themselves.
EXPERIMENTS: Registry = Registry("experiment")
for _id, _entry in (
    ("fig1", (run_fig1, render_fig1, "Unfairness landscape of existing architectures")),
    ("fig2", (run_fig2, render_fig2, "Single-attribute optimization see-saw")),
    ("fig3", (run_fig3, render_fig3, "Cross-model disagreement on the unprivileged group")),
    ("table1", (run_table1, render_table1, "Main comparison: vanilla / D / L / Muffin")),
    ("fig5", (run_fig5, render_fig5, "ISIC2019 Pareto frontiers")),
    ("fig6", (run_fig6, render_fig6, "Muffin-Site per-subgroup detail")),
    ("fig7", (run_fig7, render_fig7, "Fitzpatrick17K validation")),
    ("fig8", (run_fig8, render_fig8, "Muffin-Balance per-skin-tone detail")),
    ("fig9", (run_fig9, render_fig9, "Ablations: weighted proxy data, number of paired models")),
):
    EXPERIMENTS.register(_id, _entry)


def experiment_ids() -> Sequence[str]:
    """The ids of every reproducible table/figure, in paper order."""
    return tuple(EXPERIMENTS)


def run_experiment(
    name: str, context: Optional[ExperimentContext] = None
) -> Dict[str, object]:
    """Run one experiment by id and return its structured results."""
    runner, _renderer, _description = EXPERIMENTS.get(name)
    context = context or ExperimentContext()
    return runner(context)


def render_experiment(name: str, results: Dict[str, object]) -> str:
    """Render one experiment's results as the paper-style text table."""
    _runner, renderer, description = EXPERIMENTS[name]
    header = f"== {name}: {description} =="
    return f"{header}\n{renderer(results)}"


def run_all(
    context: Optional[ExperimentContext] = None,
    names: Optional[Sequence[str]] = None,
    output_dir: Optional[str] = None,
    verbose: bool = False,
) -> Dict[str, Dict[str, object]]:
    """Run every (or the selected) experiments, optionally saving artefacts."""
    context = context or ExperimentContext()
    names = list(names or EXPERIMENTS)
    results: Dict[str, Dict[str, object]] = {}
    reports = []
    for name in names:
        if verbose:
            print(f"[experiments] running {name} ...")
        results[name] = run_experiment(name, context)
        reports.append(render_experiment(name, results[name]))
        if verbose:
            print(reports[-1])
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in results.items():
            save_json(payload, out / f"{name}.json")
        (out / "report.txt").write_text("\n\n\n".join(reports))
    return results


def _build_config(scale: str) -> ExperimentConfig:
    if scale == "paper":
        return paper_scale_config()
    if scale == "smoke":
        return smoke_config()
    return fast_config()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: ``python -m repro.experiments.runner``."""
    parser = argparse.ArgumentParser(description="Regenerate the Muffin paper's tables and figures")
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(EXPERIMENTS),
        help=f"experiment ids to run (default: all of {list(EXPERIMENTS)})",
    )
    parser.add_argument("--scale", choices=["smoke", "fast", "paper"], default="fast")
    parser.add_argument("--output-dir", default=None, help="directory for JSON artefacts")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    # ``python -m repro`` delegates anything that is not a subcommand here, so
    # an unknown id is most often a mistyped command: reject it before any
    # experiment runs.
    for name in args.experiments:
        if name not in EXPERIMENTS:
            hint = ", ".join(f"'{match}'" for match in EXPERIMENTS.suggest(name))
            print(
                f"error: unknown command or experiment '{name}'"
                + (f"; did you mean {hint}?" if hint else ""),
                file=sys.stderr,
            )
            return 2

    context = ExperimentContext(_build_config(args.scale))
    run_all(
        context,
        names=args.experiments,
        output_dir=args.output_dir,
        verbose=not args.quiet,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
