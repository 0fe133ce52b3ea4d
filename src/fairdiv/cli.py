"""Command-line interface.

Exit codes: 0 when the requested property holds or the operation
succeeds, 1 when a violation was found, 2 on any error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .audit import NOTIONS, Verdict, audit
from .errors import FairdivError
from .fixtures import FIXTURE_NAMES, run_fixture
from .generators import FAMILIES, GeneratorConfig, generate
from .greedy import alg_identical_trace, greedy_result
from .methods import METHODS, solve_with_method
from .model import format_value
from .search import search_counterexamples
from .serialize import (
    allocation_from_json,
    dumps,
    instance_from_json,
    instance_to_dict,
    result_to_dict,
)


def _load(path: str, parse):
    """``parse`` applied to a file's text, with unreadable files and invalid
    JSON (not UTF-8, or nested past the decoder's recursion limit) reported
    as errors that name the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FairdivError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FairdivError(f"{path} is not valid JSON: {exc}") from exc


def _notions_option(fn):
    """The --notions option, split into a tuple of notion names."""
    return click.option(
        "--notions",
        default=",".join(NOTIONS),
        show_default=True,
        help="Comma-separated fairness notions.",
        callback=lambda _ctx, _param, text: tuple(
            name.strip() for name in text.split(",") if name.strip()
        ),
    )(fn)


def _max_space_option(fn):
    """The search-space cap of every command that may enumerate."""
    return click.option("--max-space", type=int, default=None, help="Search-space cap.")(fn)


class _Group(click.Group):
    """The command group, and the one place where bad input of any command
    becomes ``error: ...`` on stderr and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FairdivError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Group)
def main():
    """Exact solvers, fairness checks and counterexample search for
    allocating indivisible goods and chores."""


@main.command()
@click.option("--instance", "instance_path", required=True, help="Instance JSON file.")
@click.option("--method", required=True, type=click.Choice(METHODS))
@click.option("--trace", is_flag=True, help="Emit greedy trace as JSON lines.")
@_max_space_option
def solve(instance_path, method, trace, max_space):
    """Solve an instance and print the allocation."""
    inst = _load(instance_path, instance_from_json)
    if trace:
        if method != "alg-identical":
            raise FairdivError("--trace applies only to --method alg-identical")
        steps = alg_identical_trace(inst)
        for step in steps:
            click.echo(
                json.dumps(
                    {
                        "item": inst.items[step.item],
                        "agent": step.agent,
                        "utilities": [format_value(u) for u in step.utilities],
                    }
                )
            )
        result = greedy_result(inst, steps)
    else:
        result = solve_with_method(inst, method, max_space)
    click.echo(dumps({"method": method, **result_to_dict(inst, result)}), nl=False)


@main.command("audit")
@click.option("--instance", "instance_path", required=True, help="Instance JSON file.")
@click.option("--allocation", "allocation_path", required=True, help="Allocation JSON file.")
@_notions_option
@_max_space_option
def audit_command(instance_path, allocation_path, notions, max_space):
    """Check fairness notions for a given allocation."""
    inst = _load(instance_path, instance_from_json)
    alloc = _load(allocation_path, lambda text: allocation_from_json(inst, text))
    report = audit(inst, alloc, notions, max_space)
    click.echo(dumps(report.as_list(inst)), nl=False)
    verdicts = [res.verdict for _, res in report.results]
    if Verdict.FAILS in verdicts:
        sys.exit(1)
    if Verdict.NOT_APPLICABLE in verdicts:
        sys.exit(2)


def _generator_options(fn):
    """:class:`GeneratorConfig`'s fields as options of the same names and defaults."""
    options = [
        click.option("--family", required=True, type=click.Choice(FAMILIES)),
        click.option("--agents", required=True, type=int),
        click.option("--items", required=True, type=int),
        click.option("--seed", required=True, type=int),
        click.option(
            "--low", default=GeneratorConfig.low, show_default=True, help="Lower value bound."
        ),
        click.option(
            "--high", default=GeneratorConfig.high, show_default=True, help="Upper value bound."
        ),
        click.option("--denominator", default=GeneratorConfig.denominator, show_default=True),
        click.option("--weight-max", default=GeneratorConfig.weight_max, show_default=True),
        click.option("--perturb-max", default=GeneratorConfig.perturb_max, show_default=True),
        click.option(
            "--rescale", "rescale_total", default=None, help="Common grand-bundle value."
        ),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@main.command()
@_generator_options
@click.option("--out", default=None, help="Write the instance here instead of stdout.")
def gen(out, **options):
    """Generate a random instance."""
    text = dumps(instance_to_dict(generate(GeneratorConfig(**options))))
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise FairdivError(f"cannot write {out}: {exc}") from exc


@main.command()
@_generator_options
@click.option("--method", required=True, type=click.Choice(METHODS))
@_notions_option
@click.option("--trials", required=True, type=int)
@_max_space_option
def search(method, notions, trials, max_space, **options):
    """Hunt for fairness violations of a solver on random instances."""
    report = search_counterexamples(
        GeneratorConfig(**options), method, notions, trials, max_space=max_space
    )
    click.echo(dumps(report.as_dict()), nl=False)
    if report.found:
        sys.exit(1)


@main.command()
@click.option("--name", required=True, type=click.Choice(FIXTURE_NAMES))
@_max_space_option
def fixture(name, max_space):
    """Re-verify one built-in counterexample fixture."""
    report = run_fixture(name, max_space)
    click.echo(dumps(report.as_dict()), nl=False)


if __name__ == "__main__":
    main()
