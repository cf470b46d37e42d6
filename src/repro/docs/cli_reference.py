"""Deterministic Markdown rendering of the live argparse tree.

``docs/CLI.md`` is generated, never hand-edited: :func:`render_cli_markdown`
walks the parser built by :func:`repro.cli.build_parser` and renders every
subcommand (recursively, so ``repro experiments run`` and friends get their
own sections) plus the environment-variable registry from
:mod:`repro.docs.envvars`.  The renderer deliberately avoids argparse's
``format_help``/``format_usage`` — those wrap to the current terminal
width, which would make the output environment-dependent — and instead
formats actions itself, so two renders are byte-identical anywhere.  No
CLI default reads the environment, so the documented defaults are the
out-of-the-box ones whatever ``REPRO_*`` variables are set.
"""

from __future__ import annotations

import argparse
from typing import Dict, Iterator, List, Tuple

from repro._version import __version__
from repro.docs.envvars import render_env_table

#: Marker line embedded in generated files (and checked by tests).
GENERATED_MARKER = "<!-- generated by `repro docs build`; do not edit by hand -->"


def _subparsers_action(
    parser: argparse.ArgumentParser,
) -> "argparse._SubParsersAction | None":
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _child_help(sub: argparse._SubParsersAction) -> Dict[str, str]:
    """Subcommand name -> the one-line help shown in the parent listing."""
    return {
        pseudo.dest: pseudo.help or ""
        for pseudo in getattr(sub, "_choices_actions", [])
    }


def iter_commands(
    parser: argparse.ArgumentParser, prog: Tuple[str, ...] = ("repro",)
) -> Iterator[Tuple[Tuple[str, ...], argparse.ArgumentParser, str]]:
    """Depth-first ``(command path, parser, one-line help)`` triples."""
    yield prog, parser, ""
    sub = _subparsers_action(parser)
    if sub is None:
        return
    helps = _child_help(sub)
    seen: Dict[int, str] = {}
    for name, child in sub.choices.items():
        if id(child) in seen:  # alias of an already-walked parser
            continue
        seen[id(child)] = name
        for path, grandchild, line in iter_commands(child, prog + (name,)):
            yield path, grandchild, line if grandchild is not child else helps.get(
                name, ""
            )


def _escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def _flags(action: argparse.Action) -> str:
    if action.option_strings:
        return ", ".join(f"`{flag}`" for flag in action.option_strings)
    return f"`{action.metavar or action.dest}`"


def _default(action: argparse.Action) -> str:
    if isinstance(action, (argparse._VersionAction, argparse._HelpAction)):
        return ""
    if isinstance(
        action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
    ):
        return "off" if isinstance(action, argparse._StoreTrueAction) else "on"
    if action.default is None or action.default is argparse.SUPPRESS:
        return ""
    return f"`{action.default}`"


def _choices(action: argparse.Action) -> str:
    if not action.choices or isinstance(action, argparse._SubParsersAction):
        return ""
    return ", ".join(f"`{choice}`" for choice in action.choices)


def _action_rows(parser: argparse.ArgumentParser) -> List[str]:
    rows = []
    for action in parser._actions:
        if isinstance(
            action, (argparse._HelpAction, argparse._SubParsersAction)
        ):
            continue
        help_text = "" if action.help is None else action.help
        detail = _escape(help_text)
        choices = _choices(action)
        if choices:
            detail = f"{detail} (choices: {choices})" if detail else f"choices: {choices}"
        rows.append(
            f"| {_flags(action)} | {_default(action)} | {detail} |"
        )
    return rows


def _command_section(
    path: Tuple[str, ...], parser: argparse.ArgumentParser, help_line: str
) -> List[str]:
    title = " ".join(path)
    lines = [f"## `{title}`", ""]
    summary = parser.description or help_line
    if summary:
        lines.extend([_escape(summary).strip(), ""])
    sub = _subparsers_action(parser)
    if sub is not None:
        helps = _child_help(sub)
        lines.append("| Subcommand | Purpose |")
        lines.append("| --- | --- |")
        seen: Dict[int, bool] = {}
        for name, child in sub.choices.items():
            if id(child) in seen:
                continue
            seen[id(child)] = True
            lines.append(
                f"| [`{title} {name}`](#{'-'.join(path + (name,))}) "
                f"| {_escape(helps.get(name, ''))} |"
            )
        lines.append("")
    rows = _action_rows(parser)
    if rows:
        lines.append("| Argument | Default | Description |")
        lines.append("| --- | --- | --- |")
        lines.extend(rows)
        lines.append("")
    return lines


def render_cli_markdown() -> str:
    """The full ``docs/CLI.md`` content (deterministic, trailing newline)."""
    from repro.cli import build_parser

    parser = build_parser()
    lines = [
        "# `repro` CLI reference",
        "",
        GENERATED_MARKER,
        "",
        f"Generated from the live argparse tree of `repro` {__version__} "
        "by `repro docs build`; `repro docs check` (and the CI `docs-drift` "
        "job) fails on any byte difference, so this reference cannot go "
        "stale.  Anchors: a section `repro experiments run` has the anchor "
        "`#repro-experiments-run`.",
        "",
    ]
    for path, sub_parser, help_line in iter_commands(parser):
        lines.extend(_command_section(path, sub_parser, help_line))
    lines.extend(
        [
            "## Environment variables",
            "",
            "Every `REPRO_*` variable the repository reads, in one place. "
            "The registry lives in `repro.docs.envvars`; `repro docs check` "
            "fails if a variable is used but undocumented, or documented "
            "but no longer used.",
            "",
            render_env_table(),
        ]
    )
    return "\n".join(lines)
