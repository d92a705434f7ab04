#!/usr/bin/env python3
"""CI gate for documentation link integrity.

Usage: check_doc_links.py [repo_root]

Scans every Markdown file in the repository (skipping build trees and
.git) and verifies that each relative link target exists on disk:

  [text](src/sat/README.md)        -> file must exist
  [text](../../docs/cli.md#flags)  -> file must exist (anchor ignored)

External links (http://, https://, mailto:) and pure in-page anchors
(#section) are skipped — this gate is about keeping the repo navigable
offline, not about the public internet. GitHub web-app paths
(../../actions/... badge URLs, which are relative to the repository's
web URL, not its file tree) are likewise skipped. Any other link that
resolves outside the repository root is an error: docs must not depend
on files the checkout does not contain.

Second, every Markdown file named in a source comment must exist: a
`*.md` name cited in a // or /* */ comment of a C++ file under src/,
bench/, examples/, tools/ or tests/ must resolve from the repo root or
from the citing file's directory ("see docs/cli.md", "the shard
README.md"). URLs (a name preceded by "://") are skipped.

Third, docs/cli.md must match the flag parsers:
  * every flag tools/pd_cli.cpp compares an argument with (`arg ==
    "--flag"`) is named, in backticks, outside the hidden-worker section;
  * every flag in the first column of a table outside that section is
    one pd_cli accepts;
  * the worker-argv table (the section whose heading names the `worker`
    mode) lists exactly the flags src/engine/shard/worker.cpp reads: its
    `visit("--flag", ...)` field list plus the flags decodeWorkerArgs
    handles itself (`flag == "--flag"`).

Exits non-zero listing every broken link, citation and flag mismatch.
"""
import os
import re
import sys

SKIP_DIRS = {".git", "build", ".ccache", "__pycache__"}

# [text](target) — non-greedy target, tolerates titles: (target "title")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
# GitHub-web-relative, not file-tree-relative (status badges).
WEB_APP_PREFIXES = ("../../actions/",)


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.lower().endswith(".md"):
                yield os.path.join(dirpath, name)


def check_file(md_path, root):
    """Returns a list of (line_number, target, reason) problems."""
    problems = []
    with open(md_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(EXTERNAL_PREFIXES):
                    continue
                if target.startswith(WEB_APP_PREFIXES):
                    continue
                if target.startswith("#"):
                    continue  # in-page anchor
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                resolved = os.path.realpath(
                    os.path.join(os.path.dirname(md_path), path_part))
                if os.path.commonpath([resolved, root]) != root:
                    problems.append((lineno, target, "escapes repo root"))
                elif not os.path.exists(resolved):
                    problems.append((lineno, target, "target does not exist"))
    return problems


CITING_DIRS = ("src", "bench", "examples", "tools", "tests")
SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".h")
# A path-like token ending in ".md"; the lookbehind keeps the match from
# starting mid-token.
MD_NAME_RE = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")


def comment_lines(text):
    """Yields (line_number, comment_text) for the comments of C++ source.
    String and character literals are skipped so that a "//" inside one
    does not open a comment."""
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = []
        quote = None
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    parts.append(line[i:])
                    break
                parts.append(line[i:end])
                i = end + 2
                in_block = False
            elif quote:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    quote = None
                i += 1
            elif line.startswith("//", i):
                parts.append(line[i + 2:])
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            elif line[i] in "\"'":
                quote = line[i]
                i += 1
            else:
                i += 1
        if parts:
            yield lineno, " ".join(parts)


def source_files(root):
    for top in CITING_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def check_citations(src_path, root):
    """Returns a list of (line_number, name) for cited *.md files that
    resolve neither from the repo root nor from the citing directory."""
    problems = []
    with open(src_path, encoding="utf-8") as f:
        text = f.read()
    for lineno, comment in comment_lines(text):
        for match in MD_NAME_RE.finditer(comment):
            if comment[:match.start()].endswith(":"):
                continue  # part of a URL
            name = match.group(0)
            candidates = (os.path.join(root, name),
                          os.path.join(os.path.dirname(src_path), name))
            if not any(os.path.isfile(c) and
                       os.path.commonpath([os.path.realpath(c), root]) == root
                       for c in candidates):
                problems.append((lineno, name))
    return problems


CLI_DOC = os.path.join("docs", "cli.md")
CLI_SOURCE = os.path.join("tools", "pd_cli.cpp")
WORKER_SOURCE = os.path.join("src", "engine", "shard", "worker.cpp")
CLI_FLAG_RE = re.compile(r"\b(?:arg|a) == \"(-{1,2}[a-z][\w-]*)\"")
WORKER_FLAG_RE = re.compile(
    r"(?:\bvisit\(|\bflag == )\"(--[a-z][\w-]*)\"")
TICKED_FLAG_RE = re.compile(r"`(-{1,2}[a-z][\w-]*)")
CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")


def doc_flags(doc_text):
    """Returns ({flags named outside the worker section},
    {first-column table flags outside it}, {first-column flags of the
    worker section's tables})."""
    named, table, worker = set(), set(), set()
    in_worker = False
    for line in doc_text.splitlines():
        if line.startswith("## "):
            in_worker = "`worker`" in line
        if not in_worker:
            named.update(TICKED_FLAG_RE.findall(line))
        if not line.startswith("|"):
            continue
        cells = CELL_SPLIT_RE.split(line)
        if len(cells) < 3:
            continue
        flags = set(TICKED_FLAG_RE.findall(cells[1]))
        (worker if in_worker else table).update(flags)
    return named, table, worker


def check_cli_flags(root):
    """Returns a list of flag mismatches between docs/cli.md and the two
    argv parsers."""
    def read(rel):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            return f.read()
    accepted = set(CLI_FLAG_RE.findall(read(CLI_SOURCE)))
    worker_accepted = set(WORKER_FLAG_RE.findall(read(WORKER_SOURCE)))
    named, table, worker = doc_flags(read(CLI_DOC))
    problems = []
    for flag in sorted(accepted - named):
        problems.append(f"{CLI_DOC}: pd_cli accepts {flag}, but the "
                        f"reference never names it")
    for flag in sorted(table - accepted):
        problems.append(f"{CLI_DOC}: table flag {flag} is not one "
                        f"{CLI_SOURCE} accepts")
    for flag in sorted(worker_accepted - worker):
        problems.append(f"{CLI_DOC}: the worker-argv table lacks {flag}, "
                        f"which {WORKER_SOURCE} reads")
    for flag in sorted(worker - worker_accepted):
        problems.append(f"{CLI_DOC}: worker-argv table flag {flag} is not "
                        f"one {WORKER_SOURCE} reads")
    if not accepted or not worker_accepted:
        problems.append("no flags found in the argv parsers; has their "
                        "parsing idiom changed?")
    return problems, len(accepted), len(worker_accepted)


def main():
    root = os.path.realpath(sys.argv[1] if len(sys.argv) > 1 else ".")
    total_files = 0
    total_links_broken = 0
    for md_path in sorted(markdown_files(root)):
        total_files += 1
        for lineno, target, reason in check_file(md_path, root):
            rel = os.path.relpath(md_path, root)
            print(f"{rel}:{lineno}: broken link ({target}): {reason}",
                  file=sys.stderr)
            total_links_broken += 1
    total_sources = 0
    total_citations_broken = 0
    for src_path in source_files(root):
        total_sources += 1
        for lineno, name in check_citations(src_path, root):
            rel = os.path.relpath(src_path, root)
            print(f"{rel}:{lineno}: cited document {name} does not exist",
                  file=sys.stderr)
            total_citations_broken += 1
    flag_problems, cli_flags, worker_flags = check_cli_flags(root)
    for problem in flag_problems:
        print(problem, file=sys.stderr)
    if total_links_broken or total_citations_broken or flag_problems:
        sys.exit(f"{total_links_broken} broken link(s) across "
                 f"{total_files} Markdown file(s), "
                 f"{total_citations_broken} dangling citation(s) across "
                 f"{total_sources} source file(s), "
                 f"{len(flag_problems)} flag mismatch(es) in {CLI_DOC}")
    print(f"doc-link gate OK: {total_files} Markdown files, all relative "
          f"links resolve; {total_sources} source files, every cited "
          f"Markdown file exists; {CLI_DOC} matches the {cli_flags} "
          f"pd_cli flags and the {worker_flags} worker flags")


if __name__ == "__main__":
    main()
