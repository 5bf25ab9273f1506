#!/usr/bin/env python3
"""Refresh EXPERIMENTS.md's "## Recorded results" from a tee'd bench log.

  python3 scripts/update_experiments.py [bench_output.txt]
"""
import sys

DOC = "EXPERIMENTS.md"
MARK = "## Recorded results"


def extract_tables(text: str):
    """Return list of (title_line, ascii_table) found in the bench log."""
    tables = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("+") and set(lines[i]) <= {"+", "-"}:
            # Walk back for a title line (first non-empty line above).
            j = i - 1
            title = ""
            while j >= 0:
                if lines[j].strip():
                    title = lines[j].strip()
                    break
                j -= 1
            # Collect the table block.
            block = []
            while i < len(lines) and (lines[i].startswith("+") or
                                      lines[i].startswith("|")):
                block.append(lines[i])
                i += 1
            tables.append((title, "\n".join(block)))
        else:
            i += 1
    return tables


def update_recorded_results(bench_log: str) -> int:
    with open(bench_log) as f:
        log = f.read()
    tables = extract_tables(log)
    if not tables:
        print("no tables found in", bench_log)
        return 1

    section = [MARK, "",
               "Copied from the final tee'd bench run (`bench_output.txt`):",
               ""]
    for title, block in tables:
        section.append(f"**{title}**")
        section.append("")
        section.append("```")
        section.append(block)
        section.append("```")
        section.append("")

    with open(DOC) as f:
        doc = f.read()
    head = doc.split(MARK)[0].rstrip() + "\n\n"
    with open(DOC, "w") as f:
        f.write(head + "\n".join(section))
    print(f"updated {DOC} with {len(tables)} tables")
    return 0


def main() -> int:
    args = sys.argv[1:]
    return update_recorded_results(args[0] if args else "bench_output.txt")


if __name__ == "__main__":
    sys.exit(main())
