#!/bin/sh
# check_docs.sh — docs-consistency gate, run by the CI docs job.
#
# Asserts that every internal/* package carries a package-level godoc
# comment ("// Package <name> ...") of at least three comment lines, so a
# package can't silently regress to an undocumented stub, and that no Go
# or Markdown file names an identifier of the retired goroutine-per-process
# program form, of the retired text state encoders, of the retired frame
# copy interfaces, of the retired harness stepping hook, of the lower-
# bound adversary's retired trace rescans, second deployment and per-round
# maps, of the retired per-call module snapshot, of the duplicate
# suite command, lock run function and worker pool that were folded
# away, of the signaling workload's retired return log, of the
# second copy of the unit loop the -shards coordinator used to keep, of
# the durable loop's retired plan-snapshot switch, of the adversary's
# per-run ledger constructor, of the retired frame template cache and
# lock-section restarter (calls and sections are built in their storage),
# or of the exports no non-test code called: the forward fault path, the
# scripted and biased schedulers, the splitter, the certificate's
# streaming rescore, the word write counter, the symmetry member index,
# the comparison-op predicate, the spec checker constructor and the
# facade's package-level Run; and
# that every *.md file a Go or Markdown file names exists. Run from the
# repository root.
set -eu

fail=0
for dir in internal/*/; do
    pkg=$(basename "$dir")
    file=$(grep -l "^// Package $pkg " "$dir"*.go 2>/dev/null | head -n 1 || true)
    if [ -z "$file" ]; then
        echo "FAIL: package $pkg has no '// Package $pkg ...' comment" >&2
        fail=1
        continue
    fi
    # Count the contiguous comment lines of the block that starts at the
    # package comment.
    lines=$(awk '/^\/\/ Package /{on=1} on{ if ($0 ~ /^\/\//) n++; else exit } END{print n+0}' "$file")
    if [ "$lines" -lt 3 ]; then
        echo "FAIL: package $pkg's package comment is only $lines line(s) ($file) — write a real one" >&2
        fail=1
    fi
done

retired='memsim\.Proc\b|memsim\.Program\b|StartCall|FromBlocking|WorkerPool|memsim\.Blocking\b|ForceBlocking|ResumableWorkload|CanResume|StateEncoder|EncodeFrameState|EncodeModelState|encodeCanonical|ResumableCloner|ResumableCopier|CloneResumable\b|SteppedWorkload|dsmTotal|callSeqOfCurrent|moduleWriters|callHadRemote|\.ModuleSnapshot\b|spareLed|sortedKeys|pendingTargets|b\.spare\b|\.Sees\[|\.Touches\[|rmrbench|\bRunStreaming\b|runPool|returnLog|logPool|Workload\)\.Returns|runCoordinator|shardOpts|unitOutcome|unitsEqual|workerArgsEnv|MergeUnits|MergeShardedState|EffectiveShardDepth|PersistPlan|attachLedger|\bFrameTemplates\b|NewFrameTemplates|SectionRestarter|FaultInjecting|FaultScheduler|NewScripted|NewBiased|NewSplitter|SplitterFrame|\.RescoreStreaming\b|WriteCount|IsComparison|MemberIndex|NewSpecChecker|repro\.Run\b'
# Go files everywhere; Markdown everywhere below the root, and at the root
# the two documents that describe the current code. The other Markdown
# files at the root are records and reference notes (the change log among
# them), which may name what was retired.
scan="README.md ROADMAP.md $(find . -mindepth 1 -maxdepth 1 \( -type d ! -name .git -o -name '*.go' \) | sort)"
stale=$(grep -rnE "$retired" --include='*.go' --include='*.md' $scan || true)
if [ -n "$stale" ]; then
    echo "FAIL: retired identifiers still named:" >&2
    echo "$stale" >&2
    fail=1
fi

# A named Markdown file must exist, from the repository root or from the
# naming file's directory.
missing=$(grep -rnoE --include='*.go' --include='*.md' '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' $scan |
    while IFS=: read -r file line name; do
        [ -e "$name" ] || [ -e "$(dirname "$file")/$name" ] || echo "$file:$line: $name"
    done)
if [ -n "$missing" ]; then
    echo "FAIL: Markdown files named but missing:" >&2
    echo "$missing" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "retired identifiers: none named"
echo "named Markdown files: all present"
echo "package comments ok ($(ls -d internal/*/ | wc -l | tr -d ' ') packages)"
