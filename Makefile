# Development entry points; CI (.github/workflows/ci.yml) runs the same
# targets.
GO ?= go
# bash + pipefail so a failing `go test` is not masked by the tee it
# pipes into (mirrors the CI steps' `set -o pipefail`).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test race fuzz bench bench-gated bench-compare bench-pairs bench-module examples docs lint staticcheck fmt loc clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Smoke-run every example program (main packages never execute under
# `go test`); each self-checks and exits non-zero on inconsistencies.
# Then run the trienum CLI on a triangle, a clique and a pattern query and
# fail unless each of its three result lines ends in workers=2.
examples:
	for d in examples/*/; do echo "=== go run ./$$d"; $(GO) run ./$$d || exit 1; done
	$(GO) run ./cmd/trienum -gen planted:n=300,m=1800,k=8 -m 256 -b 16 -k 4 -pattern diamond -workers 2 -workerstats | \
		awk '{ print } /^[^ ]/ { n++; if ($$NF != "workers=2") bad = 1 } END { exit (n != 3 || bad) }'

# Documentation gate: every relative markdown link must resolve (file
# and #anchor), and every exported identifier of the public `repro`
# package must carry a doc comment. See cmd/doccheck.
docs:
	$(GO) run ./cmd/doccheck

# Race-detect the parallel execution engine, its memory model, the
# parallel sort substrate, the concurrent-query public surface, the
# HTTP daemon layer, the differential kernel behind subscriptions, the
# cluster partitioning layer (whose coordinator interleaves
# scatter–gather queries with 2PC updates), and the clique and pattern
# tuple solvers (which shards run on the ordered worker pool).
# The packages that own worker scheduling (the root package, the
# ordered worker pool in internal/extmem, internal/trienum, whose
# RunTuples runs every tuple-emitting engine on that pool, and
# internal/subgraph and internal/diff, whose color tuples and anchor
# chunks are RunTuples tasks) additionally run at -cpu=1,4:
# GOMAXPROCS=1 serializes the goroutines, 4 exercises the pool's dynamic
# dispatch and the parallel oblivious recursion under real preemption.
# The explicit -timeout replaces go test's 10-minute default, which the
# root package alone has reached under -race on 2 vCPUs.
race:
	$(GO) test -race -timeout 30m -cpu=1,4 . ./internal/extmem ./internal/trienum ./internal/subgraph ./internal/diff
	$(GO) test -race -timeout 30m ./internal/emsort ./internal/serve ./internal/cluster

# A short fuzzing run of the simulated cache (FuzzSpace) and of the
# graph update decoder (FuzzUpdateRequest), FUZZTIME each. Their seed
# corpora also run in `go test ./...`; a failing input is written under
# the package's testdata/fuzz.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSpace$$' -fuzztime $(FUZZTIME) ./internal/extmem
	$(GO) test -run '^$$' -fuzz '^FuzzUpdateRequest$$' -fuzztime $(FUZZTIME) ./internal/serve

# One iteration of every benchmark in every package (the CI smoke); use
# BENCHTIME=5x etc. for real measurements.
BENCHTIME ?= 1x
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run='^$$' ./...

# The benchmarks the CI regression gate watches — E2Oblivious (the
# parallel cache-oblivious engine), E9 (k-cliques), E10 (sorting), E13
# (the triangle pipeline) and E15 (the parallel sort) in the root
# package, and internal/trienum's KernelTriple (the Lemma 2 kernel on one
# color triple, so a kernel change that moves its I/O fails at its own
# layer) — written to a file that bench-compare can consume as OLD= or
# NEW=. The pattern names E2Oblivious, not E2, which would also match
# E21, E22 and E23.
GATED := E2Oblivious|E9|E10|E13|E15|KernelTriple
OUT ?= bench-gated.txt
bench-gated:
	$(GO) test -bench='$(GATED)' -benchtime=$(BENCHTIME) -run='^$$' . ./internal/trienum | tee $(OUT)

# Gate NEW against OLD on the deterministic block-I/O metric, as CI does:
#   make bench-gated OUT=old.txt   (on the baseline commit)
#   make bench-gated OUT=new.txt   (on the candidate)
#   make bench-compare OLD=old.txt NEW=new.txt
OLD ?= bench-old.txt
NEW ?= bench-new.txt
bench-compare:
	$(GO) run ./cmd/benchgate -match '$(GATED)' -metric IOs -max-regress 20 $(OLD) $(NEW)

# Alternating pairs of the end-to-end benchmark, BASE (a git ref) against
# this checkout's working tree, e.g.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=native-disk PAIRS=10 SEED=5
# BASE is extracted with git archive into a temporary directory outside
# the checkout, and starts from a copy of this checkout's benchmark build
# cache (Go's cache is keyed by content, so sharing it is safe). Pair i
# runs bench/run.sh once in each tree (BASE first in odd pairs, the
# working tree first in even ones), appending to old.json and new.json
# there; the -compare verdicts print last. The results files stay; the
# extracted tree is removed.
BASE ?= HEAD
WORKLOAD ?= all
PAIRS ?= 10
SEED ?= 1
bench-pairs:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp/base"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	if [ -d .bench_build/gocache ]; then \
		mkdir "$$tmp/base/.bench_build"; cp -R .bench_build/gocache "$$tmp/base/.bench_build/"; \
	fi; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="old new"; if [ $$((i % 2)) -eq 0 ]; then order="new old"; fi; \
		for side in $$order; do \
			dir="$(CURDIR)"; if [ $$side = old ]; then dir="$$tmp/base"; fi; \
			echo "pair $$i: $$side" >&2; \
			(cd "$$dir" && bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) \
				--out "$$tmp/$$side.json" --label pair$$i >/dev/null); \
		done; \
	done; \
	echo "results: $$tmp/old.json $$tmp/new.json"; \
	bash bench/run.sh -compare "$$tmp/old.json" "$$tmp/new.json"

# The end-to-end benchmark is a nested module (bench/go.mod), so the
# root build, vet and test skip it; it imports internal names, so vet and
# test it on its own (vet, not build: `go build ./...` inside bench/
# writes a bench/bench binary into the tree).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# Deeper static analysis; CI runs this in its own job, pinned to the
# same version. Install once with:
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not installed: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1"; exit 1; }
	staticcheck ./...

fmt:
	gofmt -w .

# Non-test Go lines outside the nested bench/ module: the size the
# ROADMAP's design aim ("the same behaviour from less code") tracks.
loc:
	@find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

clean:
	$(GO) clean ./...
