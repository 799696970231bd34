# Development entry points; CI (.github/workflows/ci.yml) runs the same
# targets.
GO ?= go
# bash + pipefail so a failing `go test` is not masked by the tee it
# pipes into (mirrors the CI steps' `set -o pipefail`).
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test race bench bench-gated bench-compare bench-module examples docs lint staticcheck fmt loc clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Smoke-run every example program (main packages never execute under
# `go test`); each self-checks and exits non-zero on inconsistencies.
examples:
	for d in examples/*/; do echo "=== go run ./$$d"; $(GO) run ./$$d || exit 1; done

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
# ordered worker pool in internal/extmem, internal/trienum, and
# internal/subgraph, whose tuple engine schedules the Section 6 color
# tuples on that pool) additionally run at -cpu=1,4: GOMAXPROCS=1
# serializes the goroutines, 4 exercises work stealing and the parallel
# oblivious recursion under real preemption. The explicit -timeout
# replaces go test's 10-minute default, which the root package alone has
# reached under -race on 2 vCPUs.
race:
	$(GO) test -race -timeout 30m -cpu=1,4 . ./internal/extmem ./internal/trienum ./internal/subgraph
	$(GO) test -race -timeout 30m ./internal/emsort ./internal/serve ./internal/diff ./internal/cluster

# One iteration of every benchmark in every package (the CI smoke); use
# BENCHTIME=5x etc. for real measurements.
BENCHTIME ?= 1x
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -run='^$$' ./...

# The benchmarks the CI regression gate watches — E2Oblivious (the
# parallel cache-oblivious engine), E9 (k-cliques), E10 (sorting), E13
# (the triangle pipeline) and E15 (the parallel sort) — written to a file
# that bench-compare can consume as OLD= or NEW=. The pattern names
# E2Oblivious, not E2, which would also match E21, E22 and E23.
OUT ?= bench-gated.txt
bench-gated:
	$(GO) test -bench='E2Oblivious|E9|E10|E13|E15' -benchtime=$(BENCHTIME) -run='^$$' . | tee $(OUT)

# Gate NEW against OLD on the deterministic block-I/O metric, as CI does:
#   make bench-gated OUT=old.txt   (on the baseline commit)
#   make bench-gated OUT=new.txt   (on the candidate)
#   make bench-compare OLD=old.txt NEW=new.txt
OLD ?= bench-old.txt
NEW ?= bench-new.txt
bench-compare:
	$(GO) run ./cmd/benchgate -match 'E2Oblivious|E9|E10|E13|E15' -metric IOs -max-regress 20 $(OLD) $(NEW)

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
