package repro

import (
	"fmt"
	"strings"

	"repro/internal/extmem"
)

// Algorithm selects the enumeration algorithm.
type Algorithm int

const (
	// CacheAware is the randomized cache-aware algorithm of Section 2:
	// O(E^1.5/(sqrt(M)·B)) expected I/Os. The default.
	CacheAware Algorithm = iota
	// CacheOblivious is the randomized cache-oblivious algorithm of
	// Section 3: same bound, without using M or B.
	CacheOblivious
	// Deterministic is the derandomized cache-aware algorithm of Section
	// 4: same bound, worst case.
	Deterministic
	// HuTaoChung is the SIGMOD 2013 baseline: O(E²/(M·B)) I/Os.
	HuTaoChung
	// BlockNestedLoop is the classical join plan: O(E³/(M²·B)) I/Os.
	BlockNestedLoop
	// EdgeIterator is the Menegola-style baseline: O(E + E^1.5/B) I/Os.
	EdgeIterator
	// SortMerge is Dementiev's sort-based baseline: O(sort(E^1.5)) I/Os.
	SortMerge
)

var algorithmNames = map[Algorithm]string{
	CacheAware:      "cacheaware",
	CacheOblivious:  "oblivious",
	Deterministic:   "deterministic",
	HuTaoChung:      "hutaochung",
	BlockNestedLoop: "nestedloop",
	EdgeIterator:    "edgeiterator",
	SortMerge:       "sortmerge",
}

// String returns the canonical lower-case name.
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{CacheAware, CacheOblivious, Deterministic, HuTaoChung, BlockNestedLoop, EdgeIterator, SortMerge}
}

// ParseAlgorithm resolves a name produced by Algorithm.String.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, n := range algorithmNames {
		if n == strings.ToLower(s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("repro: unknown algorithm %q (have %v)", s, Algorithms())
}

// ExecMode selects how a query executes its algorithm: on the simulated
// external-memory machine (the faithful path, with exact block-I/O
// accounting) or natively on the canonical image (the fast path, same
// decomposition and emission stream, accounting compiled out). A query
// picks it through Query.Mode, the only mode switch; see ModeNative for
// the contract.
type ExecMode int

const (
	// ModeSimulated runs the query on the simulated machine. The zero
	// value, so the default.
	ModeSimulated ExecMode = iota
	// ModeNative runs the query natively: the algorithms run their exact
	// simulated-mode decomposition — same leases, same subproblem grain,
	// same emission stream, byte-identical at every Workers value — but
	// read and write the canonical image directly (memory-backed handles
	// operate on the image's words in place; disk-backed handles decode
	// the image once per session) instead of moving blocks through the
	// simulated cache. The block-transfer accounting is compiled out of
	// the hot path: a native query reports zero Stats and nil WorkerStats
	// — the one documented divergence from simulated execution. Build,
	// Open, and Update always canonicalize on the simulated machine, so
	// CanonIOs remains meaningful for native queries.
	ModeNative
)

// Options describes the simulated external-memory machine a Graph is
// built on and the defaults its queries inherit. The zero value is a
// usable default machine (M = 1<<16 words, B = 1<<7 words, one worker
// per CPU, memory-backed).
type Options struct {
	// MemoryWords is the internal memory size M in 64-bit words
	// (default 1<<16). Must satisfy the tall-cache assumption
	// MemoryWords >= BlockWords².
	MemoryWords int
	// BlockWords is the block size B in words (default 1<<7, i.e. 1 KiB
	// blocks). Must be a power of two.
	BlockWords int
	// Workers is the default worker count for the parallel phases: the
	// O(sort(E)) canonicalization at Build time and every query that runs
	// a parallel-capable algorithm (0 = runtime.GOMAXPROCS(0), i.e. one
	// per CPU). Queries may override it per call via Query.Workers. The
	// canonical representation, every query's emission stream, and all
	// aggregated I/O statistics are identical for every value — only
	// wall-clock time changes.
	Workers int
	// Seed drives randomized edge sources (FromSpec generators); the
	// randomized query algorithms take their seed from Query.Seed.
	Seed uint64
	// DiskPath, when non-empty, backs the external memory with real files
	// instead of process memory: Build canonicalizes into the file at this
	// path and leaves the frozen canonical image there, query sessions
	// read the shared core from it and spill their private scratch to
	// per-session temp files "<DiskPath>.q<n>" (removed when the query
	// finishes).
	//
	// The image is durable: Build stamps it with a checksummed footer so a
	// later Open(path, opts) adopts it without re-canonicalizing, every
	// effective Update appends its delta to a fsynced write-ahead log at
	// "<DiskPath>.wal", and Checkpoint/Close atomically promote the
	// latest generation over the image (Close also removes the log, whose
	// records the promoted image subsumes). After a crash, Open replays
	// the log to the exact pre-crash generation. FORMAT.md specifies the
	// on-disk formats; the image outlives the handle on disk.
	DiskPath string
}

func (o Options) withDefaults() Options {
	if o.MemoryWords == 0 {
		o.MemoryWords = 1 << 16
	}
	if o.BlockWords == 0 {
		o.BlockWords = 1 << 7
	}
	return o
}

// validate checks the machine description. It runs on the defaulted
// options, so a zero Options is always valid.
func (o Options) validate() error {
	if o.BlockWords <= 0 || o.BlockWords&(o.BlockWords-1) != 0 {
		return fmt.Errorf("repro: BlockWords must be a positive power of two, got %d", o.BlockWords)
	}
	if o.MemoryWords < o.BlockWords*o.BlockWords {
		return fmt.Errorf("repro: tall-cache assumption requires MemoryWords >= BlockWords² (%d < %d)",
			o.MemoryWords, o.BlockWords*o.BlockWords)
	}
	return nil
}

// IOStats reports the block-transfer counts of a run.
type IOStats struct {
	// BlockReads and BlockWrites are the I/Os the paper's bounds count.
	BlockReads  uint64
	BlockWrites uint64
	// WordReads and WordWrites measure internal work (free in the model).
	WordReads  uint64
	WordWrites uint64
	// PeakLeaseWords is the high-water mark of internal memory used for
	// native algorithm state.
	PeakLeaseWords int
	// PeakDiskWords is the high-water mark of external memory used.
	PeakDiskWords int64
}

// IOs returns BlockReads + BlockWrites.
func (s IOStats) IOs() uint64 { return s.BlockReads + s.BlockWrites }

func toIOStats(st extmem.Stats) IOStats {
	return IOStats{
		BlockReads:     st.BlockReads,
		BlockWrites:    st.BlockWrites,
		WordReads:      st.WordReads,
		WordWrites:     st.WordWrites,
		PeakLeaseWords: st.PeakLease,
		PeakDiskWords:  st.PeakAlloc,
	}
}
