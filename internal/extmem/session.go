package extmem

import "fmt"

// This file lifts the shard machinery of shard.go one level up: from
// workers-within-a-query to queries-over-a-handle. A graph handle freezes
// its canonicalized region once (Snapshot at build time, or the flushed
// backing file for disk-backed graphs) into an immutable Core; every
// query then runs on its own session Space created by NewSessionSpace — a
// private M-word cache, private Stats, and a private scratch allocator
// layered over the shared core. The model is the same PEM picture shard.go
// simulates (P processors with private internal memories over a shared
// disk), so N sessions overlap freely while each one's I/O accounting is
// exactly the accounting a serialized run would produce: a session starts
// cold by construction — empty cache, zero stats, allocator at the core
// watermark — which is precisely the state the old per-handle machine was
// reset to between queries.

// Core is an immutable external-memory image — whole blocks — that
// session Spaces read below their private scratch. Implementations must
// be safe for concurrent ReadCoreBlock calls: every live session of a
// handle reads the same core.
type Core interface {
	// ReadCoreBlock fills dst (exactly B words) with block b of the core.
	ReadCoreBlock(b int64, dst []Word) error
}

// wordsCore serves a core from a native snapshot, as returned by
// Space.Snapshot. Reads are plain copies of a slice nobody writes, so
// concurrent use is safe.
type wordsCore []Word

func (c wordsCore) ReadCoreBlock(b int64, dst []Word) error {
	copy(dst, c[b*int64(len(dst)):])
	return nil
}

// WordsCore wraps a snapshot (whole blocks, as returned by Snapshot) as a
// Core.
func WordsCore(words []Word) Core { return wordsCore(words) }

// NativeCore is implemented by cores that can hand out their first n
// words as one contiguous read-only slice — the zero-copy entry to a
// native session (Config.Native). Cores without it are loaded block by
// block through ReadCoreBlock instead.
type NativeCore interface {
	// NativeWords returns words [0, n) of the core. The slice is shared
	// and must never be written; it stays valid for the core's lifetime.
	NativeWords(n int64) ([]Word, error)
}

func (c wordsCore) NativeWords(n int64) ([]Word, error) {
	if n <= int64(len(c)) {
		return c[:n], nil
	}
	out := make([]Word, n) // past-the-end core words read as zero
	copy(out, c)
	return out, nil
}

// nativeCoreWords resolves a core to a contiguous native slice of n
// words: zero-copy when the core supports it, a one-time block-by-block
// load otherwise.
func nativeCoreWords(core Core, n int64, b int) ([]Word, error) {
	if n == 0 {
		return nil, nil
	}
	if nc, ok := core.(NativeCore); ok {
		return nc.NativeWords(n)
	}
	out := make([]Word, n)
	for blk := int64(0); blk < n/int64(b); blk++ {
		if err := core.ReadCoreBlock(blk, out[blk*int64(b):(blk+1)*int64(b)]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sessionBackend serves the read-only core below coreBlocks and
// everything above it from a private scratch backend, so sessions never
// copy the shared data and cannot corrupt each other. Closing the backend
// closes only the private scratch; the core is owned by the handle.
type sessionBackend struct {
	core       Core
	coreBlocks int64
	priv       Backend
}

func (sb *sessionBackend) ReadBlock(b int64, dst []Word) error {
	if b < sb.coreBlocks {
		return sb.core.ReadCoreBlock(b, dst)
	}
	return sb.priv.ReadBlock(b-sb.coreBlocks, dst)
}

func (sb *sessionBackend) WriteBlock(b int64, src []Word) error {
	if b < sb.coreBlocks {
		return fmt.Errorf("extmem: write-back to read-only core block %d", b)
	}
	return sb.priv.WriteBlock(b-sb.coreBlocks, src)
}

func (sb *sessionBackend) Sync() error { return sb.priv.Sync() }

func (sb *sessionBackend) Close() error { return sb.priv.Close() }

// NewSessionSpace creates a per-query session Space over an immutable
// core of coreWords words (whole blocks): addresses [0, coreWords) read
// from the shared core, and everything above is private scratch. The
// session has its own cfg.M-word block cache, its own Stats, and its own
// bump allocator starting at the core watermark; writing into the core is
// a logic error that panics at write-back time.
//
// scratchPath selects where private scratch spills: "" keeps it in
// process memory; a path backs it with a temp file at that location
// (created here, removed when the session Space is Closed), so scratch of
// disk-backed graphs spills to a real disk instead of RAM.
func NewSessionSpace(cfg Config, core Core, coreWords int64, scratchPath string) (*Space, error) {
	if cfg.B <= 0 || coreWords%int64(cfg.B) != 0 {
		return nil, fmt.Errorf("extmem: core of %d words is not whole blocks of B=%d", coreWords, cfg.B)
	}
	if cfg.Native {
		// Native sessions address the core as one read-only slice and keep
		// scratch in process memory regardless of scratchPath — there is
		// no block traffic to spill, so a scratch file would only cost.
		words, err := nativeCoreWords(core, coreWords, cfg.B)
		if err != nil {
			return nil, err
		}
		sp, err := newSpace(cfg, newMemBackend())
		if err != nil {
			return nil, err
		}
		sp.natCore = words
		sp.natBase = coreWords
		sp.size = coreWords
		return sp, nil
	}
	var priv Backend
	if scratchPath != "" {
		fb, err := newTempFileBackend(scratchPath)
		if err != nil {
			return nil, err
		}
		priv = fb
	} else {
		priv = newMemBackend()
	}
	sb := &sessionBackend{core: core, coreBlocks: coreWords / int64(cfg.B), priv: priv}
	sp, err := newSpace(cfg, sb)
	if err != nil {
		priv.Close()
		return nil, err
	}
	sp.size = coreWords
	sp.blocks = make([]int32, sb.coreBlocks) // the core's words are the backend's
	return sp, nil
}
