// Package extmem simulates the external memory (I/O) model of Aggarwal and
// Vitter: an internal memory of M words, an external memory of unbounded
// size, and data transfer in blocks of B consecutive words.
//
// All algorithm data lives in a word-addressable Space. Every word access
// goes through a write-back LRU block cache of capacity M words; cache
// misses are counted as I/Os. This gives a uniform, honest I/O measurement
// for both cache-aware algorithms (which are told M and B and arrange their
// access patterns accordingly) and cache-oblivious algorithms (which never
// look at M or B — the LRU replacement policy stands in for the optimal
// replacement policy assumed by the cache-oblivious model, losing at most a
// constant factor by the Sleator–Tarjan competitiveness argument that the
// framework of Frigo et al. relies on).
//
// Internal-memory computation is free in the I/O model, but internal memory
// is not: algorithms that keep O(M) words of native scratch state (hash
// sets, heaps, buffers) must lease that space with Space.Lease, which
// shrinks the block cache by the same number of words while held.
package extmem

import "fmt"

// Word is the unit of storage in the model. The paper assumes each vertex
// and each edge occupies one memory word; an edge {u,v} with u < v is packed
// as uint64(u)<<32 | uint64(v).
type Word = uint64

// Stats records the I/O activity of a Space since the last ResetStats.
type Stats struct {
	// BlockReads is the number of blocks fetched from external memory.
	BlockReads uint64
	// BlockWrites is the number of dirty blocks written back to external
	// memory (on eviction or explicit Flush).
	BlockWrites uint64
	// WordReads and WordWrites count individual word accesses. They are
	// free in the I/O model and are reported only as a work measure.
	WordReads  uint64
	WordWrites uint64
	// PeakLease is the high-water mark of leased internal memory in words.
	PeakLease int
	// PeakAlloc is the high-water mark of allocated disk space in words.
	PeakAlloc int64
}

// IOs returns the total number of input/output operations (block reads plus
// block writes), the quantity every bound in the paper is stated in.
func (s Stats) IOs() uint64 { return s.BlockReads + s.BlockWrites }

// Config describes the simulated machine.
type Config struct {
	// M is the internal memory size in words. The tall-cache assumption
	// M >= B*B is standard (and necessary for optimal cache-oblivious
	// sorting); NewSpace rejects configurations that violate it unless
	// AllowShortCache is set.
	M int
	// B is the block size in words. Must be a power of two.
	B int
	// AllowShortCache disables the tall-cache check (useful in tests).
	AllowShortCache bool
	// Native selects the native fast path: every word access is a direct
	// slice access with no block cache and no I/O accounting. M, B, and
	// the Lease bookkeeping keep their exact simulated semantics — the
	// values algorithms size their decompositions from are unchanged, so
	// the emission order is byte-identical to the simulated machine — but
	// Stats reports zero and writes below a session's core watermark
	// panic immediately instead of at write-back time.
	Native bool
}

const noFrame = int32(-1)

// virginBlock is a block's table entry while the block has never been
// written back: a fetch zeroes a frame with no transfer from external
// memory, so it reads as zero even where the backend holds a released
// extent's data.
const virginBlock = int32(-1)

// frame is a cache slot holding one block.
type frame struct {
	block      int64 // block index held, or -1 if free
	prev, next int32 // LRU list links
	dirty      bool
	virgin     bool // the block has not been written back since it was allocated
}

// Space is a word-addressable external memory with a simulated block cache.
// It is not safe for concurrent use; the I/O model is sequential.
type Space struct {
	cfg     Config
	logB    uint
	backend Backend
	stats   Stats
	size    int64 // allocated words (bump allocator)
	leased  int
	frames  []frame
	data    []Word // frame storage, len = maxFrames*B
	// blocks holds one entry per allocated block: its frame+1 while it is
	// cached, 0 while its words are the backend's, virginBlock while it
	// has never been written back.
	blocks    []int32
	lruHead   int32 // most recently used
	lruTail   int32 // least recently used
	freeList  []int32
	capFrames int // current frame budget = (M - leased)/B
	closed    bool
	// Native-mode storage (Config.Native): no frames, no block table, no
	// accounting. Addresses [0, natBase) read from the immutable natCore
	// slice; [natBase, size) live in natScratch. The Lease counter above
	// keeps its simulated bookkeeping so cache-aware algorithms compute
	// identical decompositions, but nothing is evicted or counted.
	native     bool
	natCore    []Word
	natBase    int64
	natScratch []Word
}

// NewSpace creates a Space backed by process memory.
func NewSpace(cfg Config) *Space {
	sp, err := newSpace(cfg, newMemBackend())
	if err != nil {
		panic(err) // memory backend cannot fail; config errors panic early
	}
	return sp
}

// NewFileSpace creates a Space whose external memory is the named file,
// making the library usable against a real disk. The file is truncated.
func NewFileSpace(cfg Config, path string) (*Space, error) {
	be, err := newFileBackend(path)
	if err != nil {
		return nil, err
	}
	return newSpace(cfg, be)
}

func newSpace(cfg Config, be Backend) (*Space, error) {
	if cfg.B <= 0 || cfg.B&(cfg.B-1) != 0 {
		return nil, fmt.Errorf("extmem: block size B=%d must be a positive power of two", cfg.B)
	}
	if cfg.M < 2*cfg.B {
		return nil, fmt.Errorf("extmem: memory M=%d must hold at least two blocks of B=%d", cfg.M, cfg.B)
	}
	if !cfg.AllowShortCache && cfg.M < cfg.B*cfg.B {
		return nil, fmt.Errorf("extmem: tall-cache assumption violated: M=%d < B^2=%d", cfg.M, cfg.B*cfg.B)
	}
	logB := uint(0)
	for 1<<logB != cfg.B {
		logB++
	}
	if cfg.Native {
		// No cache machinery at all: the validation above keeps the
		// machine description honest (algorithms still consult M and B),
		// but words live in plain slices and the backend is inert.
		return &Space{cfg: cfg, logB: logB, backend: be, native: true}, nil
	}
	maxFrames := cfg.M / cfg.B
	sp := &Space{
		cfg:       cfg,
		logB:      logB,
		backend:   be,
		frames:    make([]frame, maxFrames),
		data:      make([]Word, maxFrames*cfg.B),
		lruHead:   noFrame,
		lruTail:   noFrame,
		capFrames: maxFrames,
	}
	for i := range sp.frames {
		sp.frames[i].block = -1
		sp.freeList = append(sp.freeList, int32(i))
	}
	return sp, nil
}

// Config returns the machine description. Cache-oblivious algorithms must
// not consult it; it exists for cache-aware algorithms and test harnesses.
func (s *Space) Config() Config { return s.cfg }

// Stats returns a snapshot of the I/O counters. A native Space (see
// Config.Native) reports zero: accounting is compiled out of its hot
// path, the one documented divergence from the simulated machine.
func (s *Space) Stats() Stats {
	if s.native {
		return Stats{}
	}
	st := s.stats
	st.PeakAlloc = max(st.PeakAlloc, s.size)
	return st
}

// ResetStats zeroes the I/O counters. It does not flush the cache; call
// DropCache first to measure an algorithm from a cold cache.
func (s *Space) ResetStats() { s.stats = Stats{} }

// DropCache writes back all dirty blocks and empties the cache, so that the
// next measurements start cold. The write-backs are NOT counted (they are
// charged to whatever computation dirtied them before the reset).
func (s *Space) DropCache() {
	writes := s.stats.BlockWrites // the write-backs are uncounted by contract
	for f := range int32(len(s.frames)) {
		if s.frames[f].block >= 0 {
			s.clean(f)
			s.drop(f)
		}
	}
	s.stats.BlockWrites = writes
}

// Flush writes back all dirty blocks, counting the writes. Data remains
// cached (clean).
func (s *Space) Flush() {
	for f := range int32(len(s.frames)) {
		s.clean(f)
	}
}

// Sync forces written-back blocks to stable storage (fsync for
// file-backed spaces; a no-op in memory). It does not flush the cache —
// call Flush first so every dirty block has reached the backend.
func (s *Space) Sync() error { return s.backend.Sync() }

// Close releases the backend (closing the file for file-backed spaces).
func (s *Space) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.backend.Close()
}

// Lease is internal memory reserved by Space.Lease or LeaseAtMost until
// its Release. The zero Lease holds nothing.
type Lease struct {
	sp *Space
	n  int
}

// Release returns the leased words to the block cache. Releasing a Lease
// again, or the zero Lease, does nothing.
func (l *Lease) Release() {
	s := l.sp
	if s == nil {
		return
	}
	l.sp = nil
	s.leased -= l.n
	if !s.native {
		s.capFrames = (s.cfg.M - s.leased) / s.cfg.B
	}
}

// Lease reserves n words of internal memory for native scratch state,
// shrinking the block cache accordingly, until the returned Lease is
// released. It panics if the total leased memory would exceed the
// configured M minus two blocks (the model always needs room to move at
// least input and output blocks).
func (s *Space) Lease(n int) Lease {
	if n < 0 {
		panic("extmem: negative lease")
	}
	if s.leased+n > s.cfg.M-2*s.cfg.B {
		panic(fmt.Sprintf("extmem: lease of %d words exceeds internal memory (M=%d, leased=%d)", n, s.cfg.M, s.leased))
	}
	s.leased += n
	if s.leased > s.stats.PeakLease {
		s.stats.PeakLease = s.leased
	}
	if !s.native {
		// Native mode keeps the lease counter (algorithms derive their
		// decomposition grain from M - Leased(), which must match the
		// simulated machine exactly) but has no cache to shrink.
		s.capFrames = (s.cfg.M - s.leased) / s.cfg.B
		s.evictOver()
	}
	return Lease{sp: s, n: n}
}

// LeaseAtMost leases n words of internal memory, or as much as remains if
// less. Algorithms size their native state from the configured M, but
// configurations at the edge of the model's memory assumptions (M barely
// above B²) can leave less than the sized amount; accounting then charges
// everything that is chargeable rather than refusing to run.
func (s *Space) LeaseAtMost(n int) Lease {
	if maxLease := s.cfg.M - 2*s.cfg.B - s.leased; n > maxLease {
		n = maxLease
	}
	if n <= 0 {
		return Lease{}
	}
	return s.Lease(n)
}

// Leased reports the currently leased internal memory in words.
func (s *Space) Leased() int { return s.leased }

// Size returns the number of allocated words of external memory.
func (s *Space) Size() int64 { return s.size }

// Alloc reserves n consecutive words of external memory and returns the
// extent. Allocations are block-aligned, so a fresh extent always reads as
// zero. Allocation follows stack discipline: use Mark/Release to free.
func (s *Space) Alloc(n int64) Extent {
	if n < 0 {
		panic("extmem: negative allocation")
	}
	base := (s.size + int64(s.cfg.B) - 1) &^ int64(s.cfg.B-1)
	s.size = base + n
	if s.native {
		s.natGrow(s.size - s.natBase)
		return Extent{sp: s, base: base, n: n}
	}
	if s.size > s.stats.PeakAlloc {
		s.stats.PeakAlloc = s.size
	}
	// Freshly allocated blocks are virgin until their first write-back.
	// The base is block-aligned and at least the old size, so they start
	// at the table's end.
	for range (s.size+int64(s.cfg.B)-1)>>s.logB - int64(len(s.blocks)) {
		s.blocks = append(s.blocks, virginBlock)
	}
	return Extent{sp: s, base: base, n: n}
}

// Mark returns the current allocation watermark.
func (s *Space) Mark() int64 { return s.size }

// natGrow extends the native scratch slice to n words. Words between the
// old and new lengths are zeroed explicitly: after a Release truncation
// the capacity may hold stale data, and a fresh extent must read as zero
// exactly like a virgin simulated block.
func (s *Space) natGrow(n int64) {
	old := int64(len(s.natScratch))
	if n <= old {
		return
	}
	if n <= int64(cap(s.natScratch)) {
		s.natScratch = s.natScratch[:n]
		clear(s.natScratch[old:])
		return
	}
	grown := make([]Word, n, max(2*int64(cap(s.natScratch)), n))
	copy(grown, s.natScratch)
	s.natScratch = grown
}

// Release frees all extents allocated after the given mark. Any cached
// blocks wholly above the mark are discarded without write-back (their
// contents are dead).
func (s *Space) Release(mark int64) {
	if mark > s.size || mark < 0 {
		panic("extmem: bad release mark")
	}
	if s.native {
		s.size = mark
		if keep := mark - s.natBase; keep >= 0 && keep < int64(len(s.natScratch)) {
			s.natScratch = s.natScratch[:keep]
		}
		return
	}
	boundary := (mark + int64(s.cfg.B) - 1) >> s.logB
	for f := range int32(len(s.frames)) {
		if s.frames[f].block >= boundary {
			s.drop(f)
		}
	}
	s.blocks = s.blocks[:boundary]
	s.size = mark
}

// Read returns the word at address a, counting a block read on a miss.
// On a native Space it is a direct slice access: no cache, no counters.
func (s *Space) Read(a int64) Word {
	if s.native {
		if a < s.natBase {
			return s.natCore[a]
		}
		return s.natScratch[a-s.natBase]
	}
	s.stats.WordReads++
	f := s.fetch(a >> s.logB)
	return s.data[int64(f)<<s.logB|(a&int64(s.cfg.B-1))]
}

// Write stores v at address a, counting a block read on a miss (write-
// allocate) unless the block has never been materialized, and a block write
// when the dirty block is eventually evicted or flushed.
func (s *Space) Write(a int64, v Word) {
	if s.native {
		if a < s.natBase {
			panic(fmt.Sprintf("extmem: native write to read-only core address %d", a))
		}
		s.natScratch[a-s.natBase] = v
		return
	}
	s.stats.WordWrites++
	f := s.fetch(a >> s.logB)
	s.frames[f].dirty = true
	s.data[int64(f)<<s.logB|(a&int64(s.cfg.B-1))] = v
}

// span returns how many words from address a one view may cover: to the
// end of a's block, or on a native Space to the end of a's region, the
// read-only core or the scratch above it.
func (s *Space) span(a int64) int64 {
	switch {
	case !s.native:
		return int64(s.cfg.B) - a&int64(s.cfg.B-1)
	case a < s.natBase:
		return s.natBase - a
	}
	return s.size - a
}

// view returns the n words from address a, all within a's span, after one
// fetch of their block, counting n word reads.
func (s *Space) view(a, n int64) []Word {
	if s.native {
		if a < s.natBase {
			return s.natCore[a : a+n : a+n]
		}
		a -= s.natBase
		return s.natScratch[a : a+n : a+n]
	}
	s.stats.WordReads += uint64(n)
	return s.frameWords(s.fetch(a>>s.logB), a, n)
}

// writeView is view for writing: the block is fetched as by Write, its
// frame marked dirty and the n words counted as written.
func (s *Space) writeView(a, n int64) []Word {
	if s.native {
		if a < s.natBase {
			panic(fmt.Sprintf("extmem: native write to read-only core address %d", a))
		}
		a -= s.natBase
		return s.natScratch[a : a+n : a+n]
	}
	s.stats.WordWrites += uint64(n)
	f := s.fetch(a >> s.logB)
	s.frames[f].dirty = true
	return s.frameWords(f, a, n)
}

// frameWords returns the n words of frame f from address a's offset in
// its block on.
func (s *Space) frameWords(f int32, a, n int64) []Word {
	lo := int64(f)<<s.logB | a&int64(s.cfg.B-1)
	return s.data[lo : lo+n : lo+n]
}

// fetch brings block b into the cache and returns its frame, updating LRU
// order.
func (s *Space) fetch(b int64) int32 {
	if e := s.blocks[b]; e > 0 {
		s.lruTouch(e - 1)
		return e - 1
	}
	f := s.grabFrame()
	fr := &s.frames[f]
	fr.block = b
	fr.virgin = s.blocks[b] == virginBlock
	if fr.virgin {
		// A block never written back: contents are zero by definition; no
		// transfer from external memory is needed.
		clear(s.words(f))
	} else {
		s.stats.BlockReads++
		if err := s.backend.ReadBlock(b, s.words(f)); err != nil {
			panic(fmt.Sprintf("extmem: read block %d: %v", b, err))
		}
	}
	s.blocks[b] = f + 1
	s.lruPushFront(f)
	return f
}

// words returns frame f's storage.
func (s *Space) words(f int32) []Word {
	return s.data[int64(f)<<s.logB : (int64(f)+1)<<s.logB]
}

// grabFrame returns a free frame, evicting the LRU block if the cache is
// at its budget. The budget never exceeds the frame count, so a frame is
// free afterwards.
func (s *Space) grabFrame() int32 {
	if s.cached() >= s.capFrames {
		s.evictLRU()
	}
	n := len(s.freeList) - 1
	f := s.freeList[n]
	s.freeList = s.freeList[:n]
	return f
}

// cached returns the number of blocks in the cache.
func (s *Space) cached() int { return len(s.frames) - len(s.freeList) }

func (s *Space) evictOver() {
	for s.cached() > s.capFrames {
		s.evictLRU()
	}
}

func (s *Space) evictLRU() {
	f := s.lruTail
	s.clean(f)
	s.drop(f)
}

// drop empties frame f without write-back and returns its block to the
// table: virgin if the frame never wrote the block back, the backend's
// otherwise.
func (s *Space) drop(f int32) {
	fr := &s.frames[f]
	s.blocks[fr.block] = 0 // the backend's
	if fr.virgin {
		s.blocks[fr.block] = virginBlock
	}
	fr.block = -1
	fr.dirty = false
	s.lruUnlink(f)
	s.freeList = append(s.freeList, f)
}

// clean writes frame f's block back if it is dirty. The block then holds
// its words on the backend, so it is no longer virgin.
func (s *Space) clean(f int32) {
	fr := &s.frames[f]
	if !fr.dirty {
		return
	}
	s.stats.BlockWrites++
	fr.dirty, fr.virgin = false, false
	if err := s.backend.WriteBlock(fr.block, s.words(f)); err != nil {
		panic(fmt.Sprintf("extmem: write block %d: %v", fr.block, err))
	}
}

// LRU list management (intrusive doubly-linked list over frames).

func (s *Space) lruPushFront(f int32) {
	fr := &s.frames[f]
	fr.prev = noFrame
	fr.next = s.lruHead
	if s.lruHead != noFrame {
		s.frames[s.lruHead].prev = f
	}
	s.lruHead = f
	if s.lruTail == noFrame {
		s.lruTail = f
	}
}

func (s *Space) lruUnlink(f int32) {
	fr := &s.frames[f]
	if fr.prev != noFrame {
		s.frames[fr.prev].next = fr.next
	} else if s.lruHead == f {
		s.lruHead = fr.next
	}
	if fr.next != noFrame {
		s.frames[fr.next].prev = fr.prev
	} else if s.lruTail == f {
		s.lruTail = fr.prev
	}
	fr.prev, fr.next = noFrame, noFrame
}

func (s *Space) lruTouch(f int32) {
	if s.lruHead == f {
		return
	}
	s.lruUnlink(f)
	s.lruPushFront(f)
}

// Resident reports whether the block containing address a is currently in
// internal memory. Used by tests and by the emit-witness checker. On a
// native Space every word is process memory, so everything is resident.
func (s *Space) Resident(a int64) bool {
	if s.native {
		return true
	}
	return s.blocks[a>>s.logB] > 0
}
