package extmem

import "testing"

// tinyConfig is a four-frame machine: a few dozen words are enough to
// evict anything.
func tinyConfig(native bool) Config {
	return Config{M: 16, B: 4, AllowShortCache: true, Native: native}
}

// TestFreshExtentReadsZeroAfterEviction re-allocates a released extent's
// addresses, reads them, lets the clean copy be evicted and reads them
// again: a fresh extent reads as zero however often its blocks leave the
// cache, as long as nothing has written them.
func TestFreshExtentReadsZeroAfterEviction(t *testing.T) {
	sp := NewSpace(tinyConfig(false))
	mark := sp.Mark()
	sp.Alloc(8).Fill(0xdead)
	sp.DropCache() // the released extent's words now sit in the backend
	sp.Release(mark)

	fresh := sp.Alloc(8)
	if got := fresh.Read(0); got != 0 {
		t.Fatalf("fresh extent reads %#x, want 0", got)
	}
	other := sp.Alloc(64)
	for i := range other.Len() {
		other.Read(i)
	}
	if sp.Resident(fresh.Base()) {
		t.Fatal("64 words on a 16-word machine left the fresh extent cached")
	}
	if got := fresh.Read(0); got != 0 {
		t.Fatalf("fresh extent reads %#x after its clean copy was evicted, want 0", got)
	}
}

// peek returns word a of sp without touching its cache or its counters.
func peek(sp *Space, a int64) Word {
	if sp.native {
		if a < sp.natBase {
			return sp.natCore[a]
		}
		return sp.natScratch[a-sp.natBase]
	}
	off := a & int64(sp.cfg.B-1)
	switch e := sp.blocks[a>>sp.logB]; {
	case e > 0:
		return sp.words(e - 1)[off]
	case e == virginBlock:
		return 0
	}
	buf := make([]Word, sp.cfg.B)
	if err := sp.backend.ReadBlock(a>>sp.logB, buf); err != nil {
		panic(err)
	}
	return buf[off]
}

// FuzzSpace drives two tiny session Spaces, simulated or native, with op
// bytes against a flat word array: Alloc, Release to a live extent's
// mark, writes of the top extent, reads of every live extent and of the
// core, DropCache, Flush, a LIFO Lease taken or released, a Snapshot of
// the top extent, a scan by View and a Load of the whole Space or of a
// live extent, a Store and a Fill of the top extent, and a CopyTo into
// it. The first Space runs View, Load, Store, Fill and CopyTo as they
// are; its twin does the same words one at a time, with Read and Write.
// Every read must return what the array holds — zero for words allocated
// and not written since — and a snapshot must hold the extent's words
// followed by zeros. After each op, both Spaces must hold the array's
// words at every allocated address, agree on which of them are resident,
// and report the same Stats. The core is 0–3 blocks of nonzero words
// below every extent.
func FuzzSpace(f *testing.F) {
	// A released extent's data written back, its addresses re-allocated,
	// read, evicted by 64 other words and read again.
	f.Add(false, byte(0), []byte{0, 8, 2, 0, 4, 0, 1, 0, 0, 8, 3, 0, 0, 64, 3, 0, 3, 0})
	// The same addresses on the native path, past a partial write and a
	// release in the middle of the stack.
	f.Add(true, byte(0), []byte{0, 5, 0, 8, 2, 1, 0, 30, 2, 3, 3, 0, 1, 1, 0, 12, 3, 0, 2, 2, 5, 0, 3, 0})
	// Two core blocks read, evicted by 64 words and read again.
	f.Add(false, byte(2), []byte{3, 0, 0, 64, 3, 0, 3, 0})
	// An 8-word lease taken under four dirty blocks, which halves the
	// cache, then released.
	f.Add(false, byte(1), []byte{0, 16, 2, 0, 6, 14, 3, 0, 6, 1, 3, 0})
	// A written-back extent released and re-allocated shorter, then
	// snapshot unwritten, partly written, and after DropCache.
	f.Add(false, byte(3), []byte{0, 8, 2, 0, 4, 0, 1, 0, 0, 6, 7, 0, 2, 1, 7, 0, 4, 0, 7, 0})
	// An extent released while its dirty blocks are cached, its
	// addresses re-allocated and read twice.
	f.Add(false, byte(0), []byte{0, 8, 2, 0, 1, 0, 0, 64, 3, 0, 3, 0})
	// A cold scan by views from word 2 of a 16-word extent, across three
	// block boundaries.
	f.Add(false, byte(0), []byte{0, 16, 2, 0, 4, 0, 8, 0x21, 3, 0})
	// Views of the whole Space from word 1 of its two-block core, then
	// from word 3 after 64 words evicted it, across the core's end into
	// the extent, and a Load of the extent from its word 2; simulated,
	// and native with the extent written.
	f.Add(false, byte(2), []byte{8, 0x10, 0, 64, 3, 0, 8, 0x30, 9, 0x21})
	f.Add(true, byte(2), []byte{8, 0x10, 0, 64, 2, 0, 8, 0x30, 9, 0x21})
	// A cold CopyTo of words 6–12 of a 13-word extent (addresses 10–16)
	// to words 3–9 of an 18-word one (23–29): every end is misaligned
	// mod B, each side differently. The view scan of the source extent
	// after it misses once more if the copy fetched a destination block
	// before its source block.
	f.Add(false, byte(1), []byte{0, 13, 2, 0, 0, 18, 4, 0, 12, 97, 8, 1, 3, 0})
	// A Store of 15 words under an 8-word lease that halves the cache,
	// then a Fill, the lease released and the cache dropped.
	f.Add(false, byte(0), []byte{0, 16, 6, 14, 10, 1, 11, 0x25, 6, 1, 4, 0, 3, 0})
	f.Fuzz(func(t *testing.T, native bool, core byte, ops []byte) {
		cfg := tinyConfig(native)
		coreWords := make([]Word, int(core)%4*cfg.B)
		for i := range coreWords {
			coreWords[i] = 0xc0de<<32 | Word(i) + 1
		}
		session := func() *Space {
			sp, err := NewSessionSpace(cfg, WordsCore(coreWords), int64(len(coreWords)), "")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sp.Close() })
			return sp
		}
		// sp runs every op as one call; twin runs the block ops word by word.
		sp, twin := session(), session()
		on := func(s *Space, ext Extent) Extent { return s.ExtentAt(ext.Base(), ext.Len()) }
		type live struct {
			ext  Extent
			mark int64
		}
		var (
			exts   []live
			leases [][2]Lease                          // sp's and twin's
			ref    = append([]Word(nil), coreWords...) // the oracle: word a of the Space is ref[a]
		)
		coreExt := sp.ExtentAt(0, int64(len(coreWords)))
		// pick returns the whole Space (0), core included, or a live
		// extent, and a start inside it.
		pick := func(arg byte) (Extent, int64, bool) {
			ext := sp.ExtentAt(0, sp.Size())
			if i := int(arg) % (len(exts) + 1); i > 0 {
				ext = exts[i-1].ext
			}
			if ext.Len() == 0 {
				return ext, 0, false
			}
			return ext, int64(arg>>4) % ext.Len(), true
		}
		check := func(step int) {
			reads := []Extent{coreExt}
			for _, l := range exts {
				reads = append(reads, l.ext)
			}
			for _, ext := range reads {
				twinExt := on(twin, ext)
				for i := range ext.Len() {
					want := ref[ext.Base()+i]
					if got := ext.Read(i); got != want {
						t.Fatalf("op %d: word %d reads %#x, want %#x", step, ext.Base()+i, got, want)
					}
					if got := twinExt.Read(i); got != want {
						t.Fatalf("op %d: twin word %d reads %#x, want %#x", step, ext.Base()+i, got, want)
					}
				}
			}
		}
		same := func(step int) {
			if got, want := sp.Stats(), twin.Stats(); got != want {
				t.Fatalf("op %d: stats %+v, word by word %+v", step, got, want)
			}
			for a := range sp.Size() {
				if got, want := sp.Resident(a), twin.Resident(a); got != want {
					t.Fatalf("op %d: word %d resident %v, word by word %v", step, a, got, want)
				}
				if got, twinGot := peek(sp, a), peek(twin, a); got != ref[a] || twinGot != ref[a] {
					t.Fatalf("op %d: word %d holds %#x, word by word %#x, want %#x", step, a, got, twinGot, ref[a])
				}
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			arg := ops[step+1]
			var top Extent
			if len(exts) > 0 {
				top = exts[len(exts)-1].ext
			}
			switch ops[step] % 13 {
			case 0:
				if sp.Size() > 512 {
					continue
				}
				mark := sp.Mark()
				ext := sp.Alloc(int64(arg) % 72)
				twin.Alloc(ext.Len())
				ref = append(ref[:mark], make([]Word, sp.Size()-mark)...)
				exts = append(exts, live{ext, mark})
			case 1:
				if len(exts) == 0 {
					continue
				}
				i := int(arg) % len(exts)
				sp.Release(exts[i].mark)
				twin.Release(exts[i].mark)
				ref = ref[:exts[i].mark]
				exts = exts[:i]
			case 2:
				for i := int64(0); i < top.Len(); i += 1 + int64(arg)%4 {
					v := Word(step)<<32 | Word(i) + 1
					top.Write(i, v)
					on(twin, top).Write(i, v)
					ref[top.Base()+i] = v
				}
			case 3:
				check(step)
			case 4:
				sp.DropCache()
				twin.DropCache()
			case 5:
				sp.Flush()
				twin.Flush()
			case 6:
				if n := int(arg>>1)%8 + 1; arg&1 == 0 && sp.Leased()+n <= cfg.M-2*cfg.B {
					leases = append(leases, [2]Lease{sp.Lease(n), twin.Lease(n)})
				} else if len(leases) > 0 {
					l := &leases[len(leases)-1]
					l[0].Release()
					l[1].Release()
					leases = leases[:len(leases)-1]
				}
			case 7:
				if len(exts) == 0 {
					continue
				}
				twinSnap := twin.Snapshot(on(twin, top))
				for i, got := range sp.Snapshot(top) {
					want := Word(0) // past the extent, its last block reads as zero
					if int64(i) < top.Len() {
						want = ref[top.Base()+int64(i)]
					}
					if got != want || twinSnap[i] != want {
						t.Fatalf("op %d: snapshot word %d of extent at %d is %#x, word by word %#x, want %#x", step, i, top.Base(), got, twinSnap[i], want)
					}
				}
			case 8:
				ext, i, ok := pick(arg)
				if !ok {
					continue
				}
				for twinExt := on(twin, ext); i < ext.Len(); {
					for _, got := range ext.View(i) {
						if want := ref[ext.Base()+i]; got != want || twinExt.Read(i) != want {
							t.Fatalf("op %d: view word %d reads %#x, want %#x", step, ext.Base()+i, got, want)
						}
						i++
					}
				}
			case 9:
				ext, lo, ok := pick(arg)
				if !ok {
					continue
				}
				ext = ext.Slice(lo, ext.Len())
				buf := make([]Word, ext.Len())
				ext.Load(buf)
				twinExt := on(twin, ext)
				for i, got := range buf {
					if want := ref[ext.Base()+int64(i)]; got != want || twinExt.Read(int64(i)) != want {
						t.Fatalf("op %d: loaded word %d is %#x, want %#x", step, ext.Base()+int64(i), got, want)
					}
				}
			case 10:
				if top.Len() == 0 {
					continue
				}
				lo := int64(arg&0x7f) % top.Len()
				dst := top.Slice(lo, top.Len())
				src := make([]Word, dst.Len()>>(arg>>7)) // half the extent if arg's top bit is set
				for i := range src {
					src[i] = Word(step)<<32 | Word(lo+int64(i)) + 1
				}
				dst.Store(src)
				for i, v := range src {
					on(twin, dst).Write(int64(i), v)
					ref[dst.Base()+int64(i)] = v
				}
			case 11:
				if top.Len() == 0 {
					continue
				}
				lo := int64(arg) % top.Len()
				hi := top.Len() - int64(arg>>4)%(top.Len()-lo)
				v := Word(step)<<32 | 0xf111
				top.Slice(lo, hi).Fill(v)
				for i := lo; i < hi; i++ {
					on(twin, top).Write(i, v)
					ref[top.Base()+i] = v
				}
			case 12:
				src, so, ok := pick(arg)
				if !ok || top.Len() == 0 {
					continue
				}
				do := int64(arg>>5) % top.Len()
				n := min(src.Len()-so, top.Len()-do)
				from, to := src.Slice(so, so+n), top.Slice(do, do+n)
				if from.Base() < to.Base()+n && to.Base() < from.Base()+n {
					continue // CopyTo refuses overlapping extents
				}
				from.CopyTo(to)
				twinFrom, twinTo := on(twin, from), on(twin, to)
				for i := range n {
					twinTo.Write(i, twinFrom.Read(i))
				}
				copy(ref[to.Base():to.Base()+n], ref[from.Base():from.Base()+n])
			}
			same(step)
		}
		check(len(ops))
	})
}
