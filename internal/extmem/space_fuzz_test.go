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

// FuzzSpace drives a tiny session Space, simulated or native, with op
// bytes against a flat word array: Alloc, Release to a live extent's
// mark, writes of the top extent, reads of every live extent and of the
// core, DropCache, Flush, a LIFO Lease taken or released, and a Snapshot
// of the top extent. Every read must return what the array holds — zero
// for words allocated and not written since — and a snapshot must hold
// the extent's words followed by zeros. The core is 0–3 blocks of
// nonzero words below every extent.
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
	f.Fuzz(func(t *testing.T, native bool, core byte, ops []byte) {
		cfg := tinyConfig(native)
		coreWords := make([]Word, int(core)%4*cfg.B)
		for i := range coreWords {
			coreWords[i] = 0xc0de<<32 | Word(i) + 1
		}
		sp, err := NewSessionSpace(cfg, WordsCore(coreWords), int64(len(coreWords)), "")
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		type live struct {
			ext  Extent
			mark int64
		}
		var (
			exts   []live
			leases []func()
			ref    = append([]Word(nil), coreWords...) // the oracle: word a of the Space is ref[a]
		)
		check := func(step int) {
			reads := []Extent{sp.ExtentAt(0, int64(len(coreWords)))}
			for _, l := range exts {
				reads = append(reads, l.ext)
			}
			for _, ext := range reads {
				for i := range ext.Len() {
					if got, want := ext.Read(i), ref[ext.Base()+i]; got != want {
						t.Fatalf("op %d: word %d reads %#x, want %#x", step, ext.Base()+i, got, want)
					}
				}
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			arg := ops[step+1]
			switch ops[step] % 8 {
			case 0:
				if sp.Size() > 512 {
					continue
				}
				mark := sp.Mark()
				ext := sp.Alloc(int64(arg) % 72)
				ref = append(ref[:mark], make([]Word, sp.Size()-mark)...)
				exts = append(exts, live{ext, mark})
			case 1:
				if len(exts) == 0 {
					continue
				}
				i := int(arg) % len(exts)
				sp.Release(exts[i].mark)
				ref = ref[:exts[i].mark]
				exts = exts[:i]
			case 2:
				if len(exts) == 0 {
					continue
				}
				top := exts[len(exts)-1].ext
				for i := int64(0); i < top.Len(); i += 1 + int64(arg)%4 {
					v := Word(step)<<32 | Word(i) + 1
					top.Write(i, v)
					ref[top.Base()+i] = v
				}
			case 3:
				check(step)
			case 4:
				sp.DropCache()
			case 5:
				sp.Flush()
			case 6:
				if n := int(arg>>1)%8 + 1; arg&1 == 0 && sp.Leased()+n <= cfg.M-2*cfg.B {
					leases = append(leases, sp.Lease(n))
				} else if len(leases) > 0 {
					leases[len(leases)-1]()
					leases = leases[:len(leases)-1]
				}
			case 7:
				if len(exts) == 0 {
					continue
				}
				top := exts[len(exts)-1].ext
				for i, got := range sp.Snapshot(top) {
					want := Word(0) // past the extent, its last block reads as zero
					if int64(i) < top.Len() {
						want = ref[top.Base()+int64(i)]
					}
					if got != want {
						t.Fatalf("op %d: snapshot word %d of extent at %d is %#x, want %#x", step, i, top.Base(), got, want)
					}
				}
			}
		}
		check(len(ops))
	})
}
