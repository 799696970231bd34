package extmem

import (
	"errors"
	"strings"
	"testing"
)

// flakyBackend fails reads/writes after a fuse burns down, simulating a
// failing device under the cache.
type flakyBackend struct {
	inner      Backend
	readsLeft  int
	writesLeft int
}

var errInjected = errors.New("injected device failure")

func (f *flakyBackend) ReadBlock(b int64, dst []Word) error {
	if f.readsLeft <= 0 {
		return errInjected
	}
	f.readsLeft--
	return f.inner.ReadBlock(b, dst)
}

func (f *flakyBackend) WriteBlock(b int64, src []Word) error {
	if f.writesLeft <= 0 {
		return errInjected
	}
	f.writesLeft--
	return f.inner.WriteBlock(b, src)
}

func (f *flakyBackend) Sync() error  { return f.inner.Sync() }
func (f *flakyBackend) Close() error { return f.inner.Close() }

func mustPanicWith(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	fn()
}

func TestReadFailureSurfaces(t *testing.T) {
	cfg := Config{M: 4 * 16, B: 16, AllowShortCache: true}
	sp, err := newSpace(cfg, &flakyBackend{inner: newMemBackend(), readsLeft: 2, writesLeft: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ext := sp.Alloc(16 * 16)
	for i := int64(0); i < ext.Len(); i++ {
		ext.Write(i, 1)
	}
	sp.DropCache() // consumes the write fuse generously
	mustPanicWith(t, "read block", func() {
		// Two reads succeed, the third read of distinct blocks fails.
		ext.Read(0)
		ext.Read(16)
		ext.Read(32)
	})
}

func TestWriteBackFailureSurfaces(t *testing.T) {
	cfg := Config{M: 2 * 16, B: 16, AllowShortCache: true} // 2 frames
	sp, err := newSpace(cfg, &flakyBackend{inner: newMemBackend(), readsLeft: 1000, writesLeft: 0})
	if err != nil {
		t.Fatal(err)
	}
	ext := sp.Alloc(8 * 16)
	mustPanicWith(t, "write block", func() {
		// Dirty three blocks; the third insertion evicts a dirty block,
		// which must write back and fail.
		ext.Write(0, 1)
		ext.Write(16, 1)
		ext.Write(32, 1)
	})
}

func TestFlushFailureSurfaces(t *testing.T) {
	cfg := Config{M: 8 * 16, B: 16, AllowShortCache: true}
	sp, err := newSpace(cfg, &flakyBackend{inner: newMemBackend(), readsLeft: 1000, writesLeft: 1})
	if err != nil {
		t.Fatal(err)
	}
	ext := sp.Alloc(4 * 16)
	ext.Write(0, 1)
	ext.Write(16, 1)
	mustPanicWith(t, "write block", func() { sp.Flush() })
}
