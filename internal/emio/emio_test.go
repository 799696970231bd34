package emio

import (
	"testing"

	"repro/internal/extmem"
)

func newSpace() *extmem.Space {
	return extmem.NewSpace(extmem.Config{M: 1 << 10, B: 1 << 5})
}

func TestReaderWriter(t *testing.T) {
	sp := newSpace()
	ext := sp.Alloc(100)
	w := NewWriter(ext)
	for i := uint64(0); i < 50; i++ {
		w.Append(i * 2)
	}
	if n := w.Written().Len(); n != 50 {
		t.Fatalf("writer wrote %d words", n)
	}
	r := NewReader(w.Written())
	for i := uint64(0); i < 50; i++ {
		v, ok := r.Next()
		if !ok || v != i*2 {
			t.Fatalf("read %d: %d %v", i, v, ok)
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("read past end")
	}
}

func TestForEach(t *testing.T) {
	sp := newSpace()
	ext := sp.Alloc(64)
	for i := int64(0); i < 64; i++ {
		ext.Write(i, uint64(i*i))
	}
	var sum uint64
	ForEach(ext, func(i int64, w extmem.Word) { sum += w })
	var want uint64
	for i := uint64(0); i < 64; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum %d want %d", sum, want)
	}
}

func TestFilter(t *testing.T) {
	sp := newSpace()
	src := sp.Alloc(100)
	for i := int64(0); i < 100; i++ {
		src.Write(i, uint64(i))
	}
	dst := sp.Alloc(100)
	w := NewWriter(dst)
	kept := Filter(w, src, func(x extmem.Word) bool { return x%3 == 0 })
	if kept != 34 {
		t.Fatalf("kept %d, want 34", kept)
	}
	out := w.Written()
	for i := int64(0); i < out.Len(); i++ {
		if out.Read(i)%3 != 0 {
			t.Fatal("filter leak")
		}
	}
}
