// Package emio provides sequential streaming primitives over extmem
// extents: readers, writers and filters. Sequential access to an
// extent of n words costs ceil(n/B) + O(1) I/Os through the block cache,
// which is the "scan" primitive every external-memory bound builds on.
package emio

import "repro/internal/extmem"

// Reader is a forward sequential cursor over an extent.
type Reader struct {
	ext extmem.Extent
	pos int64
}

// NewReader returns a reader positioned at the start of ext.
func NewReader(ext extmem.Extent) *Reader { return &Reader{ext: ext} }

// Next returns the next word, or ok=false at the end.
func (r *Reader) Next() (w extmem.Word, ok bool) {
	if r.pos >= r.ext.Len() {
		return 0, false
	}
	w = r.ext.Read(r.pos)
	r.pos++
	return w, true
}

// Writer appends words sequentially to an extent.
type Writer struct {
	ext extmem.Extent
	pos int64
}

// NewWriter returns a writer positioned at the start of ext.
func NewWriter(ext extmem.Extent) *Writer { return &Writer{ext: ext} }

// Append writes the next word. It panics if the extent is full; extents are
// sized by the caller, so overflow is a logic error.
func (w *Writer) Append(v extmem.Word) {
	w.ext.Write(w.pos, v)
	w.pos++
}

// Written returns the prefix extent holding everything appended so far.
func (w *Writer) Written() extmem.Extent { return w.ext.Prefix(w.pos) }

// ForEach applies fn to each word of ext in order.
func ForEach(ext extmem.Extent, fn func(i int64, w extmem.Word)) {
	n := ext.Len()
	for i := int64(0); i < n; i++ {
		fn(i, ext.Read(i))
	}
}

// Filter scans src and appends every word satisfying keep to dst, returning
// the number kept. dst may be sized pessimistically (src.Len()).
func Filter(dst *Writer, src extmem.Extent, keep func(extmem.Word) bool) int64 {
	var kept int64
	n := src.Len()
	for i := int64(0); i < n; i++ {
		w := src.Read(i)
		if keep(w) {
			dst.Append(w)
			kept++
		}
	}
	return kept
}
