package extmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Backend is the raw block store behind a Space: the "disk" of the model.
// Implementations transfer whole blocks; the Space's cache decides when.
type Backend interface {
	// ReadBlock fills dst (exactly B words) with block b.
	ReadBlock(b int64, dst []Word) error
	// WriteBlock stores src (exactly B words) as block b, growing the
	// store as needed; blocks never written read as zero.
	WriteBlock(b int64, src []Word) error
	// Sync forces written blocks to stable storage (fsync for file
	// backends; a no-op in memory). Durable images call it before they
	// are considered committed.
	Sync() error
	// Close releases resources.
	Close() error
}

// memBackend keeps external memory in process RAM; the default, and the
// fastest choice for simulations. words holds everything up to the highest
// block written so far; its spare capacity is never written, so it is
// still zero when a later write extends words over it.
type memBackend struct {
	words []Word
}

func newMemBackend() *memBackend { return &memBackend{} }

func (m *memBackend) ReadBlock(b int64, dst []Word) error {
	off := b * int64(len(dst))
	if off >= int64(len(m.words)) {
		clear(dst)
		return nil
	}
	n := copy(dst, m.words[off:])
	clear(dst[n:])
	return nil
}

func (m *memBackend) WriteBlock(b int64, src []Word) error {
	off := b * int64(len(src))
	need := off + int64(len(src))
	if need > int64(cap(m.words)) {
		// Double, so ascending writes of N blocks reallocate O(log N)
		// times and each written word costs amortized O(1).
		grown := make([]Word, need, max(need, 2*int64(cap(m.words))))
		copy(grown, m.words)
		m.words = grown
	} else if need > int64(len(m.words)) {
		m.words = m.words[:need]
	}
	copy(m.words[off:], src)
	return nil
}

func (m *memBackend) Sync() error { return nil }

func (m *memBackend) Close() error { return nil }

// fileBackend stores external memory in a real file, one little-endian
// uint64 per word, so that block transfers are actual disk I/O.
type fileBackend struct {
	f   *os.File
	buf []byte
}

func newFileBackend(path string) (*fileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("extmem: open backing file: %w", err)
	}
	return &fileBackend{f: f}, nil
}

func (fb *fileBackend) ensureBuf(n int) []byte {
	if cap(fb.buf) < n {
		fb.buf = make([]byte, n)
	}
	return fb.buf[:n]
}

func (fb *fileBackend) ReadBlock(b int64, dst []Word) error {
	buf := fb.ensureBuf(len(dst) * 8)
	n, err := fb.f.ReadAt(buf, b*int64(len(buf)))
	return decodeBlock(buf, n, err, dst)
}

// decodeBlock turns a ReadAt result into words: a short read that ran
// into EOF pads with zeros (unwritten external memory reads as zero); any
// other error is a genuine I/O failure and must surface, never be
// mistaken for zeros.
func decodeBlock(buf []byte, n int, err error, dst []Word) error {
	if err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return nil
}

func (fb *fileBackend) WriteBlock(b int64, src []Word) error {
	buf := fb.ensureBuf(len(src) * 8)
	for i, w := range src {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	_, err := fb.f.WriteAt(buf, b*int64(len(buf)))
	return err
}

func (fb *fileBackend) Sync() error { return fb.f.Sync() }

func (fb *fileBackend) Close() error { return fb.f.Close() }

// tempFileBackend is a fileBackend whose file exists only as long as the
// backend does: per-session scratch spill for disk-backed graphs.
type tempFileBackend struct {
	*fileBackend
	path string
}

func newTempFileBackend(path string) (*tempFileBackend, error) {
	fb, err := newFileBackend(path)
	if err != nil {
		return nil, err
	}
	return &tempFileBackend{fileBackend: fb, path: path}, nil
}

func (tb *tempFileBackend) Close() error {
	err := tb.fileBackend.Close()
	if rmErr := os.Remove(tb.path); err == nil {
		err = rmErr
	}
	return err
}

// FileCore serves an immutable core from a file holding one little-endian
// uint64 per word — the canonical image a disk-backed Build leaves at
// Options.DiskPath. Reads go through os.File.ReadAt, which is safe for
// concurrent use, so every live session of a handle can read the same
// core straight from disk; words past EOF read as zero (unwritten
// external memory), as in fileBackend.
type FileCore struct {
	f    *os.File
	bufs sync.Pool // transfer buffers; pooled because sessions read concurrently

	// Native sessions view the image as one contiguous slice; it is
	// decoded lazily on the first NativeWords call and shared (read-only)
	// by every native session of the handle afterwards.
	natMu sync.Mutex
	nat   []Word
}

// NewFileCore opens the file read-only as a Core.
func NewFileCore(path string) (*FileCore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extmem: open core file: %w", err)
	}
	return &FileCore{f: f}, nil
}

// ReadCoreBlock implements Core.
func (fc *FileCore) ReadCoreBlock(blk int64, dst []Word) error {
	want := len(dst) * 8
	buf, _ := fc.bufs.Get().([]byte)
	if len(buf) != want {
		buf = make([]byte, want)
	}
	defer fc.bufs.Put(buf)
	n, err := fc.f.ReadAt(buf, blk*int64(want))
	return decodeBlock(buf, n, err, dst)
}

// NativeWords implements NativeCore: it decodes the first n words of the
// image into process memory once (an mmap-style read-only view, loaded
// eagerly) and serves every later native session from the same slice.
// Words past EOF read as zero, exactly as ReadCoreBlock pads them.
func (fc *FileCore) NativeWords(n int64) ([]Word, error) {
	fc.natMu.Lock()
	defer fc.natMu.Unlock()
	if int64(len(fc.nat)) >= n {
		return fc.nat[:n], nil
	}
	buf := make([]byte, n*8)
	rn, err := fc.f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	for i := rn; i < len(buf); i++ {
		buf[i] = 0
	}
	words := make([]Word, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	fc.nat = words
	return words, nil
}

// Close closes the backing file. The owner of the core (the graph handle)
// calls it once every session is done.
func (fc *FileCore) Close() error { return fc.f.Close() }
