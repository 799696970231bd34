package repro

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/extmem"
	"repro/internal/graph"
)

// This file makes the canonical on-disk image a first-class durable
// artifact (see FORMAT.md for the byte-level formats):
//
//   - Open adopts an existing image — validated against the
//     graph.LayoutFor address map its footer describes — and serves
//     queries immediately, without re-paying the O(sort(E))
//     canonicalization (the handle reports CanonIOs = 0);
//   - every effective Update of a disk-backed handle appends its delta
//     to a write-ahead log at <DiskPath>.wal, fsynced before the new
//     generation becomes current, so a crash between Updates replays on
//     Open to the exact generation;
//   - every generation is written as a complete image, footer included,
//     to its own file <DiskPath>.g<n>; Build promotes generation 0, and
//     Checkpoint (and Close) promote the current generation, atomically
//     — fsync the file, rename it over DiskPath, fsync the directory —
//     and truncate the log it makes obsolete.
//
// The recovery contract is the library-wide byte-identity contract: the
// reopened or crash-recovered graph is byte-identical (emission, Result,
// I/O statistics) to a fresh Build of the replayed edge set at every
// Workers value, because replay runs the same deterministic MergeDelta
// the live Updates ran. The one documented divergence is
// Result.CanonIOs, which reports the cost actually paid in this process:
// 0 for the adopted image, plus the MergeIOs of any replayed or new
// updates.
//
// A durable image has a single writer: at most one live handle (Build or
// Open) may own a DiskPath at a time. Readers of a copied image are
// unrestricted.

// OpenResult reports what Open did to adopt a durable image.
type OpenResult struct {
	// Generation is the generation serving queries after the open: the
	// image's own generation plus every write-ahead-log record replayed
	// on top of it.
	Generation uint64
	// Vertices and Edges describe the adopted graph after replay.
	Vertices int
	Edges    int64
	// Replayed counts the write-ahead-log records replayed (0 when the
	// image was cleanly checkpointed or never updated).
	Replayed int
	// ReplayIOs is the total block-I/O cost of the replayed delta
	// merges — the sum of their UpdateResult.MergeIOs, deterministic and
	// worker-invariant like every merge. Compare with the CanonIOs a
	// fresh Build would have paid (BenchmarkE19Reopen does).
	ReplayIOs uint64
	// AdoptIOs is the block-I/O cost of adopting the image itself:
	// scanning the vertex table to rebind the rank→id index and verify
	// its ordering. O(scan(V)) — the "zero canonicalization IOs" of the
	// reopen path (the handle's CanonIOs stays 0 for the adopted
	// generation).
	AdoptIOs uint64
	// Cleaned counts stale handle-lifetime files of a crashed previous
	// life (session scratch <path>.q<n>, merge scratch <path>.u<n>,
	// generation images <path>.g<n>, and the checkpoint temps
	// <path>.ckpt that earlier releases wrote) removed before adoption.
	Cleaned int
}

// Open adopts an existing canonical image — the file a disk-backed Build
// leaves at its Options.DiskPath, as promoted by Checkpoint/Close — and
// returns a Graph handle serving it, without re-paying the O(sort(E))
// canonicalization: the image footer is validated (magic, version,
// checksum, and the graph.LayoutFor size assertion), the canonical
// extents are rebound at their computed addresses, and queries run
// immediately. The adopted generation reports CanonIOs = 0 — the build
// cost was paid in a previous process — which is the one divergence from
// a fresh Build's Results.
//
// If a write-ahead log <path>.wal holds records beyond the image's
// generation — a previous process crashed between Updates — Open replays
// them in order through the same deterministic delta merges, recovering
// the exact pre-crash generation: the recovered graph is byte-identical
// (emission, Result, I/O statistics) to a fresh Build of the replayed
// edge set at every Workers value. A torn trailing record (crash during
// an append) is discarded and the log truncated at the last valid
// boundary. Stale scratch and generation files of the crashed process
// are removed.
//
// opts.BlockWords must match the image's layout block size (0 adopts
// it); opts.DiskPath, if set, must equal path. The other options are
// free — MemoryWords, Workers, and Seed are machine knobs, not image
// properties. At most one live handle may own a durable image at a time.
func Open(path string, opts Options) (*Graph, OpenResult, error) {
	var or OpenResult
	if path == "" {
		return nil, or, errors.New("repro: Open needs an image path")
	}
	if opts.DiskPath != "" && opts.DiskPath != path {
		return nil, or, fmt.Errorf("repro: Open(%q) conflicts with Options.DiskPath %q", path, opts.DiskPath)
	}
	meta, lay, _, err := readImageMeta(path)
	if err != nil {
		return nil, or, err
	}
	if opts.BlockWords == 0 {
		opts.BlockWords = meta.BlockWords
	} else if opts.BlockWords != meta.BlockWords {
		return nil, or, fmt.Errorf("repro: image %s was laid out with BlockWords=%d, Options ask for %d", path, meta.BlockWords, opts.BlockWords)
	}
	opts.DiskPath = path
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, or, err
	}

	or.Cleaned, err = removeStaleSiblings(path, false)
	if err != nil {
		return nil, or, err
	}

	fc, err := extmem.NewFileCore(path)
	if err != nil {
		return nil, or, err
	}
	gen := &generation{
		meta:     meta,
		layout:   lay,
		core:     fc,
		coreFile: fc,
		refs:     1, // the handle's current pointer
	}
	gen.meta.CanonIOs = 0 // adoption is free; the sort(E) was paid in a previous life
	or.AdoptIOs, gen.rankToID, err = adoptRankTable(opts, gen)
	if err != nil {
		fc.Close()
		return nil, or, err
	}

	g := &Graph{opts: opts, cur: gen}
	g.drain.L = &g.mu

	// Replay the write-ahead log past the image's generation. Records at
	// or below it are obsolete (a crash between a checkpoint's rename
	// and its log truncation leaves them behind) and are skipped; the
	// rest must chain contiguously.
	wdata, err := os.ReadFile(walPath(path))
	if err != nil && !os.IsNotExist(err) {
		g.discard()
		return nil, or, err
	}
	recs, validLen := graph.ScanWAL(wdata)
	if validLen < len(wdata) {
		// Torn tail from a crash mid-append: everything before it is the
		// durable history. Truncate so future appends extend a valid log.
		if err := os.Truncate(walPath(path), int64(validLen)); err != nil {
			g.discard()
			return nil, or, err
		}
	}
	for _, rec := range recs {
		if rec.Gen <= meta.Generation {
			continue
		}
		if rec.Gen != g.Generation()+1 {
			g.discard()
			return nil, or, fmt.Errorf("repro: %s: WAL generation %d does not follow %d", walPath(path), rec.Gen, g.Generation())
		}
		res, err := g.applyPacked(nil, rec.Adds, rec.Removes, false)
		if err != nil {
			g.discard()
			return nil, or, fmt.Errorf("repro: replaying WAL generation %d: %w", rec.Gen, err)
		}
		if res.Generation != rec.Gen {
			g.discard()
			return nil, or, fmt.Errorf("repro: WAL generation %d replayed as a no-op", rec.Gen)
		}
		or.Replayed++
		or.ReplayIOs += res.MergeIOs
	}

	or.Generation = g.Generation()
	or.Vertices = g.NumVertices()
	or.Edges = g.NumEdges()
	return g, or, nil
}

// Checkpoint durably promotes the current generation over the image at
// Options.DiskPath — fsync its file, rename it over DiskPath, fsync the
// directory — and truncates the write-ahead log it makes obsolete, so
// the next Open adopts the current generation directly with nothing to
// replay. A handle whose current generation is already the image at
// DiskPath only truncates the log. Close checkpoints implicitly; call
// Checkpoint mid-life to bound replay work after a crash. Queries keep
// running throughout (the rename leaves the frozen generation's bytes
// where its readers read them); updates wait, as they do for each
// other. Checkpoint is an error on memory-backed graphs and after Close.
func (g *Graph) Checkpoint() error {
	if g.opts.DiskPath == "" {
		return errors.New("repro: Checkpoint needs a disk-backed graph (Options.DiskPath)")
	}
	g.updateMu.Lock()
	defer g.updateMu.Unlock()

	cur, _, err := g.pin()
	if err != nil {
		return err
	}
	defer g.unpin(cur)
	if err := g.promote(cur); err != nil {
		return err
	}
	return g.walReset()
}

// writeImageFooter stamps a freshly written image with its durable
// footer at byte offset offsetWords*8 — just past the block-rounded
// watermark, where no session ever reads — completing the image file.
// promote fsyncs it.
func writeImageFooter(path string, offsetWords int64, meta graph.ImageMeta) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(meta.EncodeFooter(), offsetWords*8)
	if cErr := f.Close(); err == nil {
		err = cErr
	}
	return err
}

// readImageMeta reads and validates the footer of a durable image,
// returning its metadata, the recomputed layout, and the image size in
// words — the graph.LayoutFor assertion: the file must hold exactly the
// block-rounded layout watermark, then the footer.
func readImageMeta(path string) (graph.ImageMeta, graph.CanonLayout, int64, error) {
	fail := func(err error) (graph.ImageMeta, graph.CanonLayout, int64, error) {
		return graph.ImageMeta{}, graph.CanonLayout{}, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	size := st.Size()
	if size < graph.FooterSize || (size-graph.FooterSize)%8 != 0 {
		return fail(fmt.Errorf("repro: %s (%d bytes) is not a canonical image — truncated, or written before the durable format", path, size))
	}
	buf := make([]byte, graph.FooterSize)
	if _, err := f.ReadAt(buf, size-graph.FooterSize); err != nil {
		return fail(err)
	}
	meta, err := graph.DecodeFooter(buf)
	if err != nil {
		return fail(fmt.Errorf("repro: %s: %w", path, err))
	}
	lay, err := meta.Validate()
	if err != nil {
		return fail(fmt.Errorf("repro: %s: %w", path, err))
	}
	coreWords := meta.ImageWords(lay)
	if size != coreWords*8+graph.FooterSize {
		return fail(fmt.Errorf("repro: %s holds %d image bytes but its layout says %d — truncated or mismatched image", path, size-graph.FooterSize, coreWords*8))
	}
	return meta, lay, coreWords, nil
}

// adoptRankTable rebinds the native rank→id index from the image's ByDeg
// artifact — (deg<<32|id) records in rank order — verifying the strict
// ordering Canonicalize guarantees. The scan runs on a session machine
// over the adopted core, so its cost is exactly accounted: O(scan(V))
// block reads, reported as OpenResult.AdoptIOs.
func adoptRankTable(opts Options, gen *generation) (uint64, []uint32, error) {
	nv := gen.meta.NumVertices
	if nv == 0 {
		return 0, nil, nil
	}
	sp, err := gen.open(opts, false, "")
	if err != nil {
		return 0, nil, err
	}
	defer sp.Close()
	byDeg := sp.ExtentAt(gen.layout.ByDeg, nv)
	rankToID := make([]uint32, nv)
	var prev extmem.Word
	for r := int64(0); r < nv; r++ {
		w := byDeg.Read(r)
		if r > 0 && w <= prev {
			return 0, nil, fmt.Errorf("repro: image %s is corrupt: vertex table out of rank order at rank %d", opts.DiskPath, r)
		}
		prev = w
		rankToID[r] = uint32(w)
	}
	return sp.Stats().IOs(), rankToID, nil
}

// promote makes gen durable: fsync its image file, rename it over the
// image at DiskPath, fsync the directory. A crash at any point leaves
// either the old image or the new one at DiskPath — never a mix — plus
// at worst the complete generation file, which the next Open removes.
// Open readers of either file keep reading it: the rename moves no byte.
// Afterwards gen has no file of its own, so a generation whose path is ""
// is durable and promote is a no-op. The caller must hold a reference on
// gen, so its file cannot be removed meanwhile.
func (g *Graph) promote(gen *generation) error {
	if gen.path == "" {
		return nil
	}
	if err := syncPath(gen.path); err != nil {
		return err
	}
	if err := os.Rename(gen.path, g.opts.DiskPath); err != nil {
		return err
	}
	gen.path = ""
	return syncPath(filepath.Dir(g.opts.DiskPath))
}

// walPath names the write-ahead log of a durable image.
func walPath(imagePath string) string { return imagePath + ".wal" }

// walAppend appends one record to the write-ahead log and fsyncs it —
// the durability point of an Update: once walAppend returns, the delta
// survives a crash. Called with updateMu held (appends are serialized
// like the updates that produce them). A failed partial write is rolled
// back by truncating to the pre-append offset, so the log never grows an
// unreadable middle.
func (g *Graph) walAppend(rec graph.WALRecord) error {
	if g.wal == nil {
		f, err := os.OpenFile(walPath(g.opts.DiskPath), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		g.wal = f
	}
	off, err := g.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := g.wal.Write(graph.AppendWALRecord(nil, rec)); err != nil {
		if trErr := g.wal.Truncate(off); trErr != nil {
			return errors.Join(err, trErr)
		}
		return err
	}
	return g.wal.Sync()
}

// walReset empties the write-ahead log after a checkpoint made its
// records obsolete. Called with updateMu held.
func (g *Graph) walReset() error {
	if g.wal != nil {
		if err := g.wal.Truncate(0); err != nil {
			return err
		}
		return g.wal.Sync()
	}
	if err := os.Truncate(walPath(g.opts.DiskPath), 0); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// closeWAL closes the log file handle and, when the log is obsolete
// (the current generation was promoted, or never diverged), removes the
// file — a cleanly closed image stands alone, with nothing to replay.
func (g *Graph) closeWAL(remove bool) error {
	var err error
	if g.wal != nil {
		err = g.wal.Close()
		g.wal = nil
	}
	if remove {
		if rmErr := os.Remove(walPath(g.opts.DiskPath)); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = rmErr
		}
	}
	return err
}

// removeStaleSiblings removes the handle-lifetime files a crashed (or
// previous) process left next to a durable image: session scratch
// (.q<n>), merge scratch (.u<n>) and generation images (.g<n>), where n
// is decimal digits, and the checkpoint temp (.ckpt) that earlier
// releases wrote and a crash of one can still leave. Build also drops
// the old write-ahead log (.wal) — a rebuild starts a fresh durable life,
// and stale records must never replay onto the new image — while Open
// keeps it for replay. No other name is touched: the directory is read,
// not globbed, so a path holding glob metacharacters matches only itself.
func removeStaleSiblings(imagePath string, alsoWAL bool) (int, error) {
	dir, name := filepath.Split(imagePath)
	entries, err := os.ReadDir(filepath.Clean(dir))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		s, ok := strings.CutPrefix(e.Name(), name+".")
		switch {
		case !ok:
			continue
		case s == "ckpt", s == "wal" && alsoWAL:
		case len(s) > 1 && strings.IndexByte("qug", s[0]) >= 0 && strings.Trim(s[1:], "0123456789") == "":
		default:
			continue // a name no handle writes
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return n, err
		}
		n++
	}
	return n, nil
}

// syncPath fsyncs the file or directory at path: a file's written
// bytes, or a directory's entries after a rename.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cErr := f.Close(); err == nil {
		err = cErr
	}
	return err
}

// discard abandons a partially opened handle: mark closed, release the
// generations, keep the write-ahead log (the on-disk state is untouched
// and still recoverable by a later Open). Only used before the handle
// has been returned to a caller, so there is no concurrency to drain.
func (g *Graph) discard() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		for g.active > 0 {
			g.drain.Wait()
		}
		g.cur.refs--
		g.cur.release()
	}
	g.mu.Unlock()
	if g.wal != nil {
		g.wal.Close()
		g.wal = nil
	}
}
