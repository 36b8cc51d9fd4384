// Package mapcache implements CRAID's mapping cache (paper §4.2): an
// in-memory balanced search structure translating block addresses in
// the archive partition (P_A) to their cached copies in the cache
// partition (P_C), with a dirty flag per entry.
//
// The paper specifies a tree-based structure with O(log k) lookups and
// quantifies memory as ~0.58% of the cache partition size (4-byte LBAs,
// a dirty bit and an 8-byte pointer per entry, 4 KiB blocks); Bytes()
// reproduces that accounting. Failure resilience comes from a
// persistent log of dirty translations (Log/Recover): after a crash,
// dirty cached copies — the only ones that differ from the original
// data — can be located and recovered, while clean entries are simply
// invalidated.
package mapcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Mapping is one translation entry.
type Mapping struct {
	Orig  int64 // LBA in the archive partition
	Cache int64 // LBA of the copy in the cache partition
	Dirty bool  // cached copy differs from the original
}

// Table is the mapping cache: one AVL tree keyed by archive address,
// with a node freelist so the monitor's steady-state evict/re-insert
// churn allocates nothing. The zero value is an empty table ready to
// use. Not safe for concurrent use: the CRAID monitor that owns it is
// single-threaded, like a real controller's interrupt context.
type Table struct {
	root *node
	size int
	free *node // removed nodes, chained through right

	// scratch for the last insert descent (replacement detection
	// without a second lookup descent when logging is enabled).
	replaced Mapping
	existed  bool

	log io.Writer // optional persistent dirty log

	// logRec is appendLog's encode scratch. A local array would escape
	// to the heap at the io.Writer call — one allocation per logged
	// transition on the apply path; Write contracts not to retain the
	// slice, so reusing one buffer is safe.
	logRec [recordSize]byte

	// dirty is the O(1) membership set behind IsDirty: the Orig of
	// every mapping whose Dirty flag is set. Maintained at the same
	// choke points that write the persistent dirty log.
	dirty dirtySet
}

// New returns an empty table.
func New() *Table { return &Table{} }

// SetLog directs persistent logging of dirty-state transitions to w.
// Passing nil disables logging.
func (t *Table) SetLog(w io.Writer) { t.log = w }

// Len returns the number of mappings.
func (t *Table) Len() int { return t.size }

// Bytes returns the worst-case memory footprint per the paper's
// accounting: 4 bytes per LBA (two LBAs), 1 dirty bit, and 8 bytes of
// structure pointer per entry.
func (t *Table) Bytes() int64 {
	const perEntryBits = 2*32 + 1 + 64
	return (int64(t.size)*perEntryBits + 7) / 8
}

// IsDirty reports whether orig is mapped with its dirty flag set, in
// O(1) via the dirty-membership set (equivalent to Lookup + Dirty,
// property-pinned by the table tests). The eviction path probes
// dirtiness for a window of victim candidates per eviction, and a tree
// descent per probe dominated whole replays before this existed.
func (t *Table) IsDirty(orig int64) bool { return t.dirty.has(orig) }

// Insert adds or replaces the mapping for m.Orig.
func (t *Table) Insert(m Mapping) {
	t.existed = false
	t.root = t.insert(t.root, m)
	switch {
	case m.Dirty:
		t.dirty.add(m.Orig)
		t.appendLog(logInsert, m)
	case t.existed && t.replaced.Dirty:
		// A clean copy replaced a dirty one: the dirty state is gone.
		t.dirty.del(m.Orig)
		t.appendLog(logClean, Mapping{Orig: m.Orig})
	}
}

// InsertRun adds or replaces the n mappings orig+i → cache+i for
// 0 <= i < n, all with the same dirty flag — equivalent to a loop of
// Insert over consecutive addresses.
func (t *Table) InsertRun(orig, cache, n int64, dirty bool) {
	for i := int64(0); i < n; i++ {
		t.Insert(Mapping{Orig: orig + i, Cache: cache + i, Dirty: dirty})
	}
}

// Remove deletes the mapping for orig, reporting whether it existed.
func (t *Table) Remove(orig int64) bool {
	var removed bool
	t.root, removed = t.remove(t.root, orig)
	if removed {
		t.size--
		t.dirty.del(orig)
		t.appendLog(logRemove, Mapping{Orig: orig})
	}
	return removed
}

// DirtyMappings returns all dirty entries in ascending Orig order.
func (t *Table) DirtyMappings() []Mapping {
	var out []Mapping
	t.Walk(func(m Mapping) bool {
		if m.Dirty {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Clear removes all mappings.
func (t *Table) Clear() {
	t.root = nil
	t.size = 0
	t.dirty.clear()
}

// --- persistent dirty log ---

// Log record kinds.
const (
	logInsert byte = 1 // mapping became dirty (payload: orig, cache)
	logClean  byte = 2 // mapping written back (payload: orig)
	logRemove byte = 3 // mapping removed (payload: orig)
)

const recordSize = 1 + 8 + 8

func (t *Table) appendLog(kind byte, m Mapping) {
	if t.log == nil {
		return
	}
	rec := &t.logRec
	rec[0] = kind
	binary.LittleEndian.PutUint64(rec[1:9], uint64(m.Orig))
	binary.LittleEndian.PutUint64(rec[9:17], uint64(m.Cache))
	// The log is best-effort durability, as in a controller's NVRAM
	// journal; a short write surfaces on Recover, not here.
	_, _ = t.log.Write(rec[:])
}

// Recover replays a dirty log and returns the mappings that were dirty
// when the log ended — the blocks whose cached copies must be restored
// after a crash (paper §4.2: clean blocks are invalidated, dirty ones
// recovered from their logged translations).
func Recover(r io.Reader) ([]Mapping, error) {
	br := bufio.NewReader(r)
	dirty := make(map[int64]int64)
	var rec [recordSize]byte
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err == io.ErrUnexpectedEOF {
			// Torn final record: everything before it is still valid.
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mapcache: reading log: %w", err)
		}
		orig := int64(binary.LittleEndian.Uint64(rec[1:9]))
		cache := int64(binary.LittleEndian.Uint64(rec[9:17]))
		switch rec[0] {
		case logInsert:
			dirty[orig] = cache
		case logClean, logRemove:
			delete(dirty, orig)
		default:
			return nil, errors.New("mapcache: corrupt log record")
		}
	}
	out := make([]Mapping, 0, len(dirty))
	for orig, cache := range dirty {
		out = append(out, Mapping{Orig: orig, Cache: cache, Dirty: true})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Orig < out[j].Orig })
	return out, nil
}
