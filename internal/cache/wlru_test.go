package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestWLRUCursorMatchesScan pins WLRU's incremental clean cursor to the
// scanning reference (refLRU in reference_test.go) under dirtiness that
// changes while keys are resident, as it does in the monitor: writes
// turn resident keys dirty at any recency position, and a key turns
// clean only by leaving the policy (eviction, Remove or Clear). Both
// policies see the same dirtiness, so any entry the cursor wrongly
// remembers or skips shows up as a diverging victim. The point/run mix
// exercises moveFront and the evict-reuse path; the extent mix keeps
// the AccessRun and InsertRun chain splices firing.
func TestWLRUCursorMatchesScan(t *testing.T) {
	for _, w := range []float64{0, 0.25, 0.5, 1} {
		for _, extents := range []bool{false, true} {
			t.Run(fmt.Sprintf("w=%g/extents=%v", w, extents), func(t *testing.T) {
				for seed := int64(0); seed < 3; seed++ {
					driveWLRUAgainstScan(t, w, extents, seed)
				}
			})
		}
	}
}

func driveWLRUAgainstScan(t *testing.T, w float64, extents bool, seed int64) {
	t.Helper()
	capacity, keys, steps := 96, int64(384), 5000
	if extents {
		capacity, keys, steps = 512, 2048, 2500
	}
	// Each side keeps its own dirty map, cleared the moment its policy
	// evicts a key (as the monitor's eviction callback does), so a key
	// evicted and re-inserted within one InsertRun comes back clean.
	arenaDirty, refDirty := map[Key]bool{}, map[Key]bool{}
	arena := NewWLRU(capacity, w, func(k Key) bool { return arenaDirty[k] })
	ref := newRefWLRU(capacity, w, func(k Key) bool { return refDirty[k] })
	rng := rand.New(rand.NewSource(31 + seed))

	var got, want []Key
	arenaEvicted := func(v Key) { got = append(got, v); delete(arenaDirty, v) }
	refEvicted := func(v Key) { want = append(want, v); delete(refDirty, v) }
	// write marks keys dirty on both sides: resident keys flip
	// clean→dirty in place, absent ones enter dirty.
	write := func(k, n Key, residentOnly bool) {
		for i := Key(0); i < n; i++ {
			if !residentOnly || arena.Contains(k+i) {
				arenaDirty[k+i], refDirty[k+i] = true, true
			}
		}
	}

	for step := 0; step < steps; step++ {
		k := rng.Int63n(keys)
		n := rng.Int63n(48) + 1
		if extents {
			k, n = 64*rng.Int63n(keys/64), 64
			if rng.Intn(4) == 0 { // occasionally a partial extent
				k += rng.Int63n(32)
				n = rng.Int63n(63) + 1
			}
		}
		got, want = got[:0], want[:0]
		op := rng.Intn(20)
		switch {
		case step%1000 == 999: // an occasional full drop
			arena.Clear()
			ref.Clear()
			clear(arenaDirty)
			clear(refDirty)
		case op == 0: // remove
			if arena.Remove(k) != ref.Remove(k) {
				t.Fatalf("seed %d step %d: Remove(%d) diverged", seed, step, k)
			}
			delete(arenaDirty, k)
			delete(refDirty, k)
		case op < 4: // point write hit or write insert
			write(k, 1, false)
			if v, ok := arena.Insert(k, 1); ok {
				arenaEvicted(v)
			}
			if v, ok := ref.Insert(k, 1); ok {
				refEvicted(v)
			}
		case op < 12: // run hit, half of them writes
			arena.AccessRun(k, n, n)
			ref.AccessRun(k, n, n)
			if rng.Intn(2) == 0 {
				write(k, n, true)
			}
		default: // run insert: a write or a clean copy-in
			if rng.Intn(3) == 0 {
				write(k, n, false)
			}
			arena.InsertRun(k, n, n, arenaEvicted)
			ref.InsertRun(k, n, n, refEvicted)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: evicted %d, want %d", seed, step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: victim %d: got %d, want %d", seed, step, i, got[i], want[i])
			}
		}
		if err := cursorInvariant(arena); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		if arena.Len() != ref.Len() {
			t.Fatalf("seed %d step %d: Len %d != %d", seed, step, arena.Len(), ref.Len())
		}
		if probe := rng.Int63n(keys); arena.Contains(probe) != ref.Contains(probe) {
			t.Fatalf("seed %d step %d: Contains(%d) diverged", seed, step, probe)
		}
	}
	a, b := sortedKeys(arena), sortedKeys(ref)
	if len(a) != len(b) {
		t.Fatalf("seed %d: final residency size %d != %d", seed, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: final residency diverged at %d: %d != %d", seed, i, a[i], b[i])
		}
	}
}

// cursorInvariant checks the clean cursor's state against the list: the
// run is exactly the l.clean.run least recent entries, all marked and
// all dirty, cur is the entry just newer than the run, and no other
// slot is marked.
func cursorInvariant(l *WLRU) error {
	t := l.clean
	if t == nil {
		return nil
	}
	s := l.list.tail
	for i := 0; i < t.run; i++ {
		switch {
		case s == nilSlot:
			return fmt.Errorf("run of %d longer than the list", t.run)
		case !t.marked(s):
			return fmt.Errorf("run entry %d (key %d) unmarked", i, l.slots[s].key)
		case !l.dirty(l.slots[s].key):
			return fmt.Errorf("run entry %d (key %d) clean", i, l.slots[s].key)
		}
		s = l.slots[s].prev
	}
	if s != t.cur {
		return fmt.Errorf("cursor at slot %d, want %d", t.cur, s)
	}
	for ; s != nilSlot; s = l.slots[s].prev {
		if t.marked(s) {
			return fmt.Errorf("slot %d (key %d) marked above the cursor", s, l.slots[s].key)
		}
	}
	return nil
}
